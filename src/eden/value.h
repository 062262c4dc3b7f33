// Value: the dynamic datum exchanged by invocations.
//
// Invocation arguments, replies, stream items and passive representations are
// all Values. Eden's Concurrent Euclid used statically-typed records per
// protocol; a tagged dynamic value gives the same expressive power in a
// single C++ type, and lets the codec account for wire bytes uniformly
// (paper §6 stresses that streams need not be byte streams: "streams of
// arbitrary records fit into the protocol just as well").
#ifndef SRC_EDEN_VALUE_H_
#define SRC_EDEN_VALUE_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "src/eden/uid.h"

namespace eden {

class Value;

using ValueList = std::vector<Value>;
// Ordered map keeps encoding canonical (checkpoint hashes are stable). The
// transparent comparator looks keys up by string_view, building no string.
using ValueMap = std::map<std::string, Value, std::less<>>;
using Bytes = std::vector<uint8_t>;

class Value {
 public:
  enum class Kind { kNil, kBool, kInt, kReal, kStr, kBytes, kUid, kList, kMap };

  Value() : rep_(std::monostate{}) {}
  Value(bool b) : rep_(b) {}                 // NOLINT(google-explicit-constructor)
  Value(int64_t i) : rep_(i) {}              // NOLINT(google-explicit-constructor)
  Value(int i) : rep_(int64_t{i}) {}         // NOLINT(google-explicit-constructor)
  Value(uint64_t i) : rep_(static_cast<int64_t>(i)) {}  // NOLINT
  Value(double d) : rep_(d) {}               // NOLINT(google-explicit-constructor)
  Value(const char* s) : rep_(std::string(s)) {}  // NOLINT
  Value(std::string s) : rep_(std::move(s)) {}    // NOLINT
  Value(std::string_view s) : rep_(std::string(s)) {}  // NOLINT
  Value(Bytes b) : rep_(std::move(b)) {}     // NOLINT(google-explicit-constructor)
  Value(Uid u) : rep_(u) {}                  // NOLINT(google-explicit-constructor)
  Value(ValueList l) : rep_(std::move(l)) {}  // NOLINT
  Value(ValueMap m) : rep_(std::move(m)) {}   // NOLINT

  static Value Nil() { return Value(); }
  static Value List(std::initializer_list<Value> items) {
    return Value(ValueList(items));
  }
  static Value Map(std::initializer_list<std::pair<const std::string, Value>> kv) {
    return Value(ValueMap(kv));
  }

  Kind kind() const { return static_cast<Kind>(rep_.index()); }
  bool is_nil() const { return kind() == Kind::kNil; }
  bool is_bool() const { return kind() == Kind::kBool; }
  bool is_int() const { return kind() == Kind::kInt; }
  bool is_real() const { return kind() == Kind::kReal; }
  bool is_str() const { return kind() == Kind::kStr; }
  bool is_bytes() const { return kind() == Kind::kBytes; }
  bool is_uid() const { return kind() == Kind::kUid; }
  bool is_list() const { return kind() == Kind::kList; }
  bool is_map() const { return kind() == Kind::kMap; }

  // Checked accessors: return nullopt / nullptr on kind mismatch.
  std::optional<bool> AsBool() const;
  std::optional<int64_t> AsInt() const;
  std::optional<double> AsReal() const;  // accepts int too
  const std::string* AsStr() const;
  const Bytes* AsBytes() const;
  std::optional<Uid> AsUid() const;
  const ValueList* AsList() const;
  ValueList* AsList();
  const ValueMap* AsMap() const;
  ValueMap* AsMap();

  // Unchecked-with-default accessors for terse call sites.
  bool BoolOr(bool fallback) const { return AsBool().value_or(fallback); }
  int64_t IntOr(int64_t fallback) const { return AsInt().value_or(fallback); }
  std::string StrOr(std::string_view fallback) const {
    const std::string* s = AsStr();
    return s ? *s : std::string(fallback);
  }
  Uid UidOr(Uid fallback) const { return AsUid().value_or(fallback); }

  // Map field access; returns nil Value if absent or not a map.
  const Value& Field(std::string_view key) const;
  bool HasField(std::string_view key) const;
  // Sets a field, converting *this to a map if nil. Returns *this.
  Value& Set(std::string key, Value v);

  // List helpers.
  size_t Size() const;  // list/map size, string length; 0 otherwise
  void Append(Value v);

  // Structural equality.
  friend bool operator==(const Value& a, const Value& b) { return a.rep_ == b.rep_; }
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }

  // Debug rendering (JSON-flavoured, UIDs as "eden:..." strings).
  std::string ToString() const;

 private:
  using Rep = std::variant<std::monostate, bool, int64_t, double, std::string, Bytes,
                           Uid, ValueList, ValueMap>;
  Rep rep_;

  friend class Codec;
};

}  // namespace eden

#endif  // SRC_EDEN_VALUE_H_
