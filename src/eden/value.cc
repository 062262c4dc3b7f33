#include "src/eden/value.h"

#include <cstdio>

namespace eden {
namespace {

const Value& NilValue() {
  static const Value kNil;
  return kNil;
}

void AppendEscaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  out += '"';
}

}  // namespace

std::optional<bool> Value::AsBool() const {
  if (const bool* b = std::get_if<bool>(&rep_)) {
    return *b;
  }
  return std::nullopt;
}

std::optional<int64_t> Value::AsInt() const {
  if (const int64_t* i = std::get_if<int64_t>(&rep_)) {
    return *i;
  }
  return std::nullopt;
}

std::optional<double> Value::AsReal() const {
  if (const double* d = std::get_if<double>(&rep_)) {
    return *d;
  }
  if (const int64_t* i = std::get_if<int64_t>(&rep_)) {
    return static_cast<double>(*i);
  }
  return std::nullopt;
}

const std::string* Value::AsStr() const { return std::get_if<std::string>(&rep_); }

const Bytes* Value::AsBytes() const { return std::get_if<Bytes>(&rep_); }

std::optional<Uid> Value::AsUid() const {
  if (const Uid* u = std::get_if<Uid>(&rep_)) {
    return *u;
  }
  return std::nullopt;
}

const ValueList* Value::AsList() const { return std::get_if<ValueList>(&rep_); }
ValueList* Value::AsList() { return std::get_if<ValueList>(&rep_); }
const ValueMap* Value::AsMap() const { return std::get_if<ValueMap>(&rep_); }
ValueMap* Value::AsMap() { return std::get_if<ValueMap>(&rep_); }

const Value& Value::Field(std::string_view key) const {
  if (const ValueMap* m = AsMap()) {
    auto it = m->find(key);
    if (it != m->end()) {
      return it->second;
    }
  }
  return NilValue();
}

bool Value::HasField(std::string_view key) const {
  const ValueMap* m = AsMap();
  return m != nullptr && m->count(key) > 0;
}

Value& Value::Set(std::string key, Value v) {
  if (is_nil()) {
    rep_ = ValueMap{};
  }
  ValueMap* m = AsMap();
  if (m != nullptr) {
    (*m)[std::move(key)] = std::move(v);
  }
  return *this;
}

size_t Value::Size() const {
  if (const ValueList* l = AsList()) {
    return l->size();
  }
  if (const ValueMap* m = AsMap()) {
    return m->size();
  }
  if (const std::string* s = AsStr()) {
    return s->size();
  }
  if (const Bytes* b = AsBytes()) {
    return b->size();
  }
  return 0;
}

void Value::Append(Value v) {
  if (is_nil()) {
    rep_ = ValueList{};
  }
  if (ValueList* l = AsList()) {
    l->push_back(std::move(v));
  }
}

std::string Value::ToString() const {
  std::string out;
  switch (kind()) {
    case Kind::kNil:
      out = "nil";
      break;
    case Kind::kBool:
      out = *AsBool() ? "true" : "false";
      break;
    case Kind::kInt: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%lld",
                    static_cast<long long>(*AsInt()));
      out = buf;
      break;
    }
    case Kind::kReal: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%g", *AsReal());
      out = buf;
      break;
    }
    case Kind::kStr:
      AppendEscaped(out, *AsStr());
      break;
    case Kind::kBytes: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "bytes[%zu]", AsBytes()->size());
      out = buf;
      break;
    }
    case Kind::kUid:
      out = AsUid()->ToString();
      break;
    case Kind::kList: {
      out = "[";
      bool first = true;
      for (const Value& v : *AsList()) {
        if (!first) {
          out += ", ";
        }
        first = false;
        out += v.ToString();
      }
      out += "]";
      break;
    }
    case Kind::kMap: {
      out = "{";
      bool first = true;
      for (const auto& [k, v] : *AsMap()) {
        if (!first) {
          out += ", ";
        }
        first = false;
        AppendEscaped(out, k);
        out += ": ";
        out += v.ToString();
      }
      out += "}";
      break;
    }
  }
  return out;
}

}  // namespace eden
