// Canonical binary encoding of Values.
//
// Two uses, matching the two places the Eden prototype serialized data:
//  * Passive representations: Checkpoint writes the encoding to the
//    StableStore (paper §1: "a data structure designed to be durable across
//    system crashes").
//  * Wire accounting: the kernel charges per-byte message cost using
//    EncodedSize, so the cost model sees the same sizes a real message
//    system would.
//
// Format (tag byte, then payload, all integers little-endian):
//   0x00 nil | 0x01 false | 0x02 true | 0x03 int64 | 0x04 double
//   0x05 str  (varint len + bytes)     | 0x06 bytes (varint len + bytes)
//   0x07 uid  (hi, lo)                 | 0x08 list  (varint count + items)
//   0x09 map  (varint count + (str key, value) pairs, key-sorted)
#ifndef SRC_EDEN_CODEC_H_
#define SRC_EDEN_CODEC_H_

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "src/eden/value.h"

namespace eden {

class Codec {
 public:
  static Bytes Encode(const Value& value);
  static void EncodeInto(const Value& value, Bytes& out);

  // Returns nullopt on malformed or trailing input.
  static std::optional<Value> Decode(const Bytes& data);

  // Size of Encode(value) without materializing it.
  static size_t EncodedSize(const Value& value);
  // Size of a list's encoding (tag, count, items).
  static size_t EncodedSize(const ValueList& list);

  // The map encoding's parts, for a record charged as the map it stands for
  // (src/eden/message.h): the tag and entry count, and one entry whose value
  // encodes in `value_size` bytes.
  static size_t MapHeaderSize(size_t entries);
  static size_t MapEntrySize(std::string_view key, size_t value_size);
  static constexpr size_t kBoolSize = 1;
  static constexpr size_t kIntSize = 9;

 private:
  static size_t VarintSize(uint64_t v);
  static bool DecodeOne(const uint8_t*& p, const uint8_t* end, Value& out, int depth);
};

}  // namespace eden

#endif  // SRC_EDEN_CODEC_H_
