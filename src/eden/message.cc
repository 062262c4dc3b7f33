#include "src/eden/message.h"

#include <type_traits>

#include "src/eden/codec.h"

namespace eden {
namespace {

// One entry of the record's map: the key, then a value of `value_size` bytes.
size_t Field(std::string_view key, size_t value_size) {
  return Codec::MapEntrySize(key, value_size);
}

size_t OptionalInt(std::string_view key, const std::optional<uint64_t>& v) {
  return v ? Field(key, Codec::kIntSize) : 0;
}

}  // namespace

size_t TransferArgs::EncodedSize() const {
  size_t fields = 2 + (seq ? 1 : 0) + (ack ? 1 : 0);
  return Codec::MapHeaderSize(fields) + Field(kFieldChannel, Codec::EncodedSize(channel)) +
         Field(kFieldMax, Codec::kIntSize) + OptionalInt(kFieldSeq, seq) +
         OptionalInt(kFieldAck, ack);
}

size_t PushArgs::EncodedSize() const {
  bool banded = band != Band::kData;
  size_t fields = 3 + (banded ? 1 : 0) + (seq ? 1 : 0);
  return Codec::MapHeaderSize(fields) + Field(kFieldChannel, Codec::EncodedSize(channel)) +
         Field(kFieldItems, Codec::EncodedSize(items)) + Field(kFieldEnd, Codec::kBoolSize) +
         (banded ? Field(kFieldBand, Codec::kIntSize) : 0) + OptionalInt(kFieldSeq, seq);
}

size_t BatchReply::EncodedSize() const {
  size_t fields = 2 + (seq ? 1 : 0);
  return Codec::MapHeaderSize(fields) + Field(kFieldItems, Codec::EncodedSize(items)) +
         Field(kFieldEnd, Codec::kBoolSize) + OptionalInt(kFieldSeq, seq);
}

size_t PushAck::EncodedSize() const {
  size_t fields = (ack ? 1 : 0) + (next ? 1 : 0);
  if (fields == 0) {
    return Codec::EncodedSize(Value());
  }
  return Codec::MapHeaderSize(fields) + OptionalInt(kFieldAck, ack) +
         OptionalInt(kFieldNext, next);
}

size_t EncodedSize(const Body& body) {
  return std::visit(
      [](const auto& record) -> size_t {
        if constexpr (std::is_same_v<std::decay_t<decltype(record)>, Value>) {
          return Codec::EncodedSize(record);
        } else {
          return record.EncodedSize();
        }
      },
      body);
}

const Value& BodyValue(const Body& body) {
  static const Value kNil;
  const Value* value = std::get_if<Value>(&body);
  return value != nullptr ? *value : kNil;
}

}  // namespace eden
