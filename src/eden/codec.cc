#include "src/eden/codec.h"

#include <cstring>

namespace eden {
namespace {

constexpr uint8_t kTagNil = 0x00;
constexpr uint8_t kTagFalse = 0x01;
constexpr uint8_t kTagTrue = 0x02;
constexpr uint8_t kTagInt = 0x03;
constexpr uint8_t kTagReal = 0x04;
constexpr uint8_t kTagStr = 0x05;
constexpr uint8_t kTagBytes = 0x06;
constexpr uint8_t kTagUid = 0x07;
constexpr uint8_t kTagList = 0x08;
constexpr uint8_t kTagMap = 0x09;

constexpr int kMaxDepth = 64;

void PutVarint(uint64_t v, Bytes& out) {
  while (v >= 0x80) {
    out.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<uint8_t>(v));
}

bool GetVarint(const uint8_t*& p, const uint8_t* end, uint64_t& out) {
  uint64_t v = 0;
  int shift = 0;
  while (p < end && shift <= 63) {
    uint8_t b = *p++;
    v |= static_cast<uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) {
      out = v;
      return true;
    }
    shift += 7;
  }
  return false;
}

void PutU64(uint64_t v, Bytes& out) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

bool GetU64(const uint8_t*& p, const uint8_t* end, uint64_t& out) {
  if (end - p < 8) {
    return false;
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(p[i]) << (8 * i);
  }
  p += 8;
  out = v;
  return true;
}

}  // namespace

void Codec::EncodeInto(const Value& value, Bytes& out) {
  switch (value.kind()) {
    case Value::Kind::kNil:
      out.push_back(kTagNil);
      break;
    case Value::Kind::kBool:
      out.push_back(*value.AsBool() ? kTagTrue : kTagFalse);
      break;
    case Value::Kind::kInt: {
      out.push_back(kTagInt);
      PutU64(static_cast<uint64_t>(*value.AsInt()), out);
      break;
    }
    case Value::Kind::kReal: {
      out.push_back(kTagReal);
      double d = *value.AsReal();
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      PutU64(bits, out);
      break;
    }
    case Value::Kind::kStr: {
      const std::string& s = *value.AsStr();
      out.push_back(kTagStr);
      PutVarint(s.size(), out);
      out.insert(out.end(), s.begin(), s.end());
      break;
    }
    case Value::Kind::kBytes: {
      const Bytes& b = *value.AsBytes();
      out.push_back(kTagBytes);
      PutVarint(b.size(), out);
      out.insert(out.end(), b.begin(), b.end());
      break;
    }
    case Value::Kind::kUid: {
      out.push_back(kTagUid);
      Uid u = *value.AsUid();
      PutU64(u.hi(), out);
      PutU64(u.lo(), out);
      break;
    }
    case Value::Kind::kList: {
      const ValueList& l = *value.AsList();
      out.push_back(kTagList);
      PutVarint(l.size(), out);
      for (const Value& v : l) {
        EncodeInto(v, out);
      }
      break;
    }
    case Value::Kind::kMap: {
      const ValueMap& m = *value.AsMap();
      out.push_back(kTagMap);
      PutVarint(m.size(), out);
      for (const auto& [k, v] : m) {  // std::map iterates key-sorted: canonical
        PutVarint(k.size(), out);
        out.insert(out.end(), k.begin(), k.end());
        EncodeInto(v, out);
      }
      break;
    }
  }
}

size_t Codec::VarintSize(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

Bytes Codec::Encode(const Value& value) {
  Bytes out;
  out.reserve(EncodedSize(value));
  EncodeInto(value, out);
  return out;
}

size_t Codec::EncodedSize(const Value& value) {
  switch (value.kind()) {
    case Value::Kind::kNil:
    case Value::Kind::kBool:
      return kBoolSize;
    case Value::Kind::kInt:
    case Value::Kind::kReal:
      return kIntSize;
    case Value::Kind::kStr: {
      size_t n = value.AsStr()->size();
      return 1 + VarintSize(n) + n;
    }
    case Value::Kind::kBytes: {
      size_t n = value.AsBytes()->size();
      return 1 + VarintSize(n) + n;
    }
    case Value::Kind::kUid:
      return 17;
    case Value::Kind::kList:
      return EncodedSize(*value.AsList());
    case Value::Kind::kMap: {
      const ValueMap& m = *value.AsMap();
      size_t n = MapHeaderSize(m.size());
      for (const auto& [k, v] : m) {
        n += MapEntrySize(k, EncodedSize(v));
      }
      return n;
    }
  }
  return 0;
}

size_t Codec::MapHeaderSize(size_t entries) { return 1 + VarintSize(entries); }

size_t Codec::MapEntrySize(std::string_view key, size_t value_size) {
  return VarintSize(key.size()) + key.size() + value_size;
}

size_t Codec::EncodedSize(const ValueList& list) {
  size_t n = 1 + VarintSize(list.size());
  for (const Value& v : list) {
    n += EncodedSize(v);
  }
  return n;
}

bool Codec::DecodeOne(const uint8_t*& p, const uint8_t* end, Value& out, int depth) {
  if (p >= end || depth > kMaxDepth) {
    return false;
  }
  uint8_t tag = *p++;
  switch (tag) {
    case kTagNil:
      out = Value();
      return true;
    case kTagFalse:
      out = Value(false);
      return true;
    case kTagTrue:
      out = Value(true);
      return true;
    case kTagInt: {
      uint64_t v;
      if (!GetU64(p, end, v)) {
        return false;
      }
      out = Value(static_cast<int64_t>(v));
      return true;
    }
    case kTagReal: {
      uint64_t bits;
      if (!GetU64(p, end, bits)) {
        return false;
      }
      double d;
      std::memcpy(&d, &bits, sizeof(d));
      out = Value(d);
      return true;
    }
    case kTagStr: {
      uint64_t n;
      if (!GetVarint(p, end, n) || static_cast<uint64_t>(end - p) < n) {
        return false;
      }
      out = Value(std::string(reinterpret_cast<const char*>(p), n));
      p += n;
      return true;
    }
    case kTagBytes: {
      uint64_t n;
      if (!GetVarint(p, end, n) || static_cast<uint64_t>(end - p) < n) {
        return false;
      }
      out = Value(Bytes(p, p + n));
      p += n;
      return true;
    }
    case kTagUid: {
      uint64_t hi, lo;
      if (!GetU64(p, end, hi) || !GetU64(p, end, lo)) {
        return false;
      }
      out = Value(Uid(hi, lo));
      return true;
    }
    case kTagList: {
      uint64_t n;
      if (!GetVarint(p, end, n)) {
        return false;
      }
      ValueList l;
      l.reserve(std::min<uint64_t>(n, 4096));
      for (uint64_t i = 0; i < n; ++i) {
        Value v;
        if (!DecodeOne(p, end, v, depth + 1)) {
          return false;
        }
        l.push_back(std::move(v));
      }
      out = Value(std::move(l));
      return true;
    }
    case kTagMap: {
      uint64_t n;
      if (!GetVarint(p, end, n)) {
        return false;
      }
      ValueMap m;
      for (uint64_t i = 0; i < n; ++i) {
        uint64_t klen;
        if (!GetVarint(p, end, klen) || static_cast<uint64_t>(end - p) < klen) {
          return false;
        }
        std::string key(reinterpret_cast<const char*>(p), klen);
        p += klen;
        Value v;
        if (!DecodeOne(p, end, v, depth + 1)) {
          return false;
        }
        m.emplace(std::move(key), std::move(v));
      }
      out = Value(std::move(m));
      return true;
    }
    default:
      return false;
  }
}

std::optional<Value> Codec::Decode(const Bytes& data) {
  const uint8_t* p = data.data();
  const uint8_t* end = p + data.size();
  Value v;
  if (!DecodeOne(p, end, v, 0) || p != end) {
    return std::nullopt;
  }
  return v;
}

}  // namespace eden
