#include "types/value.h"

#include <algorithm>
#include <cmath>

#include "common/coding.h"
#include "common/hash.h"

namespace mood {

std::string_view BasicTypeName(BasicType t) {
  switch (t) {
    case BasicType::kInteger: return "Integer";
    case BasicType::kFloat: return "Float";
    case BasicType::kLongInteger: return "LongInteger";
    case BasicType::kString: return "String";
    case BasicType::kChar: return "Char";
    case BasicType::kBoolean: return "Boolean";
  }
  return "?";
}

std::string_view ValueKindName(ValueKind k) {
  switch (k) {
    case ValueKind::kNull: return "Null";
    case ValueKind::kInteger: return "Integer";
    case ValueKind::kFloat: return "Float";
    case ValueKind::kLongInteger: return "LongInteger";
    case ValueKind::kString: return "String";
    case ValueKind::kChar: return "Char";
    case ValueKind::kBoolean: return "Boolean";
    case ValueKind::kTuple: return "Tuple";
    case ValueKind::kSet: return "Set";
    case ValueKind::kList: return "List";
    case ValueKind::kReference: return "Reference";
  }
  return "?";
}

MoodValue MoodValue::Integer(int32_t v) {
  MoodValue m;
  m.kind_ = ValueKind::kInteger;
  m.scalar_ = v;
  return m;
}
MoodValue MoodValue::Float(double v) {
  MoodValue m;
  m.kind_ = ValueKind::kFloat;
  m.scalar_ = v;
  return m;
}
MoodValue MoodValue::LongInteger(int64_t v) {
  MoodValue m;
  m.kind_ = ValueKind::kLongInteger;
  m.scalar_ = v;
  return m;
}
MoodValue MoodValue::String(std::string v) {
  MoodValue m;
  m.kind_ = ValueKind::kString;
  m.scalar_ = std::make_shared<std::string>(std::move(v));
  return m;
}
MoodValue MoodValue::Char(char v) {
  MoodValue m;
  m.kind_ = ValueKind::kChar;
  m.scalar_ = v;
  return m;
}
MoodValue MoodValue::Boolean(bool v) {
  MoodValue m;
  m.kind_ = ValueKind::kBoolean;
  m.scalar_ = v;
  return m;
}
MoodValue MoodValue::Tuple(ValueList fields) {
  MoodValue m;
  m.kind_ = ValueKind::kTuple;
  m.children_ = std::make_shared<ValueList>(std::move(fields));
  return m;
}
MoodValue MoodValue::Set(ValueList elems) {
  MoodValue m;
  m.kind_ = ValueKind::kSet;
  ValueList dedup;
  for (auto& e : elems) {
    bool found = false;
    for (const auto& d : dedup) {
      if (d.Equals(e)) {
        found = true;
        break;
      }
    }
    if (!found) dedup.push_back(std::move(e));
  }
  m.children_ = std::make_shared<ValueList>(std::move(dedup));
  return m;
}
MoodValue MoodValue::List(ValueList elems) {
  MoodValue m;
  m.kind_ = ValueKind::kList;
  m.children_ = std::make_shared<ValueList>(std::move(elems));
  return m;
}
MoodValue MoodValue::Reference(Oid oid) {
  MoodValue m;
  m.kind_ = ValueKind::kReference;
  m.scalar_ = oid;
  return m;
}

Result<double> MoodValue::ToDouble() const {
  switch (kind_) {
    case ValueKind::kInteger: return static_cast<double>(AsInteger());
    case ValueKind::kLongInteger: return static_cast<double>(AsLongInteger());
    case ValueKind::kFloat: return AsFloat();
    case ValueKind::kChar: return static_cast<double>(AsChar());
    case ValueKind::kBoolean: return AsBoolean() ? 1.0 : 0.0;
    default:
      return Status::TypeError(std::string("cannot convert ") +
                               std::string(ValueKindName(kind_)) + " to Float");
  }
}

Result<int64_t> MoodValue::ToInt64() const {
  switch (kind_) {
    case ValueKind::kInteger: return static_cast<int64_t>(AsInteger());
    case ValueKind::kLongInteger: return AsLongInteger();
    case ValueKind::kChar: return static_cast<int64_t>(AsChar());
    case ValueKind::kBoolean: return AsBoolean() ? int64_t{1} : int64_t{0};
    default:
      return Status::TypeError(std::string("cannot convert ") +
                               std::string(ValueKindName(kind_)) + " to LongInteger");
  }
}

Result<const MoodValue*> MoodValue::Field(size_t idx) const {
  if (kind_ != ValueKind::kTuple) return Status::TypeError("Field() on non-tuple value");
  if (!children_ || idx >= children_->size()) {
    return Status::InvalidArgument("tuple field index out of range");
  }
  return &(*children_)[idx];
}

bool MoodValue::Equals(const MoodValue& other) const {
  if (kind_ != other.kind_) {
    // Numeric cross-kind equality (2 == 2.0) to match the interpreter semantics.
    if (IsNumeric() && other.IsNumeric()) {
      auto a = ToDouble();
      auto b = other.ToDouble();
      return a.ok() && b.ok() && a.value() == b.value();
    }
    return false;
  }
  switch (kind_) {
    case ValueKind::kNull: return true;
    case ValueKind::kInteger: return AsInteger() == other.AsInteger();
    case ValueKind::kFloat: return AsFloat() == other.AsFloat();
    case ValueKind::kLongInteger: return AsLongInteger() == other.AsLongInteger();
    case ValueKind::kString: return AsString() == other.AsString();
    case ValueKind::kChar: return AsChar() == other.AsChar();
    case ValueKind::kBoolean: return AsBoolean() == other.AsBoolean();
    case ValueKind::kReference: return AsReference() == other.AsReference();
    case ValueKind::kTuple:
    case ValueKind::kList: {
      if (size() != other.size()) return false;
      for (size_t i = 0; i < size(); i++) {
        if (!(*children_)[i].Equals((*other.children_)[i])) return false;
      }
      return true;
    }
    case ValueKind::kSet: {
      if (size() != other.size()) return false;
      for (const auto& e : *children_) {
        bool found = false;
        for (const auto& f : *other.children_) {
          if (e.Equals(f)) {
            found = true;
            break;
          }
        }
        if (!found) return false;
      }
      return true;
    }
  }
  return false;
}

Result<int> MoodValue::Compare(const MoodValue& other) const {
  if (IsNumeric() && other.IsNumeric()) {
    MOOD_ASSIGN_OR_RETURN(double a, ToDouble());
    MOOD_ASSIGN_OR_RETURN(double b, other.ToDouble());
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (kind_ != other.kind_) {
    return Status::TypeError(std::string("cannot compare ") +
                             std::string(ValueKindName(kind_)) + " with " +
                             std::string(ValueKindName(other.kind_)));
  }
  switch (kind_) {
    case ValueKind::kNull: return 0;
    case ValueKind::kString: {
      int c = AsString().compare(other.AsString());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case ValueKind::kChar:
      return AsChar() < other.AsChar() ? -1 : (AsChar() > other.AsChar() ? 1 : 0);
    case ValueKind::kBoolean:
      return AsBoolean() == other.AsBoolean() ? 0 : (AsBoolean() ? 1 : -1);
    case ValueKind::kReference: {
      uint64_t a = AsReference().Pack(), b = other.AsReference().Pack();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case ValueKind::kTuple:
    case ValueKind::kList:
    case ValueKind::kSet: {
      size_t n = std::min(size(), other.size());
      for (size_t i = 0; i < n; i++) {
        MOOD_ASSIGN_OR_RETURN(int c, (*children_)[i].Compare((*other.children_)[i]));
        if (c != 0) return c;
      }
      return size() < other.size() ? -1 : (size() > other.size() ? 1 : 0);
    }
    default:
      return Status::TypeError("incomparable values");
  }
}

uint64_t MoodValue::Hash() const {
  // Numerics hash via their double widening so that Hash is consistent with
  // Equals' cross-kind numeric equality.
  switch (kind_) {
    case ValueKind::kNull: return 0x9e3779b9;
    case ValueKind::kInteger:
    case ValueKind::kFloat:
    case ValueKind::kLongInteger: {
      double d = ToDouble().value();
      if (d == 0.0) d = 0.0;  // normalize -0.0
      return Hash64(&d, sizeof(d), 17);
    }
    case ValueKind::kString: return Hash64(AsString().data(), AsString().size(), 23);
    case ValueKind::kChar: {
      char c = AsChar();
      return Hash64(&c, 1, 29);
    }
    case ValueKind::kBoolean: return AsBoolean() ? 31 : 37;
    case ValueKind::kReference: {
      uint64_t p = AsReference().Pack();
      return Hash64(&p, sizeof(p), 41);
    }
    case ValueKind::kTuple:
    case ValueKind::kList: {
      uint64_t h = 43;
      for (const auto& e : *children_) h = h * 1000003 + e.Hash();
      return h;
    }
    case ValueKind::kSet: {
      uint64_t h = 47;  // order-independent combine
      for (const auto& e : *children_) h += e.Hash();
      return h;
    }
  }
  return 0;
}

void MoodValue::EncodeTo(std::string* dst) const {
  dst->push_back(static_cast<char>(kind_));
  switch (kind_) {
    case ValueKind::kNull: break;
    case ValueKind::kInteger: PutFixed32(dst, static_cast<uint32_t>(AsInteger())); break;
    case ValueKind::kFloat: PutDouble(dst, AsFloat()); break;
    case ValueKind::kLongInteger: PutFixed64(dst, static_cast<uint64_t>(AsLongInteger())); break;
    case ValueKind::kString: PutLengthPrefixedSlice(dst, AsString()); break;
    case ValueKind::kChar: dst->push_back(AsChar()); break;
    case ValueKind::kBoolean: dst->push_back(AsBoolean() ? 1 : 0); break;
    case ValueKind::kReference: PutFixed64(dst, AsReference().Pack()); break;
    case ValueKind::kTuple:
    case ValueKind::kSet:
    case ValueKind::kList: {
      PutFixed32(dst, static_cast<uint32_t>(size()));
      for (const auto& e : *children_) e.EncodeTo(dst);
      break;
    }
  }
}

Result<MoodValue> MoodValue::Decode(Slice* input) {
  if (input->empty()) return Status::Corruption("empty value encoding");
  auto kind = static_cast<ValueKind>((*input)[0]);
  input->remove_prefix(1);
  Decoder dec(*input);
  auto consume = [&](size_t before_remaining) {
    input->remove_prefix(before_remaining - dec.Remaining());
  };
  size_t start = dec.Remaining();
  switch (kind) {
    case ValueKind::kNull: return MoodValue::Null();
    case ValueKind::kInteger: {
      uint32_t v = 0;
      MOOD_RETURN_IF_ERROR(dec.GetFixed32(&v));
      consume(start);
      return MoodValue::Integer(static_cast<int32_t>(v));
    }
    case ValueKind::kFloat: {
      double v = 0;
      MOOD_RETURN_IF_ERROR(dec.GetDouble(&v));
      consume(start);
      return MoodValue::Float(v);
    }
    case ValueKind::kLongInteger: {
      uint64_t v = 0;
      MOOD_RETURN_IF_ERROR(dec.GetFixed64(&v));
      consume(start);
      return MoodValue::LongInteger(static_cast<int64_t>(v));
    }
    case ValueKind::kString: {
      std::string s;
      MOOD_RETURN_IF_ERROR(dec.GetString(&s));
      consume(start);
      return MoodValue::String(std::move(s));
    }
    case ValueKind::kChar: {
      if (input->empty()) return Status::Corruption("truncated char");
      char c = (*input)[0];
      input->remove_prefix(1);
      return MoodValue::Char(c);
    }
    case ValueKind::kBoolean: {
      if (input->empty()) return Status::Corruption("truncated bool");
      bool b = (*input)[0] != 0;
      input->remove_prefix(1);
      return MoodValue::Boolean(b);
    }
    case ValueKind::kReference: {
      uint64_t v = 0;
      MOOD_RETURN_IF_ERROR(dec.GetFixed64(&v));
      consume(start);
      return MoodValue::Reference(Oid::Unpack(v));
    }
    case ValueKind::kTuple:
    case ValueKind::kSet:
    case ValueKind::kList: {
      uint32_t n = 0;
      MOOD_RETURN_IF_ERROR(dec.GetFixed32(&n));
      consume(start);
      // Every element takes at least its tag byte: a larger count is corrupt
      // and must not size the reservation below.
      if (n > input->size()) return Status::Corruption("truncated collection");
      ValueList elems;
      elems.reserve(n);
      for (uint32_t i = 0; i < n; i++) {
        MOOD_ASSIGN_OR_RETURN(MoodValue v, Decode(input));
        elems.push_back(std::move(v));
      }
      if (kind == ValueKind::kTuple) return MoodValue::Tuple(std::move(elems));
      if (kind == ValueKind::kList) return MoodValue::List(std::move(elems));
      // Sets were deduplicated at encode time; rebuild preserving that.
      MoodValue m;
      m.kind_ = ValueKind::kSet;
      m.children_ = std::make_shared<ValueList>(std::move(elems));
      return m;
    }
  }
  return Status::Corruption("unknown value kind tag");
}

Status MoodValue::Skip(Slice* input) {
  // Encodings are prefix-ordered, so skipping one value is skipping headers
  // until no announced element is left: no recursion, no allocation.
  uint64_t pending = 1;
  while (pending > 0) {
    pending--;
    if (input->empty()) return Status::Corruption("truncated value encoding");
    auto kind = static_cast<ValueKind>((*input)[0]);
    input->remove_prefix(1);
    size_t width = 0;
    switch (kind) {
      case ValueKind::kNull: break;
      case ValueKind::kChar:
      case ValueKind::kBoolean: width = 1; break;
      case ValueKind::kInteger: width = 4; break;
      case ValueKind::kFloat:
      case ValueKind::kLongInteger:
      case ValueKind::kReference: width = 8; break;
      case ValueKind::kString:
        if (input->size() < 4) return Status::Corruption("truncated string length");
        width = 4 + static_cast<size_t>(DecodeFixed32(input->data()));
        break;
      case ValueKind::kTuple:
      case ValueKind::kSet:
      case ValueKind::kList:
        if (input->size() < 4) return Status::Corruption("truncated element count");
        pending += DecodeFixed32(input->data());
        width = 4;
        break;
      default:
        return Status::Corruption("unknown value kind tag");
    }
    if (input->size() < width) return Status::Corruption("truncated value encoding");
    input->remove_prefix(width);
  }
  return Status::OK();
}

Result<MoodValue> MoodValue::DecodeAll(Slice input) {
  MOOD_ASSIGN_OR_RETURN(MoodValue v, Decode(&input));
  if (!input.empty()) return Status::Corruption("trailing bytes after value");
  return v;
}

std::string MoodValue::ToString() const {
  switch (kind_) {
    case ValueKind::kNull: return "null";
    case ValueKind::kInteger: return std::to_string(AsInteger());
    case ValueKind::kFloat: {
      std::string s = std::to_string(AsFloat());
      return s;
    }
    case ValueKind::kLongInteger: return std::to_string(AsLongInteger()) + "L";
    case ValueKind::kString: return "'" + AsString() + "'";
    case ValueKind::kChar: return std::string("'") + AsChar() + "'";
    case ValueKind::kBoolean: return AsBoolean() ? "true" : "false";
    case ValueKind::kReference: return AsReference().ToString();
    case ValueKind::kTuple:
    case ValueKind::kSet:
    case ValueKind::kList: {
      const char* open = kind_ == ValueKind::kTuple ? "<" : (kind_ == ValueKind::kSet ? "{" : "[");
      const char* close = kind_ == ValueKind::kTuple ? ">" : (kind_ == ValueKind::kSet ? "}" : "]");
      std::string out(open);
      for (size_t i = 0; i < size(); i++) {
        if (i > 0) out += ", ";
        out += (*children_)[i].ToString();
      }
      out += close;
      return out;
    }
  }
  return "?";
}

}  // namespace mood
