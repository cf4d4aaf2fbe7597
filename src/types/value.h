#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "types/oid.h"

namespace mood {

/// The six basic types of the MOOD data model (Section 2 / 3.1 of the paper).
enum class BasicType : uint8_t {
  kInteger = 0,      // 32-bit signed
  kFloat = 1,        // double precision
  kLongInteger = 2,  // 64-bit signed
  kString = 3,
  kChar = 4,
  kBoolean = 5,
};

std::string_view BasicTypeName(BasicType t);

/// Runtime value tag: the basic types plus the four type constructors
/// (Tuple, Set, List, Reference) and null.
enum class ValueKind : uint8_t {
  kNull = 0,
  kInteger = 1,
  kFloat = 2,
  kLongInteger = 3,
  kString = 4,
  kChar = 5,
  kBoolean = 6,
  kTuple = 7,
  kSet = 8,
  kList = 9,
  kReference = 10,
};

std::string_view ValueKindName(ValueKind k);

/// A runtime MOOD value. Complex values nest arbitrarily through the Tuple, Set,
/// List and Reference constructors (recursive application, Section 2). Values have
/// copy semantics; objects are values stored in an extent and addressed by Oid.
class MoodValue {
 public:
  using ValueList = std::vector<MoodValue>;

  MoodValue() : kind_(ValueKind::kNull) {}

  static MoodValue Null() { return MoodValue(); }
  static MoodValue Integer(int32_t v);
  static MoodValue Float(double v);
  static MoodValue LongInteger(int64_t v);
  static MoodValue String(std::string v);
  static MoodValue Char(char v);
  static MoodValue Boolean(bool v);
  static MoodValue Tuple(ValueList fields);
  static MoodValue Set(ValueList elems);   // deduplicates (structural equality)
  static MoodValue List(ValueList elems);
  static MoodValue Reference(Oid oid);

  ValueKind kind() const { return kind_; }
  bool is_null() const { return kind_ == ValueKind::kNull; }
  bool IsCollection() const { return kind_ == ValueKind::kSet || kind_ == ValueKind::kList; }
  bool IsNumeric() const {
    return kind_ == ValueKind::kInteger || kind_ == ValueKind::kFloat ||
           kind_ == ValueKind::kLongInteger;
  }

  int32_t AsInteger() const { return std::get<int32_t>(scalar_); }
  double AsFloat() const { return std::get<double>(scalar_); }
  int64_t AsLongInteger() const { return std::get<int64_t>(scalar_); }
  const std::string& AsString() const { return *std::get<std::shared_ptr<std::string>>(scalar_); }
  char AsChar() const { return std::get<char>(scalar_); }
  bool AsBoolean() const { return std::get<bool>(scalar_); }
  Oid AsReference() const { return std::get<Oid>(scalar_); }

  /// Numeric value widened to double (Integer/LongInteger/Float only).
  Result<double> ToDouble() const;
  /// Numeric value as int64 (Integer/LongInteger only).
  Result<int64_t> ToInt64() const;

  const ValueList& elements() const { return *children_; }

  /// Mutable element access with copy-on-write so values keep copy semantics even
  /// though unmutated copies share structure.
  ValueList& mutable_elements() {
    if (!children_) children_ = std::make_shared<ValueList>();
    if (children_.use_count() > 1) children_ = std::make_shared<ValueList>(*children_);
    return *children_;
  }
  size_t size() const { return children_ ? children_->size() : 0; }

  /// Tuple field access by position.
  Result<const MoodValue*> Field(size_t idx) const;

  /// Structural (deep-by-value) equality; references compare by Oid.
  bool Equals(const MoodValue& other) const;

  /// Three-way comparison for scalars with numeric promotion. Collections compare
  /// lexicographically; errors on incomparable kinds (e.g. Set vs Integer).
  Result<int> Compare(const MoodValue& other) const;

  /// Stable hash consistent with Equals (used by hash joins / DupElim).
  uint64_t Hash() const;

  /// Binary serialization (storage format for objects and index keys).
  void EncodeTo(std::string* dst) const;
  static Result<MoodValue> Decode(Slice* input);
  static Result<MoodValue> DecodeAll(Slice input);
  /// Advances `input` past one encoded value without building it: consumes
  /// exactly the bytes Decode would and allocates nothing. A truncated
  /// encoding or an unknown kind tag is Corruption; no byte past the slice
  /// is read.
  static Status Skip(Slice* input);

  /// Display form, e.g. <id: 3, refs: {oid(1:2:0)}>.
  std::string ToString() const;

 private:
  using Scalar =
      std::variant<std::monostate, int32_t, double, int64_t,
                   std::shared_ptr<std::string>, char, bool, Oid>;

  ValueKind kind_;
  Scalar scalar_;
  std::shared_ptr<ValueList> children_;  // tuple/set/list
};

}  // namespace mood
