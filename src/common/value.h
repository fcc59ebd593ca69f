// Dynamically typed cell values and column types for the relational layer.
// These mirror the Hive primitive types used by the paper's workloads:
// BIGINT, DOUBLE, STRING, BOOLEAN, and DATE (days since epoch).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "common/slice.h"
#include "common/status.h"

namespace dtl {

/// Column data types supported by the engine.
enum class DataType : uint8_t {
  kNull = 0,
  kInt64 = 1,
  kDouble = 2,
  kString = 3,
  kBool = 4,
  kDate = 5,  // days since 1970-01-01, stored as int32 range in an int64
};

const char* DataTypeName(DataType t);

/// Parses a type name as written in DDL ("bigint", "double", "string",
/// "boolean", "date"; Hive aliases "int" and "varchar" are accepted).
Result<DataType> ParseDataType(const std::string& name);

/// One dynamically typed cell. Null is represented by the monostate
/// alternative regardless of the column's declared type.
class Value {
 public:
  Value() : rep_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Int64(int64_t v) { return Value(Rep(std::in_place_index<1>, v)); }
  static Value Double(double v) { return Value(Rep(std::in_place_index<2>, v)); }
  static Value String(std::string v) {
    return Value(Rep(std::in_place_index<3>, std::move(v)));
  }
  static Value Bool(bool v) { return Value(Rep(std::in_place_index<4>, v)); }
  /// Dates share the int64 representation; the schema supplies the type.
  static Value Date(int64_t days) { return Int64(days); }

  bool is_null() const { return rep_.index() == 0; }
  bool is_int64() const { return rep_.index() == 1; }
  bool is_double() const { return rep_.index() == 2; }
  bool is_string() const { return rep_.index() == 3; }
  bool is_bool() const { return rep_.index() == 4; }

  int64_t AsInt64() const { return std::get<1>(rep_); }
  double AsDouble() const { return std::get<2>(rep_); }
  const std::string& AsString() const { return std::get<3>(rep_); }
  bool AsBool() const { return std::get<4>(rep_); }

  /// Sets this value to String(s), reusing the buffer of the string it holds,
  /// if any: a row consumer refills one reused Row per cell.
  void AssignString(std::string_view s);

  /// Numeric view: int64 and double coerce; everything else is an error.
  Result<double> ToNumeric() const;

  /// Total order across values of the same kind; nulls sort first; numeric
  /// kinds compare numerically across int64/double.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Human-readable rendering ("NULL", "42", "3.14", "abc", "true").
  std::string ToString() const;

  /// Compact binary serialization: [tag:1][payload]; strings are
  /// length-prefixed. Used by the attached table and the shuffle layer.
  void EncodeTo(std::string* dst) const;
  static Status DecodeFrom(Slice* input, Value* out);

  /// One EncodeTo form read in place: its kind (kNull, kInt64, kDouble,
  /// kString or kBool) and payload, with a string's bytes pointing into the
  /// input. Typed column storage takes a cell through this without building
  /// a Value; DecodeFrom reads through it.
  struct Encoded {
    DataType kind = DataType::kNull;
    int64_t int64 = 0;
    double dbl = 0;
    bool boolean = false;
    Slice bytes;
  };
  static Status DecodeEncoded(Slice* input, Encoded* out);

  /// Room for a tag byte and one varint: the whole EncodeTo form of an int64,
  /// and the part of a string's that precedes its bytes.
  static constexpr size_t kMaxEncodedHeaderBytes = 11;

  /// EncodeTo's bytes for Int64(v), and for String(s) the tag and length that
  /// precede s, written at dst; each returns the byte past what it wrote.
  /// Callers keyed by encoded bytes (stripe bloom filters) hash typed values
  /// through these without building a Value; EncodeTo writes through them.
  static char* EncodeInt64(int64_t v, char* dst);
  static char* EncodeStringHeader(size_t size, char* dst);

  /// Approximate in-memory size in bytes, for cost accounting.
  size_t ByteSize() const;

  size_t HashCode() const;

 private:
  using Rep = std::variant<std::monostate, int64_t, double, std::string, bool>;
  explicit Value(Rep rep) : rep_(std::move(rep)) {}
  Rep rep_;
};

}  // namespace dtl
