#include "common/value.h"

#include <cstdio>
#include <functional>

#include "common/coding.h"

namespace dtl {

const char* DataTypeName(DataType t) {
  switch (t) {
    case DataType::kNull:
      return "null";
    case DataType::kInt64:
      return "bigint";
    case DataType::kDouble:
      return "double";
    case DataType::kString:
      return "string";
    case DataType::kBool:
      return "boolean";
    case DataType::kDate:
      return "date";
  }
  return "unknown";
}

Result<DataType> ParseDataType(const std::string& name) {
  std::string lower;
  lower.reserve(name.size());
  for (char c : name) lower.push_back(static_cast<char>(std::tolower(c)));
  if (lower == "bigint" || lower == "int" || lower == "integer" || lower == "tinyint" ||
      lower == "smallint") {
    return DataType::kInt64;
  }
  if (lower == "double" || lower == "float" || lower == "decimal") return DataType::kDouble;
  if (lower == "string" || lower == "varchar" || lower == "char") return DataType::kString;
  if (lower == "boolean" || lower == "bool") return DataType::kBool;
  if (lower == "date") return DataType::kDate;
  return Status::InvalidArgument("unknown type name: " + name);
}

Result<double> Value::ToNumeric() const {
  if (is_int64()) return static_cast<double>(AsInt64());
  if (is_double()) return AsDouble();
  if (is_bool()) return AsBool() ? 1.0 : 0.0;
  return Status::InvalidArgument("value is not numeric: " + ToString());
}

int Value::Compare(const Value& other) const {
  // Nulls first.
  if (is_null() || other.is_null()) {
    if (is_null() && other.is_null()) return 0;
    return is_null() ? -1 : 1;
  }
  // Cross-numeric comparison.
  const bool a_num = is_int64() || is_double();
  const bool b_num = other.is_int64() || other.is_double();
  if (a_num && b_num) {
    if (is_int64() && other.is_int64()) {
      int64_t a = AsInt64(), b = other.AsInt64();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    double a = is_int64() ? static_cast<double>(AsInt64()) : AsDouble();
    double b = other.is_int64() ? static_cast<double>(other.AsInt64()) : other.AsDouble();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  // Same-kind comparisons.
  if (rep_.index() != other.rep_.index()) {
    return rep_.index() < other.rep_.index() ? -1 : 1;
  }
  if (is_string()) return Slice(AsString()).Compare(Slice(other.AsString()));
  if (is_bool()) return static_cast<int>(AsBool()) - static_cast<int>(other.AsBool());
  return 0;
}

std::string Value::ToString() const {
  switch (rep_.index()) {
    case 0:
      return "NULL";
    case 1:
      return std::to_string(AsInt64());
    case 2: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g", AsDouble());
      return buf;
    }
    case 3:
      return AsString();
    case 4:
      return AsBool() ? "true" : "false";
  }
  return "?";
}

char* Value::EncodeInt64(int64_t v, char* dst) {
  *dst++ = 1;  // tag: the variant index
  return EncodeVarint64(dst, ZigZagEncode(v));
}

char* Value::EncodeStringHeader(size_t size, char* dst) {
  *dst++ = 3;  // tag: the variant index
  return EncodeVarint64(dst, size);
}

void Value::EncodeTo(std::string* dst) const {
  static_assert(std::is_same_v<std::variant_alternative_t<1, Rep>, int64_t> &&
                std::is_same_v<std::variant_alternative_t<3, Rep>, std::string>);
  char buf[kMaxEncodedHeaderBytes];
  switch (rep_.index()) {
    case 0:
      dst->push_back(0);
      break;
    case 1:
      dst->append(buf, static_cast<size_t>(EncodeInt64(AsInt64(), buf) - buf));
      break;
    case 2: {
      dst->push_back(2);
      uint64_t bits;
      double d = AsDouble();
      static_assert(sizeof(bits) == sizeof(d));
      std::memcpy(&bits, &d, sizeof(bits));
      PutFixed64(dst, bits);
      break;
    }
    case 3:
      dst->append(buf, static_cast<size_t>(EncodeStringHeader(AsString().size(), buf) - buf));
      dst->append(AsString());
      break;
    case 4:
      dst->push_back(4);
      dst->push_back(AsBool() ? 1 : 0);
      break;
  }
}

void Value::AssignString(std::string_view s) {
  if (auto* str = std::get_if<3>(&rep_)) {
    str->assign(s);
  } else {
    rep_.emplace<3>(s);
  }
}

Status Value::DecodeEncoded(Slice* input, Encoded* out) {
  if (input->empty()) return Status::Corruption("truncated value: missing tag");
  auto tag = static_cast<unsigned char>((*input)[0]);
  input->RemovePrefix(1);
  switch (tag) {
    case 0:
      out->kind = DataType::kNull;
      return Status::OK();
    case 1: {
      uint64_t zz;
      DTL_RETURN_NOT_OK(GetVarint64(input, &zz));
      out->kind = DataType::kInt64;
      out->int64 = ZigZagDecode(zz);
      return Status::OK();
    }
    case 2: {
      if (input->size() < 8) return Status::Corruption("truncated double value");
      uint64_t bits = DecodeFixed64(input->data());
      input->RemovePrefix(8);
      out->kind = DataType::kDouble;
      std::memcpy(&out->dbl, &bits, sizeof(bits));
      return Status::OK();
    }
    case 3:
      DTL_RETURN_NOT_OK(GetLengthPrefixed(input, &out->bytes));
      out->kind = DataType::kString;
      return Status::OK();
    case 4:
      if (input->empty()) return Status::Corruption("truncated bool value");
      out->kind = DataType::kBool;
      out->boolean = (*input)[0] != 0;
      input->RemovePrefix(1);
      return Status::OK();
    default:
      return Status::Corruption("bad value tag " + std::to_string(tag));
  }
}

Status Value::DecodeFrom(Slice* input, Value* out) {
  Encoded e;
  DTL_RETURN_NOT_OK(DecodeEncoded(input, &e));
  switch (e.kind) {
    case DataType::kInt64:
    case DataType::kDate:
      *out = Value::Int64(e.int64);
      break;
    case DataType::kDouble:
      *out = Value::Double(e.dbl);
      break;
    case DataType::kString:
      *out = Value::String(e.bytes.ToString());
      break;
    case DataType::kBool:
      *out = Value::Bool(e.boolean);
      break;
    case DataType::kNull:
      *out = Value::Null();
      break;
  }
  return Status::OK();
}

size_t Value::ByteSize() const {
  switch (rep_.index()) {
    case 0:
      return 1;
    case 1:
    case 2:
      return 8;
    case 3:
      return AsString().size() + 4;
    case 4:
      return 1;
  }
  return 1;
}

size_t Value::HashCode() const {
  switch (rep_.index()) {
    case 0:
      return 0x9E3779B9u;
    case 1:
      return std::hash<int64_t>{}(AsInt64());
    case 2: {
      // Hash ints and equal-valued doubles identically so mixed-type join
      // keys group correctly.
      double d = AsDouble();
      int64_t i = static_cast<int64_t>(d);
      if (static_cast<double>(i) == d) return std::hash<int64_t>{}(i);
      return std::hash<double>{}(d);
    }
    case 3:
      return std::hash<std::string>{}(AsString());
    case 4:
      return std::hash<bool>{}(AsBool());
  }
  return 0;
}

}  // namespace dtl
