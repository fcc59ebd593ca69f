#include "common/schema.h"

#include <cctype>

#include "common/coding.h"

namespace dtl {

namespace {
bool EqualsIgnoreCase(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}
}  // namespace

std::optional<size_t> Schema::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (EqualsIgnoreCase(fields_[i].name, name)) return i;
  }
  return std::nullopt;
}

Schema Schema::Project(const std::vector<size_t>& ordinals) const {
  std::vector<Field> out;
  out.reserve(ordinals.size());
  for (size_t ord : ordinals) out.push_back(fields_[ord]);
  return Schema(std::move(out));
}

std::string Schema::ToString() const {
  std::string out;
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += fields_[i].name;
    out += " ";
    out += DataTypeName(fields_[i].type);
  }
  return out;
}

void Schema::EncodeTo(std::string* dst) const {
  PutVarint64(dst, fields_.size());
  for (const Field& f : fields_) {
    PutLengthPrefixed(dst, Slice(f.name));
    dst->push_back(static_cast<char>(f.type));
  }
}

Status Schema::DecodeFrom(Slice* input, Schema* out) {
  uint64_t n = 0;
  DTL_RETURN_NOT_OK(GetVarint64(input, &n));
  // Each field takes at least two bytes (name length, type).
  if (n > input->size() / 2) return Status::Corruption("schema field count out of range");
  std::vector<Field> fields;
  fields.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Slice name;
    DTL_RETURN_NOT_OK(GetLengthPrefixed(input, &name));
    if (input->empty()) return Status::Corruption("truncated schema field type");
    auto type = static_cast<DataType>((*input)[0]);
    input->RemovePrefix(1);
    fields.push_back(Field{name.ToString(), type});
  }
  *out = Schema(std::move(fields));
  return Status::OK();
}

void EncodeRow(const Row& row, std::string* dst) {
  PutVarint64(dst, row.size());
  for (const Value& v : row) v.EncodeTo(dst);
}

Status DecodeRow(Slice* input, Row* out) {
  uint64_t n = 0;
  DTL_RETURN_NOT_OK(GetVarint64(input, &n));
  out->clear();
  out->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Value v;
    DTL_RETURN_NOT_OK(Value::DecodeFrom(input, &v));
    out->push_back(std::move(v));
  }
  return Status::OK();
}

size_t RowByteSize(const Row& row) {
  size_t total = 0;
  for (const Value& v : row) total += v.ByteSize();
  return total;
}

std::string RowToString(const Row& row) {
  std::string out;
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += "\t";
    out += row[i].ToString();
  }
  return out;
}

}  // namespace dtl
