#include "table/scan_predicate.h"

#include <algorithm>
#include <string_view>

#include "common/slice.h"
#include "table/row_batch.h"

namespace dtl::table {

std::optional<CompareOp> ParseCompareOp(std::string_view op) {
  if (op == "=") return CompareOp::kEq;
  if (op == "<>") return CompareOp::kNe;
  if (op == "<") return CompareOp::kLt;
  if (op == "<=") return CompareOp::kLe;
  if (op == ">") return CompareOp::kGt;
  if (op == ">=") return CompareOp::kGe;
  return std::nullopt;
}

CompareOp FlipCompareOp(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    case CompareOp::kEq:
    case CompareOp::kNe:
      break;
  }
  return op;
}

namespace {

/// Whether a three-way result `c` (Value::Compare's sign) satisfies `op`.
bool Holds(CompareOp op, int c) {
  switch (op) {
    case CompareOp::kEq:
      return c == 0;
    case CompareOp::kNe:
      return c != 0;
    case CompareOp::kLt:
      return c < 0;
    case CompareOp::kLe:
      return c <= 0;
    case CompareOp::kGt:
      return c > 0;
    case CompareOp::kGe:
      return c >= 0;
  }
  return false;
}

/// `op` over typed operands, exactly as Value::Compare's sign
/// (a < b ? -1 : a > b ? 1 : 0) would decide it, so a NaN meets every number
/// as equal. Branch-free, for the mask loops.
template <CompareOp kOp, typename T>
inline bool Cmp(T a, T b) {
  if constexpr (kOp == CompareOp::kEq) return !(a < b) & !(a > b);
  if constexpr (kOp == CompareOp::kNe) return (a < b) | (a > b);
  if constexpr (kOp == CompareOp::kLt) return a < b;
  if constexpr (kOp == CompareOp::kLe) return !(a > b);
  if constexpr (kOp == CompareOp::kGt) return a > b;
  if constexpr (kOp == CompareOp::kGe) return !(a < b);
}

/// Calls `fn` with `op` as a compile-time constant, so each mask loop is one
/// comparison with no branch inside.
template <typename Fn>
void DispatchOp(CompareOp op, Fn fn) {
  switch (op) {
    case CompareOp::kEq:
      return fn.template operator()<CompareOp::kEq>();
    case CompareOp::kNe:
      return fn.template operator()<CompareOp::kNe>();
    case CompareOp::kLt:
      return fn.template operator()<CompareOp::kLt>();
    case CompareOp::kLe:
      return fn.template operator()<CompareOp::kLe>();
    case CompareOp::kGt:
      return fn.template operator()<CompareOp::kGt>();
    case CompareOp::kGe:
      return fn.template operator()<CompareOp::kGe>();
  }
}

/// How Value::Compare treats a column type's cells: int64 and date compare
/// exactly among themselves and as doubles against doubles; strings and
/// bools only against their own kind.
enum class Domain { kInt, kDouble, kString, kBool, kNone };

Domain DomainOf(DataType type) {
  switch (type) {
    case DataType::kInt64:
    case DataType::kDate:
      return Domain::kInt;
    case DataType::kDouble:
      return Domain::kDouble;
    case DataType::kString:
      return Domain::kString;
    case DataType::kBool:
      return Domain::kBool;
    case DataType::kNull:
      break;
  }
  return Domain::kNone;
}

}  // namespace

bool SameCompareDomain(DataType a, DataType b) {
  auto numeric = [](Domain d) { return d == Domain::kInt || d == Domain::kDouble; };
  const Domain x = DomainOf(a);
  const Domain y = DomainOf(b);
  return x != Domain::kNone && (x == y || (numeric(x) && numeric(y)));
}

namespace {

Domain DomainOf(const Value& v) {
  if (v.is_int64()) return Domain::kInt;
  if (v.is_double()) return Domain::kDouble;
  if (v.is_string()) return Domain::kString;
  if (v.is_bool()) return Domain::kBool;
  return Domain::kNone;
}

double AsDouble(const Value& v) {
  return v.is_int64() ? static_cast<double>(v.AsInt64()) : v.AsDouble();
}

/// Per-thread mask over a batch's physical rows: mask[i] is the term's
/// verdict on row i before NULLs are masked out.
std::vector<uint8_t>& MaskBuffer(size_t rows) {
  thread_local std::vector<uint8_t> mask;
  if (mask.size() < rows) mask.resize(rows);
  return mask;
}

/// A column's cells as the kernels read them: the typed arrays shifted to
/// the batch's first row, and the validity bits of that window.
struct Cells {
  const ColumnData* data = nullptr;
  size_t offset = 0;

  bool valid(uint32_t i) const { return !data->IsNull(offset + i); }
  const int64_t* ints() const { return data->ints.data() + offset; }
  const double* doubles() const { return data->doubles.data() + offset; }
  const uint8_t* bools() const { return data->bools.data() + offset; }
  std::string_view str(uint32_t i) const { return data->string_at(offset + i); }
};

/// Keeps the selected rows for which `keep(i)` holds, in order, without a
/// branch per row; returns how many remain.
template <typename Keep>
size_t KeepIf(uint32_t* sel, size_t n, Keep keep) {
  size_t out = 0;
  for (size_t k = 0; k < n; ++k) {
    const uint32_t i = sel[k];
    sel[out] = i;
    out += static_cast<size_t>(keep(i));
  }
  return out;
}

/// Keeps the selected rows whose mask byte is set and whose `a` (and `b`,
/// when given) cells are non-NULL.
size_t Compact(const uint8_t* mask, const Cells& a, const Cells* b, uint32_t* sel,
               size_t n) {
  if (!a.data->has_nulls() && (b == nullptr || !b->data->has_nulls())) {
    return KeepIf(sel, n, [mask](uint32_t i) { return mask[i] != 0; });
  }
  return KeepIf(sel, n, [&](uint32_t i) {
    return mask[i] != 0 && a.valid(i) && (b == nullptr || b->valid(i));
  });
}

/// mask[i] = a[i] op b for i < rows: the auto-vectorized comparison loop.
template <typename T, typename U>
void MaskVsScalar(CompareOp op, const T* a, U b, size_t rows, uint8_t* mask) {
  DispatchOp(op, [&]<CompareOp kOp>() {
    for (size_t i = 0; i < rows; ++i) {
      mask[i] = Cmp<kOp>(static_cast<U>(a[i]), b);
    }
  });
}

/// mask[i] = a[i] op b[i] for i < rows.
template <typename T, typename U, typename C>
void MaskVsColumn(CompareOp op, const T* a, const U* b, size_t rows, uint8_t* mask) {
  DispatchOp(op, [&]<CompareOp kOp>() {
    for (size_t i = 0; i < rows; ++i) {
      mask[i] = Cmp<kOp>(static_cast<C>(a[i]), static_cast<C>(b[i]));
    }
  });
}

/// Per-row fallback for operand kinds no kernel covers: the term's row verdict
/// on Values built from the cells.
size_t FilterByValues(const ScanTerm& term, const ColumnVector& a, const ColumnVector* b,
                      uint32_t* sel, size_t n) {
  Row row(std::max(term.column, term.other) + 1);
  return KeepIf(sel, n, [&](uint32_t i) {
    row[term.column] = a.at(i);
    if (b != nullptr) row[term.other] = b->at(i);
    return term.Matches(row);
  });
}

size_t FilterCompare(const ScanTerm& term, const ColumnVector& col, size_t rows,
                     uint32_t* sel, size_t n) {
  const Value& lit = term.literal;
  const Domain cd = DomainOf(col.type());
  const Domain ld = DomainOf(lit);
  const Cells a{col.data(), col.offset()};
  if ((cd == Domain::kInt || cd == Domain::kDouble) &&
      (ld == Domain::kInt || ld == Domain::kDouble)) {
    uint8_t* mask = MaskBuffer(rows).data();
    if (cd == Domain::kInt && ld == Domain::kInt) {
      MaskVsScalar(term.op, a.ints(), lit.AsInt64(), rows, mask);
    } else if (cd == Domain::kInt) {
      MaskVsScalar(term.op, a.ints(), lit.AsDouble(), rows, mask);
    } else {
      MaskVsScalar(term.op, a.doubles(), AsDouble(lit), rows, mask);
    }
    return Compact(mask, a, nullptr, sel, n);
  }
  if (cd == Domain::kBool && ld == Domain::kBool) {
    uint8_t* mask = MaskBuffer(rows).data();
    MaskVsScalar(term.op, a.bools(), static_cast<int>(lit.AsBool()), rows, mask);
    return Compact(mask, a, nullptr, sel, n);
  }
  if (cd == Domain::kString && ld == Domain::kString) {
    const Slice needle(lit.AsString());
    return KeepIf(sel, n, [&](uint32_t i) {
      const std::string_view s = a.str(i);
      return a.valid(i) && Holds(term.op, Slice(s.data(), s.size()).Compare(needle));
    });
  }
  return FilterByValues(term, col, nullptr, sel, n);
}

size_t FilterColumns(const ScanTerm& term, const ColumnVector& left,
                     const ColumnVector& right, size_t rows, uint32_t* sel, size_t n) {
  const Domain ld = DomainOf(left.type());
  const Domain rd = DomainOf(right.type());
  const Cells a{left.data(), left.offset()};
  const Cells b{right.data(), right.offset()};
  const bool numeric = (ld == Domain::kInt || ld == Domain::kDouble) &&
                       (rd == Domain::kInt || rd == Domain::kDouble);
  if (numeric || (ld == Domain::kBool && rd == Domain::kBool)) {
    uint8_t* mask = MaskBuffer(rows).data();
    if (ld == Domain::kInt && rd == Domain::kInt) {
      MaskVsColumn<int64_t, int64_t, int64_t>(term.op, a.ints(), b.ints(), rows, mask);
    } else if (ld == Domain::kInt && rd == Domain::kDouble) {
      MaskVsColumn<int64_t, double, double>(term.op, a.ints(), b.doubles(), rows, mask);
    } else if (ld == Domain::kDouble && rd == Domain::kInt) {
      MaskVsColumn<double, int64_t, double>(term.op, a.doubles(), b.ints(), rows, mask);
    } else if (ld == Domain::kDouble) {
      MaskVsColumn<double, double, double>(term.op, a.doubles(), b.doubles(), rows, mask);
    } else {
      MaskVsColumn<uint8_t, uint8_t, int>(term.op, a.bools(), b.bools(), rows, mask);
    }
    return Compact(mask, a, &b, sel, n);
  }
  if (ld == Domain::kString && rd == Domain::kString) {
    return KeepIf(sel, n, [&](uint32_t i) {
      if (!a.valid(i) || !b.valid(i)) return false;
      const std::string_view x = a.str(i);
      const std::string_view y = b.str(i);
      return Holds(term.op, Slice(x.data(), x.size()).Compare(Slice(y.data(), y.size())));
    });
  }
  return FilterByValues(term, left, &right, sel, n);
}

size_t FilterInList(const ScanTerm& term, const ColumnVector& col, size_t rows,
                    uint32_t* sel, size_t n) {
  // NOT IN with a NULL item is NULL or FALSE for every row.
  if (term.negated && term.null_item) return 0;
  const Domain cd = DomainOf(col.type());
  const Cells a{col.data(), col.offset()};
  // Items that can never compare equal to this column's cells drop out; the
  // rest become typed needles.
  std::vector<int64_t> int_items;
  std::vector<double> double_items;
  std::vector<std::string_view> string_items;
  for (const Value& item : term.items) {
    const Domain d = DomainOf(item);
    if (cd == Domain::kInt && d == Domain::kInt) {
      int_items.push_back(item.AsInt64());
    } else if ((cd == Domain::kInt || cd == Domain::kDouble) &&
               (d == Domain::kInt || d == Domain::kDouble)) {
      double_items.push_back(AsDouble(item));
    } else if (cd == Domain::kString && d == Domain::kString) {
      string_items.push_back(item.AsString());
    } else if (cd == Domain::kBool && d == Domain::kBool) {
      int_items.push_back(item.AsBool() ? 1 : 0);
    } else if (cd == Domain::kNone) {
      return FilterByValues(term, col, nullptr, sel, n);
    }
  }
  const uint8_t hit = term.negated ? 0 : 1;
  if (cd == Domain::kString) {
    return KeepIf(sel, n, [&](uint32_t i) {
      if (!a.valid(i)) return false;
      const std::string_view s = a.str(i);
      uint8_t found = 0;
      for (std::string_view item : string_items) found |= static_cast<uint8_t>(s == item);
      return found == hit;
    });
  }
  uint8_t* mask = MaskBuffer(rows).data();
  for (size_t i = 0; i < rows; ++i) mask[i] = 0;
  if (cd == Domain::kBool) {
    const uint8_t* v = a.bools();
    for (int64_t item : int_items) {
      for (size_t i = 0; i < rows; ++i) mask[i] |= static_cast<uint8_t>(v[i] == item);
    }
  } else if (cd == Domain::kInt) {
    const int64_t* v = a.ints();
    for (int64_t item : int_items) {
      for (size_t i = 0; i < rows; ++i) mask[i] |= static_cast<uint8_t>(v[i] == item);
    }
    for (double item : double_items) {
      for (size_t i = 0; i < rows; ++i) {
        mask[i] |=
            static_cast<uint8_t>(Cmp<CompareOp::kEq>(static_cast<double>(v[i]), item));
      }
    }
  } else {
    const double* v = a.doubles();
    for (double item : double_items) {
      for (size_t i = 0; i < rows; ++i) {
        mask[i] |= static_cast<uint8_t>(Cmp<CompareOp::kEq>(v[i], item));
      }
    }
  }
  if (term.negated) {
    for (size_t i = 0; i < rows; ++i) mask[i] ^= uint8_t{1};
  }
  return Compact(mask, a, nullptr, sel, n);
}

}  // namespace

bool ScanTerm::Matches(const Row& row) const {
  if (column >= row.size() || row[column].is_null()) return false;
  const Value& a = row[column];
  switch (kind) {
    case Kind::kCompare:
      return Holds(op, a.Compare(literal));
    case Kind::kCompareColumns:
      return other < row.size() && !row[other].is_null() &&
             Holds(op, a.Compare(row[other]));
    case Kind::kInList:
      for (const Value& item : items) {
        if (a.Compare(item) == 0) return !negated;
      }
      return negated && !null_item;
  }
  return false;
}

size_t ScanTerm::Filter(const RowBatch& batch, uint32_t* sel, size_t n) const {
  const ColumnVector& col = batch.column(column);
  // An absent or all-NULL column: every operand NULL, nothing is TRUE.
  if (col.type() == DataType::kNull) return 0;
  const size_t rows = batch.num_rows();
  switch (kind) {
    case Kind::kCompare:
      return FilterCompare(*this, col, rows, sel, n);
    case Kind::kCompareColumns: {
      const ColumnVector& right = batch.column(other);
      if (right.type() == DataType::kNull) return 0;
      return FilterColumns(*this, col, right, rows, sel, n);
    }
    case Kind::kInList:
      return FilterInList(*this, col, rows, sel, n);
  }
  return n;
}

std::optional<ColumnBound> ScanTerm::Bound() const {
  if (kind != Kind::kCompare || op == CompareOp::kNe) return std::nullopt;
  ColumnBound bound;
  bound.column = column;
  if (op == CompareOp::kEq || op == CompareOp::kGt || op == CompareOp::kGe) {
    bound.lower = literal;
  }
  if (op == CompareOp::kEq || op == CompareOp::kLt || op == CompareOp::kLe) {
    bound.upper = literal;
  }
  return bound;
}

}  // namespace dtl::table
