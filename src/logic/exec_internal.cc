#include "logic/exec_internal.h"

#include <algorithm>
#include <cstddef>
#include <optional>
#include <string>

namespace uctr::logic::internal {

namespace {

bool CellMatchesIndexed(const TableIndex::Column& col, size_t r, CmpKind cmp,
                        const TableIndex::LiteralKey& ref) {
  if (col.is_null[r]) return false;
  switch (cmp) {
    case CmpKind::kEq:
      return TableIndex::CellEquals(col, r, ref);
    case CmpKind::kNotEq:
      return !TableIndex::CellEquals(col, r, ref);
    case CmpKind::kGreater:
      return TableIndex::CellCompare(col, r, ref) > 0;
    case CmpKind::kLess:
      return TableIndex::CellCompare(col, r, ref) < 0;
    case CmpKind::kGreaterEq:
      return TableIndex::CellCompare(col, r, ref) >= 0;
    case CmpKind::kLessEq:
      return TableIndex::CellCompare(col, r, ref) <= 0;
  }
  return false;
}

}  // namespace

Result<CmpKind> CmpFromSuffix(std::string_view op, std::string_view prefix) {
  std::string suffix(op.substr(prefix.size()));
  if (suffix == "eq") return CmpKind::kEq;
  if (suffix == "not_eq") return CmpKind::kNotEq;
  if (suffix == "greater") return CmpKind::kGreater;
  if (suffix == "less") return CmpKind::kLess;
  if (suffix == "greater_eq") return CmpKind::kGreaterEq;
  if (suffix == "less_eq") return CmpKind::kLessEq;
  return Status::InvalidArgument("unknown comparison '" + std::string(op) +
                                 "'");
}

std::vector<size_t> MatchingRows(const TableIndex& index,
                                 const std::vector<size_t>& view,
                                 size_t col_idx, CmpKind cmp, const Value& ref,
                                 const TableIndex::LiteralKey* pre_key,
                                 size_t* rows_scanned) {
  std::vector<size_t> out;
  const TableIndex::Column& col = index.column(col_idx);
  std::optional<TableIndex::LiteralKey> local;
  if (pre_key == nullptr) local.emplace(ref);
  const TableIndex::LiteralKey& key = pre_key != nullptr ? *pre_key : *local;
  if (cmp == CmpKind::kEq && !key.null && !key.numeric) {
    return TableIndex::EqualRows(col, key, view);
  }
  *rows_scanned += view.size();
  for (size_t r : view) {
    if (CellMatchesIndexed(col, r, cmp, key)) out.push_back(r);
  }
  return out;
}

std::vector<size_t> NonNullRows(const TableIndex& index,
                                const std::vector<size_t>& view,
                                size_t col_idx) {
  std::vector<size_t> out;
  const TableIndex::Column& cache = index.column(col_idx);
  for (size_t r : view) {
    if (!cache.is_null[r]) out.push_back(r);
  }
  return out;
}

Result<std::vector<size_t>> OrderedRows(const Table& table,
                                        const TableIndex& index,
                                        const std::vector<size_t>& view,
                                        size_t col_idx, bool descending) {
  const TableIndex::Column& col = index.column(col_idx);
  std::vector<size_t> rows;
  if (view.size() == table.num_rows()) {
    // Views are duplicate-free subsets in ascending row order, so a
    // full-size view is exactly 0..n-1 and the cached permutation is its
    // stable sort. Nulls are the first tie group ascending and the last
    // descending.
    if (descending) {
      rows = TableIndex::SortedDescending(col);
      rows.resize(col.non_null_count);
    } else {
      rows.assign(col.sorted.end() -
                      static_cast<std::ptrdiff_t>(col.non_null_count),
                  col.sorted.end());
    }
  } else {
    // Sorting a partial view's rows is cheaper than filtering `sorted`
    // when the view is small; the stable sort gives the same order.
    for (size_t r : view) {
      if (!col.is_null[r]) rows.push_back(r);
    }
    std::stable_sort(rows.begin(), rows.end(),
                     [&col, descending](size_t a, size_t b) {
                       int cmp = TableIndex::CompareRows(col, a, b);
                       return descending ? cmp > 0 : cmp < 0;
                     });
  }
  if (rows.empty()) return Status::EmptyResult("superlative on empty view");
  return rows;
}

Result<Value> ViewAggregate(const Table& table, const TableIndex& index,
                            const std::vector<size_t>& view, size_t col_idx,
                            bool average, size_t* rows_scanned) {
  *rows_scanned += view.size();
  double sum = 0;
  size_t n = 0;
  const TableIndex::Column& cache = index.column(col_idx);
  for (size_t r : view) {
    if (cache.is_null[r]) continue;
    if (cache.numeric[r]) {
      sum += cache.number[r];
    } else {
      // Non-numeric cell: surface the exact Value::ToNumber TypeError.
      UCTR_ASSIGN_OR_RETURN(double x, table.cell(r, col_idx).ToNumber());
      sum += x;
    }
    ++n;
  }
  if (n == 0) return Status::EmptyResult("aggregate over no values");
  if (!average) return Value::Number(sum);
  return Value::Number(sum / static_cast<double>(n));
}

}  // namespace uctr::logic::internal
