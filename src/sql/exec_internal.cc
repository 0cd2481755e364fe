#include "sql/exec_internal.h"

#include <vector>

namespace uctr::sql::internal {

namespace {

bool EvalConditionIndexed(const TableIndex::Column& col, size_t r, CmpOp op,
                          const TableIndex::LiteralKey& lit) {
  if (col.is_null[r]) return false;
  switch (op) {
    case CmpOp::kEq:
      return TableIndex::CellEquals(col, r, lit);
    case CmpOp::kNe:
      return !TableIndex::CellEquals(col, r, lit);
    case CmpOp::kLt:
      return TableIndex::CellCompare(col, r, lit) < 0;
    case CmpOp::kGt:
      return TableIndex::CellCompare(col, r, lit) > 0;
    case CmpOp::kLe:
      return TableIndex::CellCompare(col, r, lit) <= 0;
    case CmpOp::kGe:
      return TableIndex::CellCompare(col, r, lit) >= 0;
  }
  return false;
}

}  // namespace

std::vector<size_t> FilterOneIndexed(const TableIndex::Column& col, CmpOp op,
                                     const TableIndex::LiteralKey& lit,
                                     const std::vector<size_t>& rows,
                                     size_t* rows_scanned) {
  // Text equality reads the literal's postings: no per-row cell
  // evaluation happens, so nothing is added to rows_scanned.
  if (op == CmpOp::kEq && !lit.null && !lit.numeric) {
    return TableIndex::EqualRows(col, lit, rows);
  }
  std::vector<size_t> kept;
  kept.reserve(rows.size());
  *rows_scanned += rows.size();
  for (size_t r : rows) {
    if (EvalConditionIndexed(col, r, op, lit)) kept.push_back(r);
  }
  return kept;
}

Result<Value> EvalAggregateIndexed(AggFunc agg, bool star, bool distinct,
                                   size_t col_idx, const Table& table,
                                   const TableIndex& index,
                                   const std::vector<size_t>& rows) {
  if (agg == AggFunc::kCount) {
    if (star) return Value::Number(static_cast<double>(rows.size()));
    const TableIndex::Column& col = index.column(col_idx);
    if (distinct) {
      // Distinct display strings are distinct display ids.
      std::vector<bool> seen(col.displays.size());
      size_t count = 0;
      for (size_t r : rows) {
        if (col.is_null[r] || seen[col.display_id[r]]) continue;
        seen[col.display_id[r]] = true;
        ++count;
      }
      return Value::Number(static_cast<double>(count));
    }
    size_t count = 0;
    for (size_t r : rows) {
      if (!col.is_null[r]) ++count;
    }
    return Value::Number(static_cast<double>(count));
  }

  const TableIndex::Column& col = index.column(col_idx);
  if (agg == AggFunc::kSum || agg == AggFunc::kAvg) {
    double sum = 0;
    size_t n = 0;
    for (size_t r : rows) {
      if (col.is_null[r]) continue;
      if (col.numeric[r]) {
        sum += col.number[r];
      } else {
        // Non-numeric cell: surface the exact scan-path TypeError.
        UCTR_ASSIGN_OR_RETURN(double x, table.cell(r, col_idx).ToNumber());
        sum += x;
      }
      ++n;
    }
    if (n == 0) {
      return Status::EmptyResult(agg == AggFunc::kSum ? "SUM over no rows"
                                                      : "AVG over no rows");
    }
    return Value::Number(agg == AggFunc::kSum ? sum
                                              : sum / static_cast<double>(n));
  }

  // MIN / MAX: linear pass with cached comparison keys; ties keep the
  // earliest row, exactly like the scan.
  bool first = true;
  size_t best_row = 0;
  for (size_t r : rows) {
    if (col.is_null[r]) continue;
    if (first) {
      best_row = r;
      first = false;
    } else if (agg == AggFunc::kMin
                   ? TableIndex::CompareRows(col, r, best_row) < 0
                   : TableIndex::CompareRows(col, r, best_row) > 0) {
      best_row = r;
    }
  }
  if (first) return Status::EmptyResult("MIN/MAX over no rows");
  return table.cell(best_row, col_idx);
}

}  // namespace uctr::sql::internal
