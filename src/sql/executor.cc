#include "sql/executor.h"

#include <algorithm>
#include <string_view>
#include <unordered_set>

#include "sql/parser.h"

namespace uctr::sql {

namespace {

/// `cell op literal`; a null cell never matches (SQL three-valued logic
/// collapsed to false).
bool EvalCondition(CmpOp op, const Value& literal, const Value& cell) {
  if (cell.is_null()) return false;
  switch (op) {
    case CmpOp::kEq:
      return cell.Equals(literal);
    case CmpOp::kNe:
      return !cell.Equals(literal);
    case CmpOp::kLt:
      return cell.Compare(literal) < 0;
    case CmpOp::kGt:
      return cell.Compare(literal) > 0;
    case CmpOp::kLe:
      return cell.Compare(literal) <= 0;
    case CmpOp::kGe:
      return cell.Compare(literal) >= 0;
  }
  return false;
}

/// Aggregate over `rows` of column `col` (ignored when `star`).
Result<Value> EvalAggregate(AggFunc agg, bool star, bool distinct, size_t col,
                            const Table& table,
                            const std::vector<size_t>& rows) {
  if (agg == AggFunc::kCount) {
    if (star) return Value::Number(static_cast<double>(rows.size()));
    if (distinct) {
      std::unordered_set<std::string> seen;
      for (size_t r : rows) {
        const Value& v = table.cell(r, col);
        if (!v.is_null()) seen.insert(v.ToDisplayString());
      }
      return Value::Number(static_cast<double>(seen.size()));
    }
    size_t count = 0;
    for (size_t r : rows) {
      if (!table.cell(r, col).is_null()) ++count;
    }
    return Value::Number(static_cast<double>(count));
  }

  double sum = 0;
  size_t n = 0;
  bool first = true;
  Value best;
  for (size_t r : rows) {
    const Value& v = table.cell(r, col);
    if (v.is_null()) continue;
    if (agg == AggFunc::kSum || agg == AggFunc::kAvg) {
      UCTR_ASSIGN_OR_RETURN(double x, v.ToNumber());
      sum += x;
      ++n;
    } else {  // MIN / MAX
      if (first) {
        best = v;
        first = false;
      } else if (agg == AggFunc::kMin ? v.Order(best) < 0
                                      : v.Order(best) > 0) {
        best = v;
      }
    }
  }
  switch (agg) {
    case AggFunc::kSum:
      if (n == 0) return Status::EmptyResult("SUM over no rows");
      return Value::Number(sum);
    case AggFunc::kAvg:
      if (n == 0) return Status::EmptyResult("AVG over no rows");
      return Value::Number(sum / static_cast<double>(n));
    case AggFunc::kMin:
    case AggFunc::kMax:
      if (first) return Status::EmptyResult("MIN/MAX over no rows");
      return best;
    default:
      return Status::Internal("unexpected aggregate");
  }
}

}  // namespace

Result<ExecResult> Execute(const SelectStatement& stmt, const Table& table) {
  // 1. Filter. A conjunct's column resolves only once a row reaches it.
  std::vector<size_t> rows;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    bool keep = true;
    for (const Condition& cond : stmt.where) {
      UCTR_ASSIGN_OR_RETURN(size_t c, table.ColumnIndex(cond.column));
      if (!EvalCondition(cond.op, cond.literal, table.cell(r, c))) {
        keep = false;
        break;
      }
    }
    if (keep) rows.push_back(r);
  }

  // 2. Order.
  if (stmt.order_by) {
    UCTR_ASSIGN_OR_RETURN(size_t c, table.ColumnIndex(stmt.order_by->column));
    bool desc = stmt.order_by->descending;
    std::stable_sort(rows.begin(), rows.end(), [&](size_t a, size_t b) {
      int cmp = table.cell(a, c).Order(table.cell(b, c));
      return desc ? cmp > 0 : cmp < 0;
    });
  }

  // 3. Limit.
  if (stmt.limit && *stmt.limit >= 0 &&
      rows.size() > static_cast<size_t>(*stmt.limit)) {
    rows.resize(static_cast<size_t>(*stmt.limit));
  }

  // 4. Project.
  bool any_aggregate = false;
  for (const SelectItem& item : stmt.items) {
    if (item.agg != AggFunc::kNone) any_aggregate = true;
  }

  ExecResult result;
  result.evidence_rows = rows;
  if (any_aggregate) {
    for (const SelectItem& item : stmt.items) {
      if (item.agg == AggFunc::kNone) {
        return Status::InvalidArgument(
            "mixing aggregates and plain columns is not supported");
      }
      size_t c = 0;
      if (!item.star) {
        UCTR_ASSIGN_OR_RETURN(c, table.ColumnIndex(item.column));
      }
      UCTR_ASSIGN_OR_RETURN(
          Value v, EvalAggregate(item.agg, item.star, item.distinct, c, table,
                                 rows));
      result.values.push_back(std::move(v));
    }
    // COUNT over an empty filter is a legitimate 0 answer, but evidence-free
    // results are useless for training samples; keep them (the generator
    // applies its own EmptyResult policy on values, not rows).
    return result;
  }

  for (size_t r : rows) {
    for (const SelectItem& item : stmt.items) {
      UCTR_ASSIGN_OR_RETURN(size_t c, table.ColumnIndex(item.column));
      const Value& lhs = table.cell(r, c);
      if (item.arith == ArithOp::kNone) {
        if (!lhs.is_null()) result.values.push_back(lhs);
        continue;
      }
      UCTR_ASSIGN_OR_RETURN(size_t c2, table.ColumnIndex(item.rhs_column));
      const Value& rhs = table.cell(r, c2);
      UCTR_ASSIGN_OR_RETURN(double a, lhs.ToNumber());
      UCTR_ASSIGN_OR_RETURN(double b, rhs.ToNumber());
      result.values.push_back(
          Value::Number(item.arith == ArithOp::kAdd ? a + b : a - b));
    }
  }
  if (result.values.empty()) {
    return Status::EmptyResult("query matched no rows");
  }
  return result;
}

Result<ExecResult> ExecuteQuery(std::string_view query, const Table& table) {
  UCTR_ASSIGN_OR_RETURN(SelectStatement stmt, Parse(query));
  return Execute(stmt, table);
}

}  // namespace uctr::sql
