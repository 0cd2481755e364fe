#include "logic/executor.h"

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/numeric.h"
#include "common/string_util.h"
#include "logic/exec_internal.h"
#include "logic/parser.h"

namespace uctr::logic {

namespace {

using internal::CmpKind;

bool CellMatches(const Value& cell, CmpKind cmp, const Value& ref) {
  if (cell.is_null()) return false;
  switch (cmp) {
    case CmpKind::kEq:
      return cell.Equals(ref);
    case CmpKind::kNotEq:
      return !cell.Equals(ref);
    case CmpKind::kGreater:
      return cell.Compare(ref) > 0;
    case CmpKind::kLess:
      return cell.Compare(ref) < 0;
    case CmpKind::kGreaterEq:
      return cell.Compare(ref) >= 0;
    case CmpKind::kLessEq:
      return cell.Compare(ref) <= 0;
  }
  return false;
}

/// Rows of `view` matching `cmp ref` on column `col_idx`, in view order.
std::vector<size_t> MatchingRows(const Table& table,
                                 const std::vector<size_t>& view,
                                 size_t col_idx, CmpKind cmp,
                                 const Value& ref) {
  std::vector<size_t> out;
  for (size_t r : view) {
    if (CellMatches(table.cell(r, col_idx), cmp, ref)) out.push_back(r);
  }
  return out;
}

/// Rows of `view` ordered by column value, nulls dropped; ties keep
/// original order.
Result<std::vector<size_t>> OrderedRows(const Table& table,
                                        const std::vector<size_t>& view,
                                        size_t col_idx, bool descending) {
  std::vector<size_t> rows;
  for (size_t r : view) {
    if (!table.cell(r, col_idx).is_null()) rows.push_back(r);
  }
  if (rows.empty()) return Status::EmptyResult("superlative on empty view");
  std::stable_sort(rows.begin(), rows.end(), [&](size_t a, size_t b) {
    int cmp = table.cell(a, col_idx).Order(table.cell(b, col_idx));
    return descending ? cmp > 0 : cmp < 0;
  });
  return rows;
}

/// sum/avg over the view's non-null cells of column `col_idx`.
Result<Value> ViewAggregate(const Table& table,
                            const std::vector<size_t>& view, size_t col_idx,
                            bool average) {
  double sum = 0;
  size_t n = 0;
  for (size_t r : view) {
    const Value& v = table.cell(r, col_idx);
    if (v.is_null()) continue;
    UCTR_ASSIGN_OR_RETURN(double x, v.ToNumber());
    sum += x;
    ++n;
  }
  if (n == 0) return Status::EmptyResult("aggregate over no values");
  if (!average) return Value::Number(sum);
  return Value::Number(sum / static_cast<double>(n));
}

/// Intermediate value flowing through logical-form evaluation: either a
/// view (ordered set of row indices) or a scalar Value.
struct LogicValue {
  enum class Kind { kView, kScalar } kind = Kind::kScalar;
  std::vector<size_t> rows;
  Value scalar;

  static LogicValue View(std::vector<size_t> r) {
    LogicValue v;
    v.kind = Kind::kView;
    v.rows = std::move(r);
    return v;
  }
  static LogicValue Scalar(Value s) {
    LogicValue v;
    v.kind = Kind::kScalar;
    v.scalar = std::move(s);
    return v;
  }
  bool is_view() const { return kind == Kind::kView; }
};

/// Evaluator holding the table and the accumulated evidence rows.
class Evaluator {
 public:
  explicit Evaluator(const Table& table) : table_(table) {}

  Result<LogicValue> Eval(const Node& node) {
    if (node.is_literal) {
      if (EqualsIgnoreCase(node.name, "all_rows")) {
        std::vector<size_t> all(table_.num_rows());
        for (size_t r = 0; r < all.size(); ++r) all[r] = r;
        return LogicValue::View(std::move(all));
      }
      return LogicValue::Scalar(Value::FromText(node.name));
    }
    return Apply(node);
  }

  const std::set<size_t>& evidence() const { return evidence_; }

 private:
  // --- helpers -----------------------------------------------------------

  Result<std::vector<size_t>> EvalView(const Node& node) {
    UCTR_ASSIGN_OR_RETURN(LogicValue v, Eval(node));
    if (!v.is_view()) {
      return Status::TypeError("operator '" + node.name +
                               "' does not produce a row view");
    }
    return v.rows;
  }

  Result<Value> EvalScalar(const Node& node) {
    UCTR_ASSIGN_OR_RETURN(LogicValue v, Eval(node));
    if (v.is_view()) {
      return Status::TypeError("expected scalar, got view from '" +
                               node.name + "'");
    }
    return v.scalar;
  }

  Status ExpectArgs(const Node& node, size_t n) {
    if (node.args.size() != n) {
      return Status::InvalidArgument(
          "operator '" + node.name + "' expects " + std::to_string(n) +
          " args, got " + std::to_string(node.args.size()));
    }
    return Status::OK();
  }

  void MarkEvidence(const std::vector<size_t>& rows) {
    evidence_.insert(rows.begin(), rows.end());
  }

  Result<size_t> Column(const Node& node) {
    if (!node.is_literal) {
      return Status::InvalidArgument("column argument must be a literal");
    }
    return table_.ColumnIndex(node.name);
  }

  // --- operator families --------------------------------------------------

  Result<LogicValue> ApplyFilter(const Node& node, CmpKind cmp) {
    UCTR_RETURN_NOT_OK(ExpectArgs(node, 3));
    UCTR_ASSIGN_OR_RETURN(std::vector<size_t> view, EvalView(*node.args[0]));
    UCTR_ASSIGN_OR_RETURN(size_t col, Column(*node.args[1]));
    UCTR_ASSIGN_OR_RETURN(Value ref, EvalScalar(*node.args[2]));
    return LogicValue::View(MatchingRows(table_, view, col, cmp, ref));
  }

  Result<LogicValue> ApplyMajority(const Node& node, CmpKind cmp,
                                   bool require_all) {
    UCTR_RETURN_NOT_OK(ExpectArgs(node, 3));
    UCTR_ASSIGN_OR_RETURN(std::vector<size_t> view, EvalView(*node.args[0]));
    UCTR_ASSIGN_OR_RETURN(size_t col, Column(*node.args[1]));
    UCTR_ASSIGN_OR_RETURN(Value ref, EvalScalar(*node.args[2]));
    if (view.empty()) return Status::EmptyResult("majority over empty view");
    MarkEvidence(view);
    size_t hits = MatchingRows(table_, view, col, cmp, ref).size();
    bool verdict = require_all ? (hits == view.size())
                               : (hits * 2 > view.size());
    return LogicValue::Scalar(Value::Bool(verdict));
  }

  Result<LogicValue> ApplyArgSuperlative(const Node& node, bool max,
                                         bool nth) {
    UCTR_RETURN_NOT_OK(ExpectArgs(node, nth ? 3 : 2));
    UCTR_ASSIGN_OR_RETURN(std::vector<size_t> view, EvalView(*node.args[0]));
    UCTR_ASSIGN_OR_RETURN(size_t col, Column(*node.args[1]));
    size_t n = 1;
    if (nth) {
      UCTR_ASSIGN_OR_RETURN(Value nv, EvalScalar(*node.args[2]));
      UCTR_ASSIGN_OR_RETURN(double nd, nv.ToNumber());
      // !(>= 1) also catches NaN, which would otherwise slip past a
      // `nd < 1` test and make the size_t cast undefined (observed as a
      // rows[-1] read under fuzzing). Saturate oversized ordinals so the
      // cast stays defined; the view-size check below still rejects them.
      if (!(nd >= 1)) return Status::OutOfRange("ordinal must be >= 1");
      n = nd >= static_cast<double>(std::numeric_limits<size_t>::max())
              ? std::numeric_limits<size_t>::max()
              : static_cast<size_t>(nd);
    }
    UCTR_ASSIGN_OR_RETURN(
        std::vector<size_t> rows,
        OrderedRows(table_, view, col, /*descending=*/max));
    if (n > rows.size()) {
      return Status::OutOfRange("ordinal " + std::to_string(n) +
                                " beyond view of " +
                                std::to_string(rows.size()));
    }
    MarkEvidence(rows);
    return LogicValue::View({rows[n - 1]});
  }

  Result<LogicValue> ApplyValueSuperlative(const Node& node, bool max,
                                           bool nth) {
    UCTR_ASSIGN_OR_RETURN(LogicValue row_view,
                          ApplyArgSuperlative(node, max, nth));
    UCTR_ASSIGN_OR_RETURN(size_t col, Column(*node.args[1]));
    return LogicValue::Scalar(table_.cell(row_view.rows[0], col));
  }

  Result<LogicValue> ApplyAggregate(const Node& node) {
    UCTR_RETURN_NOT_OK(ExpectArgs(node, 2));
    UCTR_ASSIGN_OR_RETURN(std::vector<size_t> view, EvalView(*node.args[0]));
    UCTR_ASSIGN_OR_RETURN(size_t col, Column(*node.args[1]));
    MarkEvidence(view);
    UCTR_ASSIGN_OR_RETURN(
        Value v, ViewAggregate(table_, view, col,
                               /*average=*/node.name != "sum"));
    return LogicValue::Scalar(std::move(v));
  }

  Result<LogicValue> Apply(const Node& node) {
    const std::string& op = node.name;

    // -- view producers --
    if (StartsWith(op, "filter_")) {
      if (op == "filter_all") {
        UCTR_RETURN_NOT_OK(ExpectArgs(node, 2));
        UCTR_ASSIGN_OR_RETURN(std::vector<size_t> view,
                              EvalView(*node.args[0]));
        UCTR_ASSIGN_OR_RETURN(size_t col, Column(*node.args[1]));
        std::vector<size_t> kept;
        for (size_t r : view) {
          if (!table_.cell(r, col).is_null()) kept.push_back(r);
        }
        return LogicValue::View(std::move(kept));
      }
      UCTR_ASSIGN_OR_RETURN(CmpKind cmp,
                            internal::CmpFromSuffix(op, "filter_"));
      return ApplyFilter(node, cmp);
    }
    if (op == "argmax") return ApplyArgSuperlative(node, true, false);
    if (op == "argmin") return ApplyArgSuperlative(node, false, false);
    if (op == "nth_argmax") return ApplyArgSuperlative(node, true, true);
    if (op == "nth_argmin") return ApplyArgSuperlative(node, false, true);

    // -- scalar producers --
    if (op == "hop" || op == "num_hop" || op == "str_hop") {
      UCTR_RETURN_NOT_OK(ExpectArgs(node, 2));
      UCTR_ASSIGN_OR_RETURN(std::vector<size_t> view, EvalView(*node.args[0]));
      UCTR_ASSIGN_OR_RETURN(size_t col, Column(*node.args[1]));
      if (view.empty()) return Status::EmptyResult("hop on empty view");
      MarkEvidence({view[0]});
      return LogicValue::Scalar(table_.cell(view[0], col));
    }
    if (op == "count") {
      UCTR_RETURN_NOT_OK(ExpectArgs(node, 1));
      UCTR_ASSIGN_OR_RETURN(std::vector<size_t> view, EvalView(*node.args[0]));
      MarkEvidence(view);
      return LogicValue::Scalar(
          Value::Number(static_cast<double>(view.size())));
    }
    if (op == "max") return ApplyValueSuperlative(node, true, false);
    if (op == "min") return ApplyValueSuperlative(node, false, false);
    if (op == "nth_max") return ApplyValueSuperlative(node, true, true);
    if (op == "nth_min") return ApplyValueSuperlative(node, false, true);
    if (op == "sum" || op == "avg" || op == "average") {
      return ApplyAggregate(node);
    }
    if (op == "diff") {
      UCTR_RETURN_NOT_OK(ExpectArgs(node, 2));
      UCTR_ASSIGN_OR_RETURN(Value a, EvalScalar(*node.args[0]));
      UCTR_ASSIGN_OR_RETURN(Value b, EvalScalar(*node.args[1]));
      UCTR_ASSIGN_OR_RETURN(double x, a.ToNumber());
      UCTR_ASSIGN_OR_RETURN(double y, b.ToNumber());
      return LogicValue::Scalar(Value::Number(x - y));
    }

    // -- boolean producers --
    if (op == "eq" || op == "not_eq" || op == "round_eq" || op == "greater" ||
        op == "less") {
      UCTR_RETURN_NOT_OK(ExpectArgs(node, 2));
      UCTR_ASSIGN_OR_RETURN(Value a, EvalScalar(*node.args[0]));
      UCTR_ASSIGN_OR_RETURN(Value b, EvalScalar(*node.args[1]));
      if (op == "eq") return LogicValue::Scalar(Value::Bool(a.Equals(b)));
      if (op == "not_eq") {
        return LogicValue::Scalar(Value::Bool(!a.Equals(b)));
      }
      if (op == "round_eq") {
        auto x = a.ToNumber();
        auto y = b.ToNumber();
        if (!x.ok() || !y.ok()) {
          return LogicValue::Scalar(Value::Bool(a.Equals(b)));
        }
        // Tolerant numeric equality: within 1% relative or 0.51 absolute.
        bool near = NearlyEqual(x.ValueOrDie(), y.ValueOrDie(), 0.51, 0.01);
        return LogicValue::Scalar(Value::Bool(near));
      }
      int cmp = a.Compare(b);
      return LogicValue::Scalar(
          Value::Bool(op == "greater" ? cmp > 0 : cmp < 0));
    }
    if (op == "and" || op == "or") {
      UCTR_RETURN_NOT_OK(ExpectArgs(node, 2));
      UCTR_ASSIGN_OR_RETURN(Value a, EvalScalar(*node.args[0]));
      UCTR_ASSIGN_OR_RETURN(Value b, EvalScalar(*node.args[1]));
      bool x = a.boolean();
      bool y = b.boolean();
      return LogicValue::Scalar(Value::Bool(op == "and" ? x && y : x || y));
    }
    if (op == "not") {
      UCTR_RETURN_NOT_OK(ExpectArgs(node, 1));
      UCTR_ASSIGN_OR_RETURN(Value a, EvalScalar(*node.args[0]));
      return LogicValue::Scalar(Value::Bool(!a.boolean()));
    }
    if (op == "only") {
      UCTR_RETURN_NOT_OK(ExpectArgs(node, 1));
      UCTR_ASSIGN_OR_RETURN(std::vector<size_t> view, EvalView(*node.args[0]));
      MarkEvidence(view);
      return LogicValue::Scalar(Value::Bool(view.size() == 1));
    }
    if (StartsWith(op, "most_")) {
      UCTR_ASSIGN_OR_RETURN(CmpKind cmp, internal::CmpFromSuffix(op, "most_"));
      return ApplyMajority(node, cmp, /*require_all=*/false);
    }
    if (StartsWith(op, "all_")) {
      UCTR_ASSIGN_OR_RETURN(CmpKind cmp, internal::CmpFromSuffix(op, "all_"));
      return ApplyMajority(node, cmp, /*require_all=*/true);
    }

    return Status::InvalidArgument("unknown logical-form operator '" + op +
                                   "'");
  }

  const Table& table_;
  std::set<size_t> evidence_;
};

}  // namespace

Result<ExecResult> Execute(const Node& node, const Table& table) {
  Evaluator eval(table);
  UCTR_ASSIGN_OR_RETURN(LogicValue out, eval.Eval(node));
  ExecResult result;
  if (out.is_view()) {
    // A bare view is not a complete verification program, but expose the
    // first-column values so callers can inspect partial programs.
    for (size_t r : out.rows) {
      if (table.num_columns() > 0) result.values.push_back(table.cell(r, 0));
    }
    result.evidence_rows.assign(out.rows.begin(), out.rows.end());
  } else {
    result.values.push_back(out.scalar);
    result.evidence_rows.assign(eval.evidence().begin(),
                                eval.evidence().end());
  }
  if (result.values.empty()) {
    return Status::EmptyResult("logical form produced no values");
  }
  return result;
}

Result<ExecResult> ExecuteLogicalForm(std::string_view text,
                                      const Table& table) {
  UCTR_ASSIGN_OR_RETURN(std::unique_ptr<Node> node, Parse(text));
  return Execute(*node, table);
}

}  // namespace uctr::logic
