#include "logic/executor.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/numeric.h"
#include "common/string_util.h"
#include "logic/exec_internal.h"
#include "logic/parser.h"
#include "obs/metrics.h"
#include "table/index.h"

namespace uctr::logic {

namespace internal {

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

std::vector<size_t> MatchingRows(const Table& table, const TableIndex* index,
                                 const std::vector<size_t>& view,
                                 size_t col_idx, CmpKind cmp, const Value& ref,
                                 size_t* rows_scanned) {
  return MatchingRows(table, index, view, col_idx, cmp, ref, nullptr,
                      rows_scanned);
}

std::vector<size_t> MatchingRows(const Table& table, const TableIndex* index,
                                 const std::vector<size_t>& view,
                                 size_t col_idx, CmpKind cmp, const Value& ref,
                                 const TableIndex::LiteralKey* pre_key,
                                 size_t* rows_scanned) {
  std::vector<size_t> out;
  if (index == nullptr) {
    *rows_scanned += view.size();
    for (size_t r : view) {
      if (CellMatches(table.cell(r, col_idx), cmp, ref)) out.push_back(r);
    }
    return out;
  }
  const TableIndex::Column& col = index->column(col_idx);
  std::optional<TableIndex::LiteralKey> local;
  if (pre_key == nullptr) local.emplace(ref);
  const TableIndex::LiteralKey& key = pre_key != nullptr ? *pre_key : *local;
  if (cmp == CmpKind::kEq && !key.null && !key.numeric) {
    auto hit = col.by_text.find(key.norm);
    if (hit == col.by_text.end()) return out;
    // Views are ascending subsequences of [0, num_rows) (all_rows and
    // every filter preserve that), so a full-size view IS the identity
    // permutation and the ascending posting list is already the answer —
    // O(matches) instead of two O(rows) passes.
    if (view.size() == table.num_rows()) {
      out = hit->second;
      return out;
    }
    std::vector<uint8_t> member(table.num_rows(), 0);
    for (size_t r : hit->second) member[r] = 1;
    for (size_t r : view) {
      if (member[r]) out.push_back(r);
    }
    return out;
  }
  *rows_scanned += view.size();
  for (size_t r : view) {
    if (CellMatchesIndexed(col, r, cmp, key)) out.push_back(r);
  }
  return out;
}

std::vector<size_t> NonNullRows(const Table& table, const TableIndex* index,
                                const std::vector<size_t>& view,
                                size_t col_idx) {
  std::vector<size_t> out;
  if (index != nullptr) {
    const TableIndex::Column& cache = index->column(col_idx);
    for (size_t r : view) {
      if (!cache.is_null[r]) out.push_back(r);
    }
  } else {
    for (size_t r : view) {
      if (!table.cell(r, col_idx).is_null()) out.push_back(r);
    }
  }
  return out;
}

namespace {

/// OrderedRows through the index. A full view (the common `all_rows`
/// superlative) reuses the cached sorted permutation outright; subset
/// views stable-sort with cached comparison keys. Descending order is
/// derived from the ascending permutation by reversing tie groups, which
/// preserves original row order within ties exactly like a stable
/// descending sort.
Result<std::vector<size_t>> OrderedRowsIndexed(const Table& table,
                                               const TableIndex& index,
                                               const std::vector<size_t>& view,
                                               size_t col_idx,
                                               bool descending) {
  const TableIndex::Column& col = index.column(col_idx);
  std::vector<size_t> rows;
  if (view.size() == table.num_rows()) {
    // Views are duplicate-free subsets in ascending row order, so a
    // full-size view is exactly 0..n-1: the cached permutation applies.
    rows.reserve(col.non_null_count);
    for (size_t r : col.sorted) {
      if (!col.is_null[r]) rows.push_back(r);
    }
  } else {
    for (size_t r : view) {
      if (!col.is_null[r]) rows.push_back(r);
    }
    std::stable_sort(rows.begin(), rows.end(), [&col](size_t a, size_t b) {
      return TableIndex::CompareRows(col, a, b) < 0;
    });
  }
  if (rows.empty()) return Status::EmptyResult("superlative on empty view");
  if (descending) {
    std::vector<size_t> desc;
    desc.reserve(rows.size());
    size_t end = rows.size();
    while (end > 0) {
      size_t begin = end - 1;
      while (begin > 0 &&
             TableIndex::CompareRows(col, rows[begin - 1], rows[begin]) == 0) {
        --begin;
      }
      for (size_t k = begin; k < end; ++k) desc.push_back(rows[k]);
      end = begin;
    }
    rows = std::move(desc);
  }
  return rows;
}

}  // namespace

Result<std::vector<size_t>> OrderedRows(const Table& table,
                                        const TableIndex* index,
                                        const std::vector<size_t>& view,
                                        size_t col_idx, bool descending) {
  if (index != nullptr) {
    return OrderedRowsIndexed(table, *index, view, col_idx, descending);
  }
  std::vector<size_t> rows;
  for (size_t r : view) {
    if (!table.cell(r, col_idx).is_null()) rows.push_back(r);
  }
  if (rows.empty()) return Status::EmptyResult("superlative on empty view");
  std::stable_sort(rows.begin(), rows.end(), [&](size_t a, size_t b) {
    int cmp = table.cell(a, col_idx).Compare(table.cell(b, col_idx));
    return descending ? cmp > 0 : cmp < 0;
  });
  return rows;
}

Result<Value> ViewAggregate(const Table& table, const TableIndex* index,
                            const std::vector<size_t>& view, size_t col_idx,
                            bool average, size_t* rows_scanned) {
  *rows_scanned += view.size();
  double sum = 0;
  size_t n = 0;
  if (index != nullptr) {
    const TableIndex::Column& cache = index->column(col_idx);
    for (size_t r : view) {
      if (cache.is_null[r]) continue;
      if (cache.numeric[r]) {
        sum += cache.number[r];
      } else {
        // Non-numeric cell: surface the exact scan-path TypeError.
        UCTR_ASSIGN_OR_RETURN(double x, table.cell(r, col_idx).ToNumber());
        sum += x;
      }
      ++n;
    }
  } else {
    for (size_t r : view) {
      const Value& v = table.cell(r, col_idx);
      if (v.is_null()) continue;
      UCTR_ASSIGN_OR_RETURN(double x, v.ToNumber());
      sum += x;
      ++n;
    }
  }
  if (n == 0) return Status::EmptyResult("aggregate over no values");
  if (!average) return Value::Number(sum);
  return Value::Number(sum / static_cast<double>(n));
}

}  // namespace internal

namespace {

using internal::CmpKind;

/// Executor instruments, resolved once (thread-safe function-local
/// statics); per-program cost is relaxed atomic adds on exit.
struct LogicInstruments {
  obs::Counter* exec_indexed;
  obs::Counter* exec_scan;
  obs::Counter* rows_scanned;
  static const LogicInstruments& Get() {
    static const LogicInstruments inst = [] {
      obs::MetricsRegistry& r = obs::DefaultRegistry();
      return LogicInstruments{r.counter("logic_exec_total{path=\"indexed\"}"),
                              r.counter("logic_exec_total{path=\"scan\"}"),
                              r.counter("logic_rows_scanned_total")};
    }();
    return inst;
  }
};

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
/// When `index` is non-null, row selection, superlatives, and aggregates
/// read through the cached per-column accelerators; results are
/// bit-identical to the scan (see table/index.h).
class Evaluator {
 public:
  explicit Evaluator(const Table& table, const TableIndex* index = nullptr)
      : table_(table), index_(index) {}

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

  /// Rows whose cells were evaluated one-by-one (hash-index probes skip
  /// the per-row work and are not counted). Read once after Eval.
  size_t rows_scanned() const { return rows_scanned_; }

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
    return LogicValue::View(internal::MatchingRows(
        table_, index_, view, col, cmp, ref, &rows_scanned_));
  }

  Result<LogicValue> ApplyMajority(const Node& node, CmpKind cmp,
                                   bool require_all) {
    UCTR_RETURN_NOT_OK(ExpectArgs(node, 3));
    UCTR_ASSIGN_OR_RETURN(std::vector<size_t> view, EvalView(*node.args[0]));
    UCTR_ASSIGN_OR_RETURN(size_t col, Column(*node.args[1]));
    UCTR_ASSIGN_OR_RETURN(Value ref, EvalScalar(*node.args[2]));
    if (view.empty()) return Status::EmptyResult("majority over empty view");
    MarkEvidence(view);
    size_t hits = internal::MatchingRows(table_, index_, view, col, cmp, ref,
                                         &rows_scanned_)
                      .size();
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
        internal::OrderedRows(table_, index_, view, col, /*descending=*/max));
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
        Value v, internal::ViewAggregate(table_, index_, view, col,
                                         /*average=*/node.name != "sum",
                                         &rows_scanned_));
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
        return LogicValue::View(
            internal::NonNullRows(table_, index_, view, col));
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
  const TableIndex* index_;
  std::set<size_t> evidence_;
  size_t rows_scanned_ = 0;
};

}  // namespace

Result<ExecResult> Execute(const Node& node, const Table& table,
                           const ExecOptions& opts) {
  const LogicInstruments& inst = LogicInstruments::Get();
  (opts.use_index ? inst.exec_indexed : inst.exec_scan)->Increment();
  Evaluator eval(table, opts.use_index ? &table.index() : nullptr);
  Result<LogicValue> evaluated = eval.Eval(node);
  inst.rows_scanned->Increment(eval.rows_scanned());
  UCTR_RETURN_NOT_OK(evaluated.status());
  LogicValue out = std::move(evaluated).ValueOrDie();
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
                                      const Table& table,
                                      const ExecOptions& opts) {
  UCTR_ASSIGN_OR_RETURN(std::unique_ptr<Node> node, Parse(text));
  return Execute(*node, table, opts);
}

bool IsKnownOperator(std::string_view op) {
  static const char* kOps[] = {
      "filter_eq",      "filter_not_eq",  "filter_greater",
      "filter_less",    "filter_greater_eq", "filter_less_eq",
      "filter_all",     "argmax",         "argmin",
      "nth_argmax",     "nth_argmin",     "hop",
      "num_hop",        "str_hop",        "count",
      "max",            "min",            "nth_max",
      "nth_min",        "sum",            "avg",
      "average",        "diff",           "eq",
      "not_eq",         "round_eq",       "greater",
      "less",           "and",            "or",
      "not",            "only",           "most_eq",
      "most_not_eq",    "most_greater",   "most_less",
      "most_greater_eq", "most_less_eq",  "all_eq",
      "all_not_eq",     "all_greater",    "all_less",
      "all_greater_eq", "all_less_eq",
  };
  for (const char* k : kOps) {
    if (op == k) return true;
  }
  return false;
}

}  // namespace uctr::logic
