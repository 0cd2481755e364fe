#include "ir/ir.h"

#include <algorithm>
#include <iterator>
#include <optional>
#include <string>
#include <utility>

#include "arith/ast.h"
#include "arith/parser.h"
#include "common/hash.h"
#include "common/string_util.h"
#include "logic/ast.h"
#include "logic/exec_internal.h"
#include "logic/parser.h"
#include "sql/ast.h"
#include "sql/parser.h"

namespace uctr::ir {

namespace {

// Bytecode layout limits. Register and pool operands travel in uint16
// fields; programs large enough to blow them fail to compile.
constexpr size_t kMaxRegs = 0xFFFF;
constexpr size_t kMaxPool = 0xFFFF;

/// Incremental plan builder shared by the three lowerings.
///
/// The lowerings mirror their walker's evaluation order and return the
/// walker's exact Status wherever it raises one without reading cells.
/// Finish() turns such a Status into a terminating kFail after the code
/// emitted so far, so any runtime error of an earlier operand still wins.
/// Only budget overflows, and in a template a column name that is no slot,
/// stay compile errors.
///
/// Names resolve against `schema` for program text, or through `slots`
/// for a template skeleton.
struct Builder {
  Plan plan;
  bool over_budget = false;
  const Schema* schema = nullptr;
  const TemplateSlots* slots = nullptr;
  Status not_a_slot;  ///< a template column name no slot matched

  explicit Builder(const Schema& s) : schema(&s) {}
  explicit Builder(const TemplateSlots& t) : slots(&t) {
    // Open entries first, so slot i is pool entry i.
    plan.num_slots = static_cast<uint16_t>(t.fields.size());
    plan.pool.resize(t.fields.size());
  }

  Result<uint16_t> Alloc() {
    if (plan.num_regs >= kMaxRegs) {
      over_budget = true;
      return Status::InvalidArgument("bytecode: register budget exceeded");
    }
    return static_cast<uint16_t>(plan.num_regs++);
  }

  Result<uint16_t> AddPool(Value v) {
    if (plan.pool.size() >= kMaxPool) {
      over_budget = true;
      return Status::InvalidArgument("bytecode: constant pool exceeded");
    }
    plan.pool.push_back(std::move(v));
    return static_cast<uint16_t>(plan.pool.size() - 1);
  }

  /// A literal or name written `field`: its open slot in a template, else
  /// `v` pooled.
  Result<uint16_t> Constant(Value v, std::string_view field) {
    if (slots != nullptr) {
      for (size_t i = 0; i < slots->fields.size(); ++i) {
        if (slots->fields[i] == field) return static_cast<uint16_t>(i);
      }
    }
    return AddPool(std::move(v));
  }

  /// The position of the column named `name`.
  Result<uint32_t> Column(std::string_view name) {
    Result<uint32_t> c = Resolve(name);
    if (c.ok()) plan.num_columns = std::max(plan.num_columns, *c + 1);
    return c;
  }

  void Emit(Op op, uint16_t dst, uint16_t a, uint16_t b, uint32_t imm,
            uint32_t imm2) {
    Insn insn;
    insn.op = static_cast<uint16_t>(op);
    insn.dst = dst;
    insn.a = a;
    insn.b = b;
    insn.imm = imm;
    insn.imm2 = imm2;
    plan.code.push_back(insn);
  }

  /// Emits kFail raising `error`: unconditionally (ending the plan), or —
  /// given `when_rows` — only if that row view is non-empty.
  Status EmitFail(const Status& error,
                  std::optional<uint16_t> when_rows = std::nullopt) {
    UCTR_ASSIGN_OR_RETURN(uint16_t msg,
                          AddPool(Value::String(error.message())));
    uint32_t imm2 = static_cast<uint32_t>(error.code()) |
                    (when_rows.has_value() ? 1u << 8 : 0);
    Emit(Op::kFail, 0, when_rows.value_or(0), 0, msg, imm2);
    return Status::OK();
  }

  /// `lowered` is the lowering's outcome: OK when it emitted its return,
  /// else the walker error that ends the plan.
  Result<Plan> Finish(Family family, Status lowered) {
    if (!not_a_slot.ok()) return not_a_slot;
    if (!lowered.ok()) {
      if (over_budget) return lowered;
      UCTR_RETURN_NOT_OK(EmitFail(lowered));
    }
    plan.family = family;
    plan.pool_keys.reserve(plan.pool.size());
    for (const Value& v : plan.pool) plan.pool_keys.emplace_back(v);
    return std::move(plan);
  }

 private:
  Result<uint32_t> Resolve(std::string_view name) {
    if (schema != nullptr) {
      UCTR_ASSIGN_OR_RETURN(size_t c, schema->ColumnIndex(name));
      return static_cast<uint32_t>(c);
    }
    for (const auto& [marker, position] : slots->columns) {
      if (marker == name) return position;
    }
    not_a_slot = Status::InvalidArgument("template column '" +
                                         std::string(name) +
                                         "' is not a column slot");
    return not_a_slot;
  }
};

}  // namespace

uint64_t ProgramFingerprint(Family family, std::string_view text) {
  // Streamed, allocation-free: this runs on every program execution.
  const char tag = static_cast<char>(family);
  return hash::Fnv1a64(
      text, hash::Fnv1a64({&tag, 1}, hash::kFnv64TruncatedBasis));
}

uint64_t TemplateFingerprint(Family family, std::string_view pattern) {
  // Family tags are 0-2; program text never starts with this one.
  const char tag = static_cast<char>(0x80 | static_cast<int>(family));
  return hash::Fnv1a64(
      pattern, hash::Fnv1a64({&tag, 1}, hash::kFnv64TruncatedBasis));
}

uint64_t ColumnsFingerprint(std::span<const uint32_t> columns) {
  uint64_t h = hash::kFnv64Basis;
  for (uint32_t c : columns) {
    h = hash::Mix64(h ^ (c + hash::kGoldenGamma));
  }
  return h;
}

// --------------------------------------------------------------------------
// SQL lowering
// --------------------------------------------------------------------------

namespace {

/// Lowers the projection. A plain item's columns resolve only once a row
/// reaches it, item by item within the first row, so a bad one fails after
/// the earlier items of row 0 ran and only when `rows` is non-empty.
Status LowerSqlProjection(Builder* b, const sql::SelectStatement& stmt,
                          uint16_t rows, bool any_aggregate) {
  if (any_aggregate) {
    for (const sql::SelectItem& item : stmt.items) {
      if (item.agg == sql::AggFunc::kNone) {
        return Status::InvalidArgument(
            "mixing aggregates and plain columns is not supported");
      }
      if (item.star && item.agg != sql::AggFunc::kCount) {
        // The parser never builds this; refuse rather than guess.
        return Status::InvalidArgument("'*' only allowed in COUNT(*)");
      }
      uint32_t c = 0;
      if (!item.star) {
        UCTR_ASSIGN_OR_RETURN(c, b->Column(item.column));
      }
      uint32_t imm2 = static_cast<uint32_t>(item.agg) |
                      (item.star ? 1u << 8 : 0) |
                      (item.distinct ? 1u << 9 : 0);
      UCTR_ASSIGN_OR_RETURN(uint16_t dst, b->Alloc());
      b->Emit(Op::kSqlAgg, dst, rows, 0, c, imm2);
      b->Emit(Op::kEmitValue, 0, dst, 0, 0, 0);
    }
    b->Emit(Op::kReturnSql, 0, rows, 0, 1, 0);
    return Status::OK();
  }

  uint32_t aux_start = static_cast<uint32_t>(b->plan.aux.size());
  uint32_t resolved = 0;
  Status missing;
  for (const sql::SelectItem& item : stmt.items) {
    Result<uint32_t> c = b->Column(item.column);
    Result<uint32_t> rhs = uint32_t{0};
    if (c.ok() && item.arith != sql::ArithOp::kNone) {
      rhs = b->Column(item.rhs_column);
    }
    if (!c.ok() || !rhs.ok()) {
      missing = !c.ok() ? c.status() : rhs.status();
      break;
    }
    b->plan.aux.push_back(*c);
    b->plan.aux.push_back(static_cast<uint32_t>(item.arith));
    b->plan.aux.push_back(*rhs);
    ++resolved;
  }
  if (missing.ok()) {
    b->Emit(Op::kSqlProject, 0, rows, 0, aux_start, resolved);
  } else {
    UCTR_ASSIGN_OR_RETURN(uint16_t first, b->Alloc());
    b->Emit(Op::kLimit, first, rows, 0, 1, 0);
    b->Emit(Op::kSqlProject, 0, first, 0, aux_start, resolved);
    UCTR_RETURN_NOT_OK(b->EmitFail(missing, rows));
  }
  b->Emit(Op::kReturnSql, 0, rows, 0, 0, 0);
  return Status::OK();
}

Status LowerSqlInto(Builder* b, const sql::SelectStatement& stmt) {
  UCTR_ASSIGN_OR_RETURN(uint16_t rows, b->Alloc());
  b->Emit(Op::kAllRows, rows, 0, 0, 0, 0);

  // A conjunct's column resolves only once a row reaches it: a bad one
  // fails only if rows survived the conjuncts before it, and past it the
  // view is empty, so later conjuncts are never resolved.
  for (const sql::Condition& cond : stmt.where) {
    Result<uint32_t> c = b->Column(cond.column);
    if (!c.ok()) {
      UCTR_RETURN_NOT_OK(b->EmitFail(c.status(), rows));
      break;
    }
    UCTR_ASSIGN_OR_RETURN(uint16_t lit,
                          b->Constant(cond.literal, cond.literal.text()));
    UCTR_ASSIGN_OR_RETURN(uint16_t dst, b->Alloc());
    b->Emit(Op::kSqlFilter, dst, rows, lit, *c,
            static_cast<uint32_t>(cond.op));
    rows = dst;
  }

  if (stmt.order_by) {
    UCTR_ASSIGN_OR_RETURN(uint32_t c, b->Column(stmt.order_by->column));
    UCTR_ASSIGN_OR_RETURN(uint16_t dst, b->Alloc());
    b->Emit(Op::kOrderBy, dst, rows, 0, c,
            stmt.order_by->descending ? 1 : 0);
    rows = dst;
  }

  // A LIMIT above uint32 can never truncate (row counts are far smaller);
  // the walker's no-op behavior is preserved by emitting nothing.
  if (stmt.limit && *stmt.limit >= 0 &&
      *stmt.limit <= static_cast<int64_t>(UINT32_MAX)) {
    UCTR_ASSIGN_OR_RETURN(uint16_t dst, b->Alloc());
    b->Emit(Op::kLimit, dst, rows, 0, static_cast<uint32_t>(*stmt.limit), 0);
    rows = dst;
  }

  bool any_aggregate = false;
  for (const sql::SelectItem& item : stmt.items) {
    if (item.agg != sql::AggFunc::kNone) any_aggregate = true;
  }
  return LowerSqlProjection(b, stmt, rows, any_aggregate);
}

}  // namespace

namespace {

Result<Plan> LowerSqlWith(Builder b, const sql::SelectStatement& stmt) {
  Status lowered = LowerSqlInto(&b, stmt);
  return b.Finish(Family::kSql, std::move(lowered));
}

}  // namespace

Result<Plan> LowerSql(const sql::SelectStatement& stmt, const Schema& schema) {
  return LowerSqlWith(Builder(schema), stmt);
}

Result<Plan> LowerSql(const sql::SelectStatement& stmt,
                      const TemplateSlots& slots) {
  return LowerSqlWith(Builder(slots), stmt);
}

// --------------------------------------------------------------------------
// Logic lowering
// --------------------------------------------------------------------------

namespace {

using logic::internal::CmpKind;

/// Recursive lowering of a logical-form tree. Emission order is the
/// walker's evaluation order (sub-views before scalar refs before the
/// operator), and every static check returns the walker's Status at the
/// point the walker makes it, so errors surface in the same sequence.
struct LogicLowerer {
  Builder* b;

  struct Out {
    uint16_t reg = 0;
    bool is_view = false;
  };

  Status ExpectArgs(const logic::Node& node, size_t n) {
    if (node.args.size() != n) {
      return Status::InvalidArgument(
          "operator '" + node.name + "' expects " + std::to_string(n) +
          " args, got " + std::to_string(node.args.size()));
    }
    return Status::OK();
  }

  Result<uint32_t> Column(const logic::Node& node) {
    if (!node.is_literal) {
      return Status::InvalidArgument("column argument must be a literal");
    }
    return b->Column(node.name);
  }

  Result<uint16_t> GenView(const logic::Node& node) {
    UCTR_ASSIGN_OR_RETURN(Out out, Gen(node));
    if (!out.is_view) {
      return Status::TypeError("operator '" + node.name +
                               "' does not produce a row view");
    }
    return out.reg;
  }

  Result<uint16_t> GenScalar(const logic::Node& node) {
    UCTR_ASSIGN_OR_RETURN(Out out, Gen(node));
    if (out.is_view) {
      return Status::TypeError("expected scalar, got view from '" +
                               node.name + "'");
    }
    return out.reg;
  }

  Result<Out> View(uint16_t reg) { return Out{reg, true}; }
  Result<Out> Scalar(uint16_t reg) { return Out{reg, false}; }

  Result<Out> GenArgSuper(const logic::Node& node, bool max, bool nth) {
    UCTR_RETURN_NOT_OK(ExpectArgs(node, nth ? 3 : 2));
    UCTR_ASSIGN_OR_RETURN(uint16_t view, GenView(*node.args[0]));
    UCTR_ASSIGN_OR_RETURN(uint32_t col, Column(*node.args[1]));
    uint16_t ordinal = 0;
    if (nth) {
      UCTR_ASSIGN_OR_RETURN(ordinal, GenScalar(*node.args[2]));
    }
    UCTR_ASSIGN_OR_RETURN(uint16_t dst, b->Alloc());
    b->Emit(Op::kArgSuper, dst, view, ordinal, col,
            (max ? 1u : 0) | (nth ? 2u : 0));
    return View(dst);
  }

  Result<Out> Gen(const logic::Node& node) {
    if (node.is_literal) {
      UCTR_ASSIGN_OR_RETURN(uint16_t dst, b->Alloc());
      if (EqualsIgnoreCase(node.name, "all_rows")) {
        b->Emit(Op::kAllRows, dst, 0, 0, 0, 0);
        return View(dst);
      }
      UCTR_ASSIGN_OR_RETURN(
          uint16_t idx, b->Constant(Value::FromText(node.name), node.name));
      b->Emit(Op::kLoadConst, dst, 0, 0, idx, 0);
      return Scalar(dst);
    }

    const std::string& op = node.name;

    if (StartsWith(op, "filter_")) {
      if (op == "filter_all") {
        UCTR_RETURN_NOT_OK(ExpectArgs(node, 2));
        UCTR_ASSIGN_OR_RETURN(uint16_t view, GenView(*node.args[0]));
        UCTR_ASSIGN_OR_RETURN(uint32_t col, Column(*node.args[1]));
        UCTR_ASSIGN_OR_RETURN(uint16_t dst, b->Alloc());
        b->Emit(Op::kFilterAll, dst, view, 0, col, 0);
        return View(dst);
      }
      UCTR_ASSIGN_OR_RETURN(CmpKind cmp,
                            logic::internal::CmpFromSuffix(op, "filter_"));
      UCTR_RETURN_NOT_OK(ExpectArgs(node, 3));
      UCTR_ASSIGN_OR_RETURN(uint16_t view, GenView(*node.args[0]));
      UCTR_ASSIGN_OR_RETURN(uint32_t col, Column(*node.args[1]));
      UCTR_ASSIGN_OR_RETURN(uint16_t ref, GenScalar(*node.args[2]));
      UCTR_ASSIGN_OR_RETURN(uint16_t dst, b->Alloc());
      b->Emit(Op::kFilterCmp, dst, view, ref, col,
              static_cast<uint32_t>(cmp));
      return View(dst);
    }
    if (op == "argmax") return GenArgSuper(node, true, false);
    if (op == "argmin") return GenArgSuper(node, false, false);
    if (op == "nth_argmax") return GenArgSuper(node, true, true);
    if (op == "nth_argmin") return GenArgSuper(node, false, true);

    if (op == "hop" || op == "num_hop" || op == "str_hop") {
      UCTR_RETURN_NOT_OK(ExpectArgs(node, 2));
      UCTR_ASSIGN_OR_RETURN(uint16_t view, GenView(*node.args[0]));
      UCTR_ASSIGN_OR_RETURN(uint32_t col, Column(*node.args[1]));
      UCTR_ASSIGN_OR_RETURN(uint16_t dst, b->Alloc());
      b->Emit(Op::kHop, dst, view, 0, col, 0);
      return Scalar(dst);
    }
    if (op == "count") {
      UCTR_RETURN_NOT_OK(ExpectArgs(node, 1));
      UCTR_ASSIGN_OR_RETURN(uint16_t view, GenView(*node.args[0]));
      UCTR_ASSIGN_OR_RETURN(uint16_t dst, b->Alloc());
      b->Emit(Op::kCount, dst, view, 0, 0, 0);
      return Scalar(dst);
    }
    if (op == "max" || op == "min" || op == "nth_max" || op == "nth_min") {
      bool max = op == "max" || op == "nth_max";
      bool nth = StartsWith(op, "nth_");
      UCTR_ASSIGN_OR_RETURN(Out row_view, GenArgSuper(node, max, nth));
      UCTR_ASSIGN_OR_RETURN(uint32_t col, Column(*node.args[1]));
      UCTR_ASSIGN_OR_RETURN(uint16_t dst, b->Alloc());
      b->Emit(Op::kCellFirst, dst, row_view.reg, 0, col, 0);
      return Scalar(dst);
    }
    if (op == "sum" || op == "avg" || op == "average") {
      UCTR_RETURN_NOT_OK(ExpectArgs(node, 2));
      UCTR_ASSIGN_OR_RETURN(uint16_t view, GenView(*node.args[0]));
      UCTR_ASSIGN_OR_RETURN(uint32_t col, Column(*node.args[1]));
      UCTR_ASSIGN_OR_RETURN(uint16_t dst, b->Alloc());
      b->Emit(Op::kLogicAgg, dst, view, 0, col, op == "sum" ? 0 : 1);
      return Scalar(dst);
    }
    if (op == "diff") {
      UCTR_RETURN_NOT_OK(ExpectArgs(node, 2));
      UCTR_ASSIGN_OR_RETURN(uint16_t x, GenScalar(*node.args[0]));
      UCTR_ASSIGN_OR_RETURN(uint16_t y, GenScalar(*node.args[1]));
      UCTR_ASSIGN_OR_RETURN(uint16_t dst, b->Alloc());
      b->Emit(Op::kDiff, dst, x, y, 0, 0);
      return Scalar(dst);
    }

    if (op == "eq" || op == "not_eq" || op == "round_eq" || op == "greater" ||
        op == "less") {
      UCTR_RETURN_NOT_OK(ExpectArgs(node, 2));
      UCTR_ASSIGN_OR_RETURN(uint16_t x, GenScalar(*node.args[0]));
      UCTR_ASSIGN_OR_RETURN(uint16_t y, GenScalar(*node.args[1]));
      uint32_t kind = op == "eq"         ? 0
                      : op == "not_eq"   ? 1
                      : op == "round_eq" ? 2
                      : op == "greater"  ? 3
                                         : 4;
      UCTR_ASSIGN_OR_RETURN(uint16_t dst, b->Alloc());
      b->Emit(Op::kBoolCmp, dst, x, y, 0, kind);
      return Scalar(dst);
    }
    if (op == "and" || op == "or") {
      UCTR_RETURN_NOT_OK(ExpectArgs(node, 2));
      UCTR_ASSIGN_OR_RETURN(uint16_t x, GenScalar(*node.args[0]));
      UCTR_ASSIGN_OR_RETURN(uint16_t y, GenScalar(*node.args[1]));
      UCTR_ASSIGN_OR_RETURN(uint16_t dst, b->Alloc());
      b->Emit(Op::kBoolAndOr, dst, x, y, 0, op == "and" ? 1 : 0);
      return Scalar(dst);
    }
    if (op == "not") {
      UCTR_RETURN_NOT_OK(ExpectArgs(node, 1));
      UCTR_ASSIGN_OR_RETURN(uint16_t x, GenScalar(*node.args[0]));
      UCTR_ASSIGN_OR_RETURN(uint16_t dst, b->Alloc());
      b->Emit(Op::kBoolNot, dst, x, 0, 0, 0);
      return Scalar(dst);
    }
    if (op == "only") {
      UCTR_RETURN_NOT_OK(ExpectArgs(node, 1));
      UCTR_ASSIGN_OR_RETURN(uint16_t view, GenView(*node.args[0]));
      UCTR_ASSIGN_OR_RETURN(uint16_t dst, b->Alloc());
      b->Emit(Op::kOnly, dst, view, 0, 0, 0);
      return Scalar(dst);
    }
    if (StartsWith(op, "most_") || StartsWith(op, "all_")) {
      bool require_all = StartsWith(op, "all_");
      UCTR_ASSIGN_OR_RETURN(
          CmpKind cmp,
          logic::internal::CmpFromSuffix(op, require_all ? "all_" : "most_"));
      UCTR_RETURN_NOT_OK(ExpectArgs(node, 3));
      UCTR_ASSIGN_OR_RETURN(uint16_t view, GenView(*node.args[0]));
      UCTR_ASSIGN_OR_RETURN(uint32_t col, Column(*node.args[1]));
      UCTR_ASSIGN_OR_RETURN(uint16_t ref, GenScalar(*node.args[2]));
      UCTR_ASSIGN_OR_RETURN(uint16_t dst, b->Alloc());
      b->Emit(Op::kMajority, dst, view, ref, col,
              static_cast<uint32_t>(cmp) | (require_all ? 1u << 8 : 0));
      return Scalar(dst);
    }

    return Status::InvalidArgument("unknown logical-form operator '" + op +
                                   "'");
  }
};

}  // namespace

namespace {

Result<Plan> LowerLogicWith(Builder b, const logic::Node& node) {
  LogicLowerer lowerer{&b};
  Result<LogicLowerer::Out> out = lowerer.Gen(node);
  if (out.ok()) {
    b.Emit(Op::kReturnLogic, 0, out->reg, 0, out->is_view ? 1 : 0, 0);
  }
  return b.Finish(Family::kLogic, out.status());
}

}  // namespace

Result<Plan> LowerLogic(const logic::Node& node, const Schema& schema) {
  return LowerLogicWith(Builder(schema), node);
}

Result<Plan> LowerLogic(const logic::Node& node, const TemplateSlots& slots) {
  return LowerLogicWith(Builder(slots), node);
}

// --------------------------------------------------------------------------
// Arith lowering
// --------------------------------------------------------------------------

namespace {

Result<uint16_t> LowerArithOperand(Builder* b, const arith::Operand& op,
                                   const std::vector<uint16_t>& step_regs) {
  switch (op.kind) {
    case arith::Operand::Kind::kStepRef:
      if (op.step_ref >= step_regs.size()) {
        return Status::OutOfRange("forward step reference #" +
                                  std::to_string(op.step_ref));
      }
      return step_regs[op.step_ref];
    case arith::Operand::Kind::kConst: {
      UCTR_ASSIGN_OR_RETURN(uint16_t idx,
                            b->AddPool(Value::Number(op.constant)));
      UCTR_ASSIGN_OR_RETURN(uint16_t dst, b->Alloc());
      b->Emit(Op::kLoadConst, dst, 0, 0, idx, 0);
      return dst;
    }
    case arith::Operand::Kind::kCellRef: {
      UCTR_ASSIGN_OR_RETURN(uint16_t pc,
                            b->Constant(Value::String(op.column), op.column));
      UCTR_ASSIGN_OR_RETURN(uint16_t pr,
                            b->Constant(Value::String(op.row), op.row));
      UCTR_ASSIGN_OR_RETURN(uint16_t pt,
                            b->Constant(Value::String(op.text), op.text));
      uint32_t aux_start = static_cast<uint32_t>(b->plan.aux.size());
      b->plan.aux.push_back(pc);
      b->plan.aux.push_back(pr);
      b->plan.aux.push_back(pt);
      UCTR_ASSIGN_OR_RETURN(uint16_t dst, b->Alloc());
      b->Emit(Op::kCellLookup, dst, 0, 0, aux_start, 0);
      return dst;
    }
    case arith::Operand::Kind::kText: {
      Value v = Value::FromText(op.text);
      if (!v.is_number()) {
        return Status::ExecutionError("cannot resolve operand '" + op.text +
                                      "' to a number");
      }
      UCTR_ASSIGN_OR_RETURN(uint16_t idx, b->AddPool(std::move(v)));
      UCTR_ASSIGN_OR_RETURN(uint16_t dst, b->Alloc());
      b->Emit(Op::kLoadConst, dst, 0, 0, idx, 0);
      return dst;
    }
  }
  return Status::Internal("unreachable");
}

/// One step, in the walker's order: arity, then operands (or the series),
/// then the operation name, whose check comes last.
Result<uint16_t> LowerArithStep(Builder* b, const arith::Step& step,
                                const std::vector<uint16_t>& step_regs) {
  if (StartsWith(step.op, "table_")) {
    if (step.args.size() != 1) {
      return Status::InvalidArgument(step.op + " expects 1 argument");
    }
    const arith::Operand& arg = step.args[0];
    std::string name = arg.kind == arith::Operand::Kind::kCellRef
                           ? arg.column + " of " + arg.row
                           : arg.text;
    uint32_t kind = step.op == "table_max"       ? 0
                    : step.op == "table_min"     ? 1
                    : step.op == "table_sum"     ? 2
                    : step.op == "table_average" ? 3
                                                 : 4;
    UCTR_ASSIGN_OR_RETURN(uint16_t idx, b->Constant(Value::String(name), name));
    UCTR_ASSIGN_OR_RETURN(uint16_t dst, b->Alloc());
    b->Emit(Op::kTableAgg, dst, 0, 0, idx, kind == 4 ? 0 : kind);
    if (kind == 4) {
      return Status::InvalidArgument("unknown table op '" + step.op + "'");
    }
    return dst;
  }

  if (step.args.size() != 2) {
    return Status::InvalidArgument(step.op + " expects 2 arguments");
  }
  UCTR_ASSIGN_OR_RETURN(uint16_t ra,
                        LowerArithOperand(b, step.args[0], step_regs));
  UCTR_ASSIGN_OR_RETURN(uint16_t rb,
                        LowerArithOperand(b, step.args[1], step_regs));
  static constexpr const char* kBinOps[] = {"add",    "subtract", "multiply",
                                            "divide", "greater",  "exp"};
  for (uint32_t code = 0; code < std::size(kBinOps); ++code) {
    if (step.op != kBinOps[code]) continue;
    UCTR_ASSIGN_OR_RETURN(uint16_t dst, b->Alloc());
    b->Emit(Op::kArithBin, dst, ra, rb, 0, code);
    return dst;
  }
  return Status::InvalidArgument("unknown operation '" + step.op + "'");
}

}  // namespace

namespace {

Result<Plan> LowerArithWith(Builder b, const arith::Expression& expr) {
  if (expr.steps.empty()) {
    // The parser never builds this (the walker has no answer to return).
    return Status::ParseError("empty arithmetic expression");
  }
  std::vector<uint16_t> step_regs;
  Status lowered;
  for (const arith::Step& step : expr.steps) {
    Result<uint16_t> reg = LowerArithStep(&b, step, step_regs);
    if (!reg.ok()) {
      lowered = reg.status();
      break;
    }
    step_regs.push_back(*reg);
  }
  if (lowered.ok()) b.Emit(Op::kReturnArith, 0, step_regs.back(), 0, 0, 0);
  return b.Finish(Family::kArith, std::move(lowered));
}

}  // namespace

Result<Plan> LowerArith(const arith::Expression& expr, const Schema& schema) {
  return LowerArithWith(Builder(schema), expr);
}

Result<Plan> LowerArith(const arith::Expression& expr,
                        const TemplateSlots& slots) {
  return LowerArithWith(Builder(slots), expr);
}

Result<Plan> Compile(Family family, std::string_view text,
                     const Schema& schema) {
  switch (family) {
    case Family::kSql: {
      UCTR_ASSIGN_OR_RETURN(sql::SelectStatement stmt, sql::Parse(text));
      return LowerSql(stmt, schema);
    }
    case Family::kLogic: {
      UCTR_ASSIGN_OR_RETURN(std::unique_ptr<logic::Node> node,
                            logic::Parse(text));
      return LowerLogic(*node, schema);
    }
    case Family::kArith: {
      UCTR_ASSIGN_OR_RETURN(arith::Expression expr, arith::Parse(text));
      return LowerArith(expr, schema);
    }
  }
  return Status::InvalidArgument("unknown program family");
}

}  // namespace uctr::ir
