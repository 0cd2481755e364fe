#include "ir/ir.h"

#include <string>
#include <utility>

#include "arith/ast.h"
#include "arith/parser.h"
#include "common/string_util.h"
#include "logic/ast.h"
#include "logic/exec_internal.h"
#include "logic/parser.h"
#include "sql/ast.h"
#include "sql/parser.h"

namespace uctr::ir {

namespace {

// Bytecode layout limits. Register and pool operands travel in uint16
// fields; programs large enough to blow them are rejected to the walker.
constexpr size_t kMaxRegs = 0xFFFF;
constexpr size_t kMaxPool = 0xFFFF;

/// Incremental plan builder shared by the three lowerings. Every reject
/// carries the reason so bench/tests can see *why* a template fell back.
struct Builder {
  Plan plan;

  Result<uint16_t> Alloc() {
    if (plan.num_regs >= kMaxRegs) {
      return Status::InvalidArgument("bytecode: register budget exceeded");
    }
    return static_cast<uint16_t>(plan.num_regs++);
  }

  Result<uint16_t> AddPool(Value v) {
    if (plan.pool.size() >= kMaxPool) {
      return Status::InvalidArgument("bytecode: constant pool exceeded");
    }
    plan.pool.push_back(std::move(v));
    return static_cast<uint16_t>(plan.pool.size() - 1);
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

  Result<Plan> Finish(Family family, const Schema& schema) {
    plan.family = family;
    plan.num_columns = static_cast<uint32_t>(schema.num_columns());
    plan.schema_fp = SchemaFingerprint(schema);
    plan.pool_keys.reserve(plan.pool.size());
    for (const Value& v : plan.pool) plan.pool_keys.emplace_back(v);
    return std::move(plan);
  }
};

Result<uint32_t> ResolveColumn(const Schema& schema, std::string_view name) {
  UCTR_ASSIGN_OR_RETURN(size_t c, schema.ColumnIndex(name));
  return static_cast<uint32_t>(c);
}

}  // namespace

const char* FamilyToString(Family family) {
  switch (family) {
    case Family::kSql:
      return "sql";
    case Family::kLogic:
      return "logic";
    case Family::kArith:
      return "arith";
  }
  return "unknown";
}

uint64_t SchemaFingerprint(const Schema& schema) {
  // Canonical definition lives on Schema so TableIndex can cache it once
  // per table instead of re-hashing column names on every request.
  return schema.Fingerprint();
}

uint64_t ProgramFingerprint(Family family, std::string_view text) {
  // Streamed, allocation-free: this runs on every VM-path request.
  uint64_t h = 1469598103934665603ULL;
  h ^= static_cast<unsigned char>(family);
  h *= 1099511628211ULL;
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// --------------------------------------------------------------------------
// SQL lowering
// --------------------------------------------------------------------------

Result<Plan> LowerSql(const sql::SelectStatement& stmt, const Schema& schema) {
  Builder b;
  UCTR_ASSIGN_OR_RETURN(uint16_t rows, b.Alloc());
  b.Emit(Op::kAllRows, rows, 0, 0, 0, 0);

  for (const sql::Condition& cond : stmt.where) {
    UCTR_ASSIGN_OR_RETURN(uint32_t c, ResolveColumn(schema, cond.column));
    UCTR_ASSIGN_OR_RETURN(uint16_t lit, b.AddPool(cond.literal));
    UCTR_ASSIGN_OR_RETURN(uint16_t dst, b.Alloc());
    b.Emit(Op::kSqlFilter, dst, rows, lit, c,
           static_cast<uint32_t>(cond.op));
    rows = dst;
  }

  if (stmt.order_by) {
    UCTR_ASSIGN_OR_RETURN(uint32_t c,
                          ResolveColumn(schema, stmt.order_by->column));
    UCTR_ASSIGN_OR_RETURN(uint16_t dst, b.Alloc());
    b.Emit(Op::kOrderBy, dst, rows, 0, c,
           stmt.order_by->descending ? 1 : 0);
    rows = dst;
  }

  // A LIMIT above uint32 can never truncate (row counts are far smaller);
  // the walker's no-op behavior is preserved by emitting nothing.
  if (stmt.limit && *stmt.limit >= 0 &&
      *stmt.limit <= static_cast<int64_t>(UINT32_MAX)) {
    UCTR_ASSIGN_OR_RETURN(uint16_t dst, b.Alloc());
    b.Emit(Op::kLimit, dst, rows, 0, static_cast<uint32_t>(*stmt.limit), 0);
    rows = dst;
  }

  bool any_aggregate = false;
  bool any_plain = false;
  for (const sql::SelectItem& item : stmt.items) {
    (item.agg != sql::AggFunc::kNone ? any_aggregate : any_plain) = true;
  }
  if (any_aggregate && any_plain) {
    // The walker rejects this at projection time; fall back so the exact
    // InvalidArgument surfaces from the reference path.
    return Status::InvalidArgument(
        "bytecode: mixed aggregate/plain projection");
  }

  if (any_aggregate) {
    for (const sql::SelectItem& item : stmt.items) {
      uint32_t c = 0;
      if (item.star) {
        if (item.agg != sql::AggFunc::kCount) {
          return Status::InvalidArgument("bytecode: '*' outside COUNT");
        }
      } else {
        UCTR_ASSIGN_OR_RETURN(c, ResolveColumn(schema, item.column));
      }
      uint32_t imm2 = static_cast<uint32_t>(item.agg) |
                      (item.star ? 1u << 8 : 0) |
                      (item.distinct ? 1u << 9 : 0);
      UCTR_ASSIGN_OR_RETURN(uint16_t dst, b.Alloc());
      b.Emit(Op::kSqlAgg, dst, rows, 0, c, imm2);
      b.Emit(Op::kEmitValue, 0, dst, 0, 0, 0);
    }
  } else {
    uint32_t aux_start = static_cast<uint32_t>(b.plan.aux.size());
    for (const sql::SelectItem& item : stmt.items) {
      UCTR_ASSIGN_OR_RETURN(uint32_t c, ResolveColumn(schema, item.column));
      uint32_t rhs = 0;
      if (item.arith != sql::ArithOp::kNone) {
        UCTR_ASSIGN_OR_RETURN(rhs, ResolveColumn(schema, item.rhs_column));
      }
      b.plan.aux.push_back(c);
      b.plan.aux.push_back(static_cast<uint32_t>(item.arith));
      b.plan.aux.push_back(rhs);
    }
    b.Emit(Op::kSqlProject, 0, rows, 0, aux_start,
           static_cast<uint32_t>(stmt.items.size()));
  }

  b.Emit(Op::kReturnSql, 0, rows, 0, any_aggregate ? 1 : 0, 0);
  return b.Finish(Family::kSql, schema);
}

// --------------------------------------------------------------------------
// Logic lowering
// --------------------------------------------------------------------------

namespace {

using logic::internal::CmpKind;

/// Recursive lowering of a logical-form tree. Emission order is the
/// walker's evaluation order (sub-views before scalar refs before the
/// operator), so runtime errors surface in the same sequence.
struct LogicLowerer {
  Builder* b;
  const Schema* schema;

  struct Out {
    uint16_t reg = 0;
    bool is_view = false;
  };

  Status ExpectArgs(const logic::Node& node, size_t n) {
    if (node.args.size() != n) {
      return Status::InvalidArgument("bytecode: '" + node.name +
                                     "' arity mismatch");
    }
    return Status::OK();
  }

  Result<uint32_t> Column(const logic::Node& node) {
    if (!node.is_literal) {
      return Status::InvalidArgument("bytecode: non-literal column argument");
    }
    return ResolveColumn(*schema, node.name);
  }

  Result<uint16_t> GenView(const logic::Node& node) {
    UCTR_ASSIGN_OR_RETURN(Out out, Gen(node));
    if (!out.is_view) {
      return Status::InvalidArgument("bytecode: expected view operand");
    }
    return out.reg;
  }

  Result<uint16_t> GenScalar(const logic::Node& node) {
    UCTR_ASSIGN_OR_RETURN(Out out, Gen(node));
    if (out.is_view) {
      return Status::InvalidArgument("bytecode: expected scalar operand");
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
      UCTR_ASSIGN_OR_RETURN(uint16_t idx,
                            b->AddPool(Value::FromText(node.name)));
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

    return Status::InvalidArgument("bytecode: unknown operator '" + op + "'");
  }
};

}  // namespace

Result<Plan> LowerLogic(const logic::Node& node, const Schema& schema) {
  Builder b;
  LogicLowerer lowerer{&b, &schema};
  UCTR_ASSIGN_OR_RETURN(LogicLowerer::Out out, lowerer.Gen(node));
  b.Emit(Op::kReturnLogic, 0, out.reg, 0, out.is_view ? 1 : 0, 0);
  return b.Finish(Family::kLogic, schema);
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
        // The walker raises OutOfRange at runtime; fall back so the exact
        // error surfaces from the reference path.
        return Status::InvalidArgument("bytecode: forward step reference");
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
      UCTR_ASSIGN_OR_RETURN(uint16_t pc, b->AddPool(Value::String(op.column)));
      UCTR_ASSIGN_OR_RETURN(uint16_t pr, b->AddPool(Value::String(op.row)));
      UCTR_ASSIGN_OR_RETURN(uint16_t pt, b->AddPool(Value::String(op.text)));
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
        // The walker raises ExecutionError when this operand is resolved;
        // fall back so the exact error surfaces from the reference path.
        return Status::InvalidArgument("bytecode: non-numeric text operand");
      }
      UCTR_ASSIGN_OR_RETURN(uint16_t idx, b->AddPool(std::move(v)));
      UCTR_ASSIGN_OR_RETURN(uint16_t dst, b->Alloc());
      b->Emit(Op::kLoadConst, dst, 0, 0, idx, 0);
      return dst;
    }
  }
  return Status::Internal("unreachable");
}

}  // namespace

Result<Plan> LowerArith(const arith::Expression& expr, const Schema& schema) {
  if (expr.steps.empty()) {
    return Status::InvalidArgument("bytecode: empty arithmetic program");
  }
  Builder b;
  std::vector<uint16_t> step_regs;
  for (const arith::Step& step : expr.steps) {
    if (StartsWith(step.op, "table_")) {
      uint32_t kind;
      if (step.op == "table_max") {
        kind = 0;
      } else if (step.op == "table_min") {
        kind = 1;
      } else if (step.op == "table_sum") {
        kind = 2;
      } else if (step.op == "table_average") {
        kind = 3;
      } else {
        return Status::InvalidArgument("bytecode: unknown table op");
      }
      if (step.args.size() != 1) {
        return Status::InvalidArgument("bytecode: table op arity mismatch");
      }
      const arith::Operand& arg = step.args[0];
      std::string name = arg.kind == arith::Operand::Kind::kCellRef
                             ? arg.column + " of " + arg.row
                             : arg.text;
      UCTR_ASSIGN_OR_RETURN(uint16_t idx,
                            b.AddPool(Value::String(std::move(name))));
      UCTR_ASSIGN_OR_RETURN(uint16_t dst, b.Alloc());
      b.Emit(Op::kTableAgg, dst, 0, 0, idx, kind);
      step_regs.push_back(dst);
      continue;
    }

    uint32_t code;
    if (step.op == "add") {
      code = 0;
    } else if (step.op == "subtract") {
      code = 1;
    } else if (step.op == "multiply") {
      code = 2;
    } else if (step.op == "divide") {
      code = 3;
    } else if (step.op == "greater") {
      code = 4;
    } else if (step.op == "exp") {
      code = 5;
    } else {
      return Status::InvalidArgument("bytecode: unknown operation '" +
                                     step.op + "'");
    }
    if (step.args.size() != 2) {
      return Status::InvalidArgument("bytecode: binary op arity mismatch");
    }
    UCTR_ASSIGN_OR_RETURN(uint16_t ra,
                          LowerArithOperand(&b, step.args[0], step_regs));
    UCTR_ASSIGN_OR_RETURN(uint16_t rb,
                          LowerArithOperand(&b, step.args[1], step_regs));
    UCTR_ASSIGN_OR_RETURN(uint16_t dst, b.Alloc());
    b.Emit(Op::kArithBin, dst, ra, rb, 0, code);
    step_regs.push_back(dst);
  }
  b.Emit(Op::kReturnArith, 0, step_regs.back(), 0, 0, 0);
  return b.Finish(Family::kArith, schema);
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
