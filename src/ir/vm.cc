#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "arith/exec_internal.h"
#include "common/numeric.h"
#include "ir/ir.h"
#include "logic/exec_internal.h"
#include "obs/metrics.h"
#include "sql/ast.h"
#include "sql/exec_internal.h"
#include "table/index.h"

namespace uctr::ir {

namespace {

// ---------------------------------------------------------------------------
// Verifier
// ---------------------------------------------------------------------------

/// Abstract register type tracked by the verifier; the VM relies on it and
/// never re-checks slot kinds at runtime.
enum class RegState : uint8_t { kUninit, kRows, kValue };

Status Bad(const std::string& msg) {
  return Status::InvalidArgument("plan verify: " + msg);
}

bool OpInFamily(Family family, Op op) {
  if (op == Op::kFail) return true;
  switch (family) {
    case Family::kSql:
      switch (op) {
        case Op::kAllRows:
        case Op::kSqlFilter:
        case Op::kOrderBy:
        case Op::kLimit:
        case Op::kSqlAgg:
        case Op::kEmitValue:
        case Op::kSqlProject:
        case Op::kReturnSql:
          return true;
        default:
          return false;
      }
    case Family::kLogic:
      switch (op) {
        case Op::kLoadConst:
        case Op::kAllRows:
        case Op::kFilterCmp:
        case Op::kFilterAll:
        case Op::kMajority:
        case Op::kArgSuper:
        case Op::kCellFirst:
        case Op::kHop:
        case Op::kCount:
        case Op::kLogicAgg:
        case Op::kDiff:
        case Op::kBoolCmp:
        case Op::kBoolAndOr:
        case Op::kBoolNot:
        case Op::kOnly:
        case Op::kReturnLogic:
          return true;
        default:
          return false;
      }
    case Family::kArith:
      switch (op) {
        case Op::kLoadConst:
        case Op::kCellLookup:
        case Op::kArithBin:
        case Op::kTableAgg:
        case Op::kReturnArith:
          return true;
        default:
          return false;
      }
  }
  return false;
}

/// Returns and unconditional kFails end a plan; nothing may follow them.
bool IsTerminator(const Insn& insn) {
  Op op = static_cast<Op>(insn.op);
  return op == Op::kReturnSql || op == Op::kReturnLogic ||
         op == Op::kReturnArith ||
         (op == Op::kFail && ((insn.imm2 >> 8) & 1) == 0);
}

}  // namespace

Status VerifyPlan(const Plan& plan) {
  if (plan.family != Family::kSql && plan.family != Family::kLogic &&
      plan.family != Family::kArith) {
    return Bad("unknown family");
  }
  if (plan.code.empty()) return Bad("empty code");
  if (plan.num_slots > plan.pool.size()) return Bad("slots outside pool");

  std::vector<RegState> regs(plan.num_regs, RegState::kUninit);

  auto read = [&](uint16_t r, RegState want) -> Status {
    if (r >= regs.size()) return Bad("register out of bounds");
    if (regs[r] != want) return Bad("register type mismatch");
    return Status::OK();
  };
  auto write = [&](uint16_t r, RegState state) -> Status {
    if (r >= regs.size()) return Bad("dst register out of bounds");
    regs[r] = state;
    return Status::OK();
  };
  auto col_ok = [&](uint32_t c) -> Status {
    if (c >= plan.num_columns) return Bad("column index out of bounds");
    return Status::OK();
  };
  auto pool_ok = [&](uint32_t p) -> Status {
    if (p >= plan.pool.size()) return Bad("pool index out of bounds");
    return Status::OK();
  };

  for (size_t i = 0; i < plan.code.size(); ++i) {
    const Insn& insn = plan.code[i];
    Op op = static_cast<Op>(insn.op);
    if (!OpInFamily(plan.family, op)) return Bad("op outside family");
    bool last = i + 1 == plan.code.size();
    if (IsTerminator(insn) != last) {
      return Bad(last ? "final instruction does not end the plan"
                      : "plan ends before its final instruction");
    }

    switch (op) {
      case Op::kLoadConst:
        UCTR_RETURN_NOT_OK(pool_ok(insn.imm));
        UCTR_RETURN_NOT_OK(write(insn.dst, RegState::kValue));
        break;
      case Op::kAllRows:
        UCTR_RETURN_NOT_OK(write(insn.dst, RegState::kRows));
        break;
      case Op::kSqlFilter:
        UCTR_RETURN_NOT_OK(read(insn.a, RegState::kRows));
        UCTR_RETURN_NOT_OK(pool_ok(insn.b));
        UCTR_RETURN_NOT_OK(col_ok(insn.imm));
        if (insn.imm2 > 5) return Bad("bad cmp op");
        UCTR_RETURN_NOT_OK(write(insn.dst, RegState::kRows));
        break;
      case Op::kOrderBy:
        UCTR_RETURN_NOT_OK(read(insn.a, RegState::kRows));
        UCTR_RETURN_NOT_OK(col_ok(insn.imm));
        if (insn.imm2 > 1) return Bad("bad descending flag");
        UCTR_RETURN_NOT_OK(write(insn.dst, RegState::kRows));
        break;
      case Op::kLimit:
        UCTR_RETURN_NOT_OK(read(insn.a, RegState::kRows));
        UCTR_RETURN_NOT_OK(write(insn.dst, RegState::kRows));
        break;
      case Op::kSqlAgg: {
        UCTR_RETURN_NOT_OK(read(insn.a, RegState::kRows));
        uint32_t agg = insn.imm2 & 0xFF;
        bool star = (insn.imm2 >> 8) & 1;
        if (insn.imm2 >> 10) return Bad("bad aggregate flags");
        if (agg < 1 || agg > 5) return Bad("bad aggregate function");
        if (star && agg != static_cast<uint32_t>(sql::AggFunc::kCount)) {
          return Bad("'*' outside COUNT");
        }
        if (!star) UCTR_RETURN_NOT_OK(col_ok(insn.imm));
        UCTR_RETURN_NOT_OK(write(insn.dst, RegState::kValue));
        break;
      }
      case Op::kEmitValue:
        UCTR_RETURN_NOT_OK(read(insn.a, RegState::kValue));
        break;
      case Op::kSqlProject: {
        UCTR_RETURN_NOT_OK(read(insn.a, RegState::kRows));
        uint64_t end = static_cast<uint64_t>(insn.imm) + 3ULL * insn.imm2;
        if (end > plan.aux.size()) return Bad("projection aux out of bounds");
        for (uint32_t k = 0; k < insn.imm2; ++k) {
          UCTR_RETURN_NOT_OK(col_ok(plan.aux[insn.imm + 3 * k]));
          uint32_t arith = plan.aux[insn.imm + 3 * k + 1];
          if (arith > 2) return Bad("bad projection arith op");
          if (arith != 0) {
            UCTR_RETURN_NOT_OK(col_ok(plan.aux[insn.imm + 3 * k + 2]));
          }
        }
        break;
      }
      case Op::kReturnSql:
        UCTR_RETURN_NOT_OK(read(insn.a, RegState::kRows));
        if (insn.imm > 1) return Bad("bad any_aggregate flag");
        break;

      case Op::kFilterCmp:
        UCTR_RETURN_NOT_OK(read(insn.a, RegState::kRows));
        UCTR_RETURN_NOT_OK(read(insn.b, RegState::kValue));
        UCTR_RETURN_NOT_OK(col_ok(insn.imm));
        if (insn.imm2 > 5) return Bad("bad cmp kind");
        UCTR_RETURN_NOT_OK(write(insn.dst, RegState::kRows));
        break;
      case Op::kFilterAll:
        UCTR_RETURN_NOT_OK(read(insn.a, RegState::kRows));
        UCTR_RETURN_NOT_OK(col_ok(insn.imm));
        UCTR_RETURN_NOT_OK(write(insn.dst, RegState::kRows));
        break;
      case Op::kMajority:
        UCTR_RETURN_NOT_OK(read(insn.a, RegState::kRows));
        UCTR_RETURN_NOT_OK(read(insn.b, RegState::kValue));
        UCTR_RETURN_NOT_OK(col_ok(insn.imm));
        if ((insn.imm2 & 0xFF) > 5 || (insn.imm2 >> 9)) {
          return Bad("bad majority flags");
        }
        UCTR_RETURN_NOT_OK(write(insn.dst, RegState::kValue));
        break;
      case Op::kArgSuper:
        UCTR_RETURN_NOT_OK(read(insn.a, RegState::kRows));
        UCTR_RETURN_NOT_OK(col_ok(insn.imm));
        if (insn.imm2 > 3) return Bad("bad superlative flags");
        if (insn.imm2 & 2) {
          UCTR_RETURN_NOT_OK(read(insn.b, RegState::kValue));
        }
        UCTR_RETURN_NOT_OK(write(insn.dst, RegState::kRows));
        break;
      case Op::kCellFirst:
      case Op::kHop:
        UCTR_RETURN_NOT_OK(read(insn.a, RegState::kRows));
        UCTR_RETURN_NOT_OK(col_ok(insn.imm));
        UCTR_RETURN_NOT_OK(write(insn.dst, RegState::kValue));
        break;
      case Op::kCount:
      case Op::kOnly:
        UCTR_RETURN_NOT_OK(read(insn.a, RegState::kRows));
        UCTR_RETURN_NOT_OK(write(insn.dst, RegState::kValue));
        break;
      case Op::kLogicAgg:
        UCTR_RETURN_NOT_OK(read(insn.a, RegState::kRows));
        UCTR_RETURN_NOT_OK(col_ok(insn.imm));
        if (insn.imm2 > 1) return Bad("bad average flag");
        UCTR_RETURN_NOT_OK(write(insn.dst, RegState::kValue));
        break;
      case Op::kDiff:
      case Op::kBoolAndOr:
        UCTR_RETURN_NOT_OK(read(insn.a, RegState::kValue));
        UCTR_RETURN_NOT_OK(read(insn.b, RegState::kValue));
        if (op == Op::kBoolAndOr && insn.imm2 > 1) return Bad("bad and/or");
        UCTR_RETURN_NOT_OK(write(insn.dst, RegState::kValue));
        break;
      case Op::kBoolCmp:
        UCTR_RETURN_NOT_OK(read(insn.a, RegState::kValue));
        UCTR_RETURN_NOT_OK(read(insn.b, RegState::kValue));
        if (insn.imm2 > 4) return Bad("bad bool cmp");
        UCTR_RETURN_NOT_OK(write(insn.dst, RegState::kValue));
        break;
      case Op::kBoolNot:
        UCTR_RETURN_NOT_OK(read(insn.a, RegState::kValue));
        UCTR_RETURN_NOT_OK(write(insn.dst, RegState::kValue));
        break;
      case Op::kReturnLogic:
        if (insn.imm > 1) return Bad("bad is_view flag");
        UCTR_RETURN_NOT_OK(read(
            insn.a, insn.imm ? RegState::kRows : RegState::kValue));
        break;

      case Op::kCellLookup: {
        uint64_t end = static_cast<uint64_t>(insn.imm) + 3;
        if (end > plan.aux.size()) return Bad("cell ref aux out of bounds");
        for (uint32_t k = 0; k < 3; ++k) {
          UCTR_RETURN_NOT_OK(pool_ok(plan.aux[insn.imm + k]));
        }
        UCTR_RETURN_NOT_OK(write(insn.dst, RegState::kValue));
        break;
      }
      case Op::kArithBin:
        UCTR_RETURN_NOT_OK(read(insn.a, RegState::kValue));
        UCTR_RETURN_NOT_OK(read(insn.b, RegState::kValue));
        if (insn.imm2 > 5) return Bad("bad arith op");
        UCTR_RETURN_NOT_OK(write(insn.dst, RegState::kValue));
        break;
      case Op::kTableAgg:
        UCTR_RETURN_NOT_OK(pool_ok(insn.imm));
        if (insn.imm2 > 3) return Bad("bad table aggregate");
        UCTR_RETURN_NOT_OK(write(insn.dst, RegState::kValue));
        break;
      case Op::kReturnArith:
        UCTR_RETURN_NOT_OK(read(insn.a, RegState::kValue));
        break;

      case Op::kFail: {
        UCTR_RETURN_NOT_OK(pool_ok(insn.imm));
        uint32_t code = insn.imm2 & 0xFF;
        if (code == static_cast<uint32_t>(StatusCode::kOk) ||
            code > static_cast<uint32_t>(StatusCode::kDeadlineExceeded)) {
          return Bad("bad fail status code");
        }
        if (insn.imm2 >> 9) return Bad("bad fail flags");
        if ((insn.imm2 >> 8) & 1) {
          UCTR_RETURN_NOT_OK(read(insn.a, RegState::kRows));
        }
        break;
      }

      default:
        return Bad("unknown opcode");
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// VM
// ---------------------------------------------------------------------------

namespace {

/// One register: a row view or a scalar, per the verifier's static typing.
/// Both slots may be *borrowed* — ref/vref point at storage that outlives
/// the execution (TableIndex::all_rows(), a column's sorted permutation,
/// the plan's constant pool, the execution's slot values) — so the common claim shape — all_rows
/// narrowed by one eq-filter against a pooled literal — executes without
/// copying row ids or literal strings. Writing an owned value clears the
/// borrow.
struct Reg {
  std::vector<size_t> rows;
  const std::vector<size_t>* ref = nullptr;
  Value val;
  const Value* vref = nullptr;
  /// Pre-analyzed predicate key for a pool constant (kLoadConst sets it
  /// from Plan::pool_keys or SlotValues::keys); null for computed values — filters then build
  /// the key on the fly.
  const TableIndex::LiteralKey* key = nullptr;

  const std::vector<size_t>& view() const { return ref ? *ref : rows; }
  void Set(std::vector<size_t>&& v) {
    rows = std::move(v);
    ref = nullptr;
  }
  void Borrow(const std::vector<size_t>& v) { ref = &v; }

  const Value& value() const { return vref ? *vref : val; }
  void SetVal(Value&& v) {
    val = std::move(v);
    vref = nullptr;
    key = nullptr;
  }
  void BorrowVal(const Value& v, const TableIndex::LiteralKey* k = nullptr) {
    vref = &v;
    key = k;
  }
};

struct VmInstruments {
  obs::Counter* exec_total;
  obs::Counter* rows_scanned;
  static const VmInstruments& Get() {
    static const VmInstruments inst = [] {
      obs::MetricsRegistry& r = obs::DefaultRegistry();
      return VmInstruments{r.counter("ir_vm_exec_total"),
                           r.counter("ir_vm_rows_scanned_total")};
    }();
    return inst;
  }
};

}  // namespace

Result<ExecResult> ExecutePlan(const Plan& plan, const Table& table,
                               SlotValues slots) {
  const TableIndex& index = table.index();
  // The one rule for a plan fitting a table: every column it reads exists.
  // VerifyPlan bounds the plan's column operands by num_columns.
  if (plan.num_columns > table.num_columns()) {
    return Status::InvalidArgument("plan reads columns the table lacks");
  }
  if (slots.values.size() != plan.num_slots ||
      slots.keys.size() != plan.num_slots) {
    return Status::InvalidArgument("plan slots and supplied values differ");
  }
  // Pool entry i: an open slot's supplied Value, else the plan's own.
  auto pool = [&](uint32_t i) -> const Value& {
    return i < plan.num_slots ? slots.values[i] : plan.pool[i];
  };
  auto pool_key = [&](uint32_t i) -> const TableIndex::LiteralKey* {
    return i < plan.num_slots ? &slots.keys[i] : plan.KeyFor(i);
  };
  const VmInstruments& inst = VmInstruments::Get();
  inst.exec_total->Increment();

  std::vector<Reg> regs(plan.num_regs);
  ExecResult result;
  RowMarks evidence(table.num_rows());  // logic scalar / arith evidence
  size_t rows_scanned = 0;
  // Flush scan-work telemetry on every exit path, error or value.
  struct ScanFlush {
    const VmInstruments& inst;
    const size_t& n;
    ~ScanFlush() { inst.rows_scanned->Increment(n); }
  } flush{inst, rows_scanned};

  using logic::internal::CmpKind;

  for (const Insn& insn : plan.code) {
    switch (static_cast<Op>(insn.op)) {
      case Op::kLoadConst:
        // Pool values outlive the execution; borrow, don't copy.
        regs[insn.dst].BorrowVal(pool(insn.imm), pool_key(insn.imm));
        break;
      case Op::kAllRows:
        // The identity view lives on the index; borrow it instead of
        // materializing O(rows) ids on every execution.
        regs[insn.dst].Borrow(index.all_rows());
        break;
      case Op::kFail:
        if (((insn.imm2 >> 8) & 1) != 0 && regs[insn.a].view().empty()) {
          break;
        }
        return Status(static_cast<StatusCode>(insn.imm2 & 0xFF),
                      pool(insn.imm).text());

      // -- sql ------------------------------------------------------------
      case Op::kSqlFilter: {
        const std::vector<size_t>& in = regs[insn.a].view();
        sql::CmpOp cmp = static_cast<sql::CmpOp>(insn.imm2);
        std::vector<size_t> out;
        if (!in.empty()) {
          const TableIndex::Column& col = index.column(insn.imm);
          if (const TableIndex::LiteralKey* key = pool_key(insn.b)) {
            out = sql::internal::FilterOneIndexed(col, cmp, *key, in,
                                                  &rows_scanned);
          } else {
            TableIndex::LiteralKey local(pool(insn.b));
            out = sql::internal::FilterOneIndexed(col, cmp, local, in,
                                                  &rows_scanned);
          }
        }
        regs[insn.dst].Set(std::move(out));
        break;
      }
      case Op::kOrderBy: {
        const std::vector<size_t>& in = regs[insn.a].view();
        bool desc = insn.imm2 != 0;
        const TableIndex::Column& col = index.column(insn.imm);
        // Filters keep views ascending and duplicate-free, so a full-size
        // view is the identity and the cached permutation is its stable
        // sort.
        if (in.size() == table.num_rows()) {
          if (desc) {
            regs[insn.dst].Set(TableIndex::SortedDescending(col));
          } else {
            regs[insn.dst].Borrow(col.sorted);
          }
          break;
        }
        std::vector<size_t> rows = in;
        std::stable_sort(rows.begin(), rows.end(), [&](size_t a, size_t b) {
          int cmp = TableIndex::CompareRows(col, a, b);
          return desc ? cmp > 0 : cmp < 0;
        });
        regs[insn.dst].Set(std::move(rows));
        break;
      }
      case Op::kLimit: {
        const std::vector<size_t>& in = regs[insn.a].view();
        const size_t keep = std::min<size_t>(in.size(), insn.imm);
        regs[insn.dst].Set(std::vector<size_t>(in.begin(), in.begin() + keep));
        break;
      }
      case Op::kSqlAgg: {
        auto agg = static_cast<sql::AggFunc>(insn.imm2 & 0xFF);
        bool star = (insn.imm2 >> 8) & 1;
        bool distinct = (insn.imm2 >> 9) & 1;
        const std::vector<size_t>& rows = regs[insn.a].view();
        Result<Value> v = sql::internal::EvalAggregateIndexed(
            agg, star, distinct, insn.imm, table, index, rows);
        UCTR_RETURN_NOT_OK(v.status());
        regs[insn.dst].SetVal(std::move(v).ValueOrDie());
        break;
      }
      case Op::kEmitValue:
        result.values.push_back(regs[insn.a].value());
        break;
      case Op::kSqlProject: {
        const std::vector<size_t>& rows = regs[insn.a].view();
        for (size_t r : rows) {
          for (uint32_t k = 0; k < insn.imm2; ++k) {
            size_t c = plan.aux[insn.imm + 3 * k];
            uint32_t arith = plan.aux[insn.imm + 3 * k + 1];
            Value lhs = table.cell(r, c);
            if (arith == 0) {
              if (!lhs.is_null()) result.values.push_back(std::move(lhs));
              continue;
            }
            const Value rhs = table.cell(r, plan.aux[insn.imm + 3 * k + 2]);
            UCTR_ASSIGN_OR_RETURN(double a, lhs.ToNumber());
            UCTR_ASSIGN_OR_RETURN(double b, rhs.ToNumber());
            result.values.push_back(Value::Number(arith == 1 ? a + b : a - b));
          }
        }
        break;
      }
      case Op::kReturnSql:
        result.evidence_rows = regs[insn.a].view();
        if (insn.imm == 0 && result.values.empty()) {
          return Status::EmptyResult("query matched no rows");
        }
        return result;

      // -- logic ----------------------------------------------------------
      case Op::kFilterCmp:
        regs[insn.dst].Set(logic::internal::MatchingRows(
            index, regs[insn.a].view(), insn.imm,
            static_cast<CmpKind>(insn.imm2), regs[insn.b].value(),
            regs[insn.b].key, &rows_scanned));
        break;
      case Op::kFilterAll:
        regs[insn.dst].Set(logic::internal::NonNullRows(
            index, regs[insn.a].view(), insn.imm));
        break;
      case Op::kMajority: {
        const std::vector<size_t>& view = regs[insn.a].view();
        if (view.empty()) {
          return Status::EmptyResult("majority over empty view");
        }
        evidence.Mark(view);
        size_t hits =
            logic::internal::MatchingRows(index, view, insn.imm,
                                          static_cast<CmpKind>(insn.imm2 &
                                                               0xFF),
                                          regs[insn.b].value(),
                                          regs[insn.b].key, &rows_scanned)
                .size();
        bool require_all = (insn.imm2 >> 8) & 1;
        bool verdict =
            require_all ? hits == view.size() : hits * 2 > view.size();
        regs[insn.dst].SetVal(Value::Bool(verdict));
        break;
      }
      case Op::kArgSuper: {
        size_t n = 1;
        if (insn.imm2 & 2) {
          UCTR_ASSIGN_OR_RETURN(double nd, regs[insn.b].value().ToNumber());
          // Mirrors the walker exactly: !(>= 1) catches NaN, and the
          // saturating cast keeps oversized ordinals defined (the
          // view-size check below rejects them with the same Status).
          if (!(nd >= 1)) return Status::OutOfRange("ordinal must be >= 1");
          n = nd >= static_cast<double>(std::numeric_limits<size_t>::max())
                  ? std::numeric_limits<size_t>::max()
                  : static_cast<size_t>(nd);
        }
        UCTR_ASSIGN_OR_RETURN(
            std::vector<size_t> rows,
            logic::internal::OrderedRows(table, index, regs[insn.a].view(),
                                         insn.imm,
                                         /*descending=*/(insn.imm2 & 1) != 0));
        if (n > rows.size()) {
          return Status::OutOfRange("ordinal " + std::to_string(n) +
                                    " beyond view of " +
                                    std::to_string(rows.size()));
        }
        evidence.Mark(rows);
        regs[insn.dst].Set({rows[n - 1]});
        break;
      }
      case Op::kCellFirst:
        // Lowering only feeds this from kArgSuper (always one row); the
        // guard covers hand-built plans that verify but start empty.
        if (regs[insn.a].view().empty()) {
          return Status::Internal("cell read from empty view");
        }
        regs[insn.dst].SetVal(table.cell(regs[insn.a].view()[0], insn.imm));
        break;
      case Op::kHop: {
        const std::vector<size_t>& view = regs[insn.a].view();
        if (view.empty()) return Status::EmptyResult("hop on empty view");
        evidence.Mark(view[0]);
        regs[insn.dst].SetVal(table.cell(view[0], insn.imm));
        break;
      }
      case Op::kCount: {
        const std::vector<size_t>& view = regs[insn.a].view();
        evidence.Mark(view);
        regs[insn.dst].SetVal(Value::Number(static_cast<double>(view.size())));
        break;
      }
      case Op::kLogicAgg: {
        const std::vector<size_t>& view = regs[insn.a].view();
        evidence.Mark(view);
        UCTR_ASSIGN_OR_RETURN(
            Value v, logic::internal::ViewAggregate(
                         table, index, view, insn.imm,
                         /*average=*/insn.imm2 != 0, &rows_scanned));
        regs[insn.dst].SetVal(std::move(v));
        break;
      }
      case Op::kDiff: {
        UCTR_ASSIGN_OR_RETURN(double x, regs[insn.a].value().ToNumber());
        UCTR_ASSIGN_OR_RETURN(double y, regs[insn.b].value().ToNumber());
        regs[insn.dst].SetVal(Value::Number(x - y));
        break;
      }
      case Op::kBoolCmp: {
        const Value& x = regs[insn.a].value();
        const Value& y = regs[insn.b].value();
        bool out;
        switch (insn.imm2) {
          case 0:
            out = x.Equals(y);
            break;
          case 1:
            out = !x.Equals(y);
            break;
          case 2: {
            auto xn = x.ToNumber();
            auto yn = y.ToNumber();
            if (!xn.ok() || !yn.ok()) {
              out = x.Equals(y);
            } else {
              out = NearlyEqual(xn.ValueOrDie(), yn.ValueOrDie(), 0.51, 0.01);
            }
            break;
          }
          default: {
            int cmp = x.Compare(y);
            out = insn.imm2 == 3 ? cmp > 0 : cmp < 0;
            break;
          }
        }
        regs[insn.dst].SetVal(Value::Bool(out));
        break;
      }
      case Op::kBoolAndOr: {
        bool x = regs[insn.a].value().boolean();
        bool y = regs[insn.b].value().boolean();
        regs[insn.dst].SetVal(Value::Bool(insn.imm2 != 0 ? x && y : x || y));
        break;
      }
      case Op::kBoolNot:
        regs[insn.dst].SetVal(Value::Bool(!regs[insn.a].value().boolean()));
        break;
      case Op::kOnly: {
        const std::vector<size_t>& view = regs[insn.a].view();
        evidence.Mark(view);
        regs[insn.dst].SetVal(Value::Bool(view.size() == 1));
        break;
      }
      case Op::kReturnLogic:
        if (insn.imm != 0) {
          const std::vector<size_t>& rows = regs[insn.a].view();
          for (size_t r : rows) {
            if (table.num_columns() > 0) {
              result.values.push_back(table.cell(r, 0));
            }
          }
          result.evidence_rows.assign(rows.begin(), rows.end());
        } else {
          result.values.push_back(regs[insn.a].value());
          result.evidence_rows = evidence.Rows();
        }
        if (result.values.empty()) {
          return Status::EmptyResult("logical form produced no values");
        }
        return result;

      // -- arith ----------------------------------------------------------
      case Op::kCellLookup: {
        UCTR_ASSIGN_OR_RETURN(
            double v, arith::internal::ResolveCellRef(
                          table, pool(plan.aux[insn.imm]).text(),
                          pool(plan.aux[insn.imm + 1]).text(),
                          pool(plan.aux[insn.imm + 2]).text(),
                          &evidence));
        regs[insn.dst].SetVal(Value::Number(v));
        break;
      }
      case Op::kArithBin: {
        UCTR_ASSIGN_OR_RETURN(double x, regs[insn.a].value().ToNumber());
        UCTR_ASSIGN_OR_RETURN(double y, regs[insn.b].value().ToNumber());
        switch (insn.imm2) {
          case 0:
            regs[insn.dst].SetVal(Value::Number(x + y));
            break;
          case 1:
            regs[insn.dst].SetVal(Value::Number(x - y));
            break;
          case 2:
            regs[insn.dst].SetVal(Value::Number(x * y));
            break;
          case 3:
            if (y == 0) return Status::ExecutionError("division by zero");
            regs[insn.dst].SetVal(Value::Number(x / y));
            break;
          case 4:
            regs[insn.dst].SetVal(Value::Bool(x > y));
            break;
          default: {
            double v = std::pow(x, y);
            if (!std::isfinite(v)) {
              return Status::ExecutionError("exp overflow");
            }
            regs[insn.dst].SetVal(Value::Number(v));
            break;
          }
        }
        break;
      }
      case Op::kTableAgg: {
        UCTR_ASSIGN_OR_RETURN(
            std::vector<double> series,
            arith::internal::ResolveSeries(table, pool(insn.imm).text(),
                                           &evidence));
        double sum = 0;
        for (double x : series) sum += x;
        double out;
        switch (insn.imm2) {
          case 0:
            out = *std::max_element(series.begin(), series.end());
            break;
          case 1:
            out = *std::min_element(series.begin(), series.end());
            break;
          case 2:
            out = sum;
            break;
          default:
            out = sum / static_cast<double>(series.size());
            break;
        }
        regs[insn.dst].SetVal(Value::Number(out));
        break;
      }
      case Op::kReturnArith:
        result.values.push_back(regs[insn.a].value());
        result.evidence_rows = evidence.Rows();
        return result;

      default:
        return Status::Internal("unknown opcode reached the VM");
    }
  }
  return Status::Internal("plan fell off the end without returning");
}

}  // namespace uctr::ir
