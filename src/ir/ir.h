#ifndef UCTR_IR_IR_H_
#define UCTR_IR_IR_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "table/exec_result.h"
#include "table/index.h"
#include "table/table.h"

namespace uctr::sql {
struct SelectStatement;
}
namespace uctr::logic {
struct Node;
}
namespace uctr::arith {
struct Expression;
}

/// Unified program IR: the three program families (SQUALL SQL, LOGIC2TEXT
/// logical forms, FinQA arithmetic) lower into one typed register bytecode
/// executed by a single VM over TableIndex accessors (UniRPG's unification
/// insight applied to the executor layer). This is the only runtime
/// execution path: Program::Execute runs every program through it.
///
/// Contract with the scan-based tree-walk executors (sql/logic/arith),
/// which stay as the reference: every parsed program lowers, and its plan
/// executes byte-identically to the walker — same values, same evidence
/// rows, same error Status — proven differentially by tests/ir_test.cc
/// and tests/index_test.cc. A walker error the lowering can see without
/// reading cells (unknown column, wrong arity, static type mismatch)
/// lowers to kFail at the point of the walker's evaluation order where it
/// would be raised, so errors from earlier operands still win.
namespace uctr::ir {

/// \brief The program family a plan was compiled from. Kept separate from
/// uctr::ProgramType so uctr_ir does not depend on uctr_program (which
/// links against this library).
enum class Family : uint8_t {
  kSql = 0,
  kLogic = 1,
  kArith = 2,
};

/// \brief Register bytecode opcodes. Registers are typed slots holding
/// either a row view (ordered row-index vector) or a scalar Value; the
/// verifier tracks types statically so the VM never checks at runtime.
enum class Op : uint16_t {
  kInvalid = 0,
  // -- shared --
  kLoadConst,   ///< dst(val) <- pool[imm]
  kAllRows,     ///< dst(rows) <- [0, num_rows)
  // -- sql --
  kSqlFilter,   ///< dst(rows) <- rows of a matching `col(imm) cmp(imm2) pool[b]`
  kOrderBy,     ///< dst(rows) <- a stable-sorted by col(imm); imm2 = descending
  kLimit,       ///< dst(rows) <- first imm rows of a
  kSqlAgg,      ///< dst(val) <- aggregate over rows a; imm = col,
                ///<   imm2 = agg | star<<8 | distinct<<9
  kEmitValue,   ///< out_values.push(a)
  kSqlProject,  ///< plain projection over rows a; items aux[imm, imm+3*imm2)
  kReturnSql,   ///< finish: evidence = rows a; imm = any_aggregate
  // -- logic --
  kFilterCmp,   ///< dst(rows) <- rows of view a matching `col(imm) cmp(imm2) b`
  kFilterAll,   ///< dst(rows) <- non-null rows of view a on col(imm)
  kMajority,    ///< dst(val Bool) <- majority/all of view a on col(imm) vs b;
                ///<   imm2 = cmp | require_all<<8
  kArgSuper,    ///< dst(rows,1) <- nth best row of view a by col(imm);
                ///<   imm2 = max | nth<<1; ordinal scalar in b when nth
  kCellFirst,   ///< dst(val) <- cell(a.rows[0], col(imm)); no evidence
  kHop,         ///< dst(val) <- cell(a.rows[0], col(imm)); evidence first row
  kCount,       ///< dst(val) <- Number(|a|); evidence a
  kLogicAgg,    ///< dst(val) <- sum/avg of view a on col(imm); imm2 = average
  kDiff,        ///< dst(val) <- Number(a - b)
  kBoolCmp,     ///< dst(val Bool) <- a cmp b; imm2: 0 eq, 1 not_eq,
                ///<   2 round_eq, 3 greater, 4 less
  kBoolAndOr,   ///< dst(val Bool) <- a op b; imm2 = is_and
  kBoolNot,     ///< dst(val Bool) <- !a
  kOnly,        ///< dst(val Bool) <- |a| == 1; evidence a
  kReturnLogic, ///< finish: result reg a; imm = is_view
  // -- arith --
  kCellLookup,  ///< dst(val) <- cell ref via pool strings aux[imm..imm+3)
                ///<   (column, row, original text); evidence
  kArithBin,    ///< dst(val) <- binop(a, b); imm2: 0 add, 1 subtract,
                ///<   2 multiply, 3 divide, 4 greater, 5 exp
  kTableAgg,    ///< dst(val) <- series aggregate of pool[imm].text();
                ///<   imm2: 0 max, 1 min, 2 sum, 3 average; evidence
  kReturnArith, ///< finish: answer reg a; evidence = sorted reads
  // -- shared --
  kFail,        ///< return Status(imm2 & 0xFF, pool[imm].text()); with
                ///<   imm2 bit 8 set, only when view a is non-empty
                ///<   (otherwise it ends the plan like a return)
};

/// \brief One fixed-width instruction (16 bytes). `imm` usually carries a
/// resolved column index or an aux offset, `imm2` packed flags.
struct Insn {
  uint16_t op = 0;
  uint16_t dst = 0;
  uint16_t a = 0;
  uint16_t b = 0;
  uint32_t imm = 0;
  uint32_t imm2 = 0;
};

/// \brief A compiled program: flat bytecode plus its constant pool. It fits
/// any table that has every column it reads — each column index in the
/// code is below `num_columns` — so cell contents and the names of the
/// columns it reads are free to differ. Immutable after compilation; safe
/// to share across threads behind shared_ptr<const Plan>.
///
/// A template plan (LowerSql/LowerLogic/LowerArith over TemplateSlots)
/// leaves its first `num_slots` pool entries open: each execution supplies
/// their Values (SlotValues), so one plan serves every binding of a
/// template at the same column positions.
struct Plan {
  Family family = Family::kSql;
  uint16_t num_regs = 0;
  uint16_t num_slots = 0;    ///< pool entries [0, num_slots) come per execution
  uint32_t num_columns = 0;  ///< every column the plan reads is below this
  std::vector<Value> pool;      ///< literals, resolved at compile time
  std::vector<uint32_t> aux;    ///< variable-length operand lists
  std::vector<Insn> code;

  /// Derived from `pool`: each literal pre-analyzed as a predicate key
  /// (null/numeric/normalized text), so filters pay zero per-execution
  /// parsing or normalization. Compile() populates it; hand-built plans
  /// may leave it empty — the VM falls back to constructing keys on the
  /// fly (KeyFor returns nullptr).
  std::vector<TableIndex::LiteralKey> pool_keys;

  const TableIndex::LiteralKey* KeyFor(size_t i) const {
    return i < pool_keys.size() ? &pool_keys[i] : nullptr;
  }
};

/// \brief How a template's skeleton writes its slots, for lowering it once
/// per column positions. The skeleton is the template filled with marker
/// texts; the lowering matches its fields against them by exact text.
struct TemplateSlots {
  /// Column-name markers and the column position each resolves to. Every
  /// column name the lowering resolves must be one of them.
  std::vector<std::pair<std::string, uint32_t>> columns;
  /// Field texts whose Values come per execution: a literal or an
  /// arithmetic name written exactly `fields[i]` becomes pool entry i.
  std::vector<std::string> fields;
};

/// \brief One execution's Values for a template plan's open pool entries,
/// with their predicate keys; both hold exactly `num_slots` entries.
struct SlotValues {
  std::span<const Value> values;
  std::span<const TableIndex::LiteralKey> keys;
};

/// \brief 64-bit FNV-1a (truncated basis) over (family tag, program text).
/// With Schema::Fingerprint, the cache identity of a plan compiled from
/// program text, whose names resolve against the schema.
uint64_t ProgramFingerprint(Family family, std::string_view text);

/// \brief With ColumnsFingerprint, the cache identity of a template plan:
/// (family, template pattern). Tagged apart from ProgramFingerprint, so a
/// pattern never shares a key with program text.
uint64_t TemplateFingerprint(Family family, std::string_view pattern);

/// \brief The column positions a template plan was lowered for.
uint64_t ColumnsFingerprint(std::span<const uint32_t> columns);

/// \brief Parses `text` as `family` and lowers it against `schema`. Fails
/// only on a parse error (the walker's own) or when the program exceeds the
/// uint16 register or constant budget; every other walker error lowers to
/// kFail.
Result<Plan> Compile(Family family, std::string_view text,
                     const Schema& schema);

/// Lowering from already-parsed ASTs (callers holding one skip the parse).
Result<Plan> LowerSql(const sql::SelectStatement& stmt, const Schema& schema);
Result<Plan> LowerLogic(const logic::Node& node, const Schema& schema);
Result<Plan> LowerArith(const arith::Expression& expr, const Schema& schema);

/// Lowering a template skeleton: column names resolve through
/// `slots.columns`, and fields written as `slots.fields[i]` become open
/// pool entry i. Fails (InvalidArgument) on a column name that is no
/// column slot; every other outcome is as for text.
Result<Plan> LowerSql(const sql::SelectStatement& stmt,
                      const TemplateSlots& slots);
Result<Plan> LowerLogic(const logic::Node& node, const TemplateSlots& slots);
Result<Plan> LowerArith(const arith::Expression& expr,
                        const TemplateSlots& slots);

/// \brief Static checks making a plan safe to execute: register bounds and
/// type consistency (abstract interpretation over rows/value slot types),
/// pool/aux/column bounds, packed-flag ranges and status codes, and a
/// single family-matching return or unconditional kFail as the final
/// instruction. Compile output always verifies;
/// hand-built plans must pass it before they reach ExecutePlan.
Status VerifyPlan(const Plan& plan);

/// \brief Executes a verified plan over `table.index()`, with `slots`
/// filling its open pool entries. The plan must fit the table: every column
/// it reads exists (InvalidArgument otherwise), and `slots` holds exactly
/// `num_slots` values and keys.
Result<ExecResult> ExecutePlan(const Plan& plan, const Table& table,
                               SlotValues slots = {});

}  // namespace uctr::ir

#endif  // UCTR_IR_IR_H_
