#ifndef UCTR_IR_IR_H_
#define UCTR_IR_IR_H_

#include <cstdint>
#include <string>
#include <string_view>
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
/// insight applied to the executor layer).
///
/// Contract with the tree-walk executors (sql/logic/arith): a program that
/// compiles executes byte-identically to its walker — same values, same
/// evidence rows, same error Status, proven differentially by
/// tests/ir_test.cc. Anything the lowering cannot reproduce exactly
/// (unknown columns, wrong arity, static type mismatches, unsupported
/// operand shapes) is rejected at compile time and the caller falls back
/// to the walker, so observable behavior never diverges. The VM ops call
/// the walkers' own row-level primitives (sql/logic/arith exec_internal.h),
/// making identity hold by construction on the accepted subset.
namespace uctr::ir {

/// \brief The program family a plan was compiled from. Kept separate from
/// uctr::ProgramType so uctr_ir does not depend on uctr_program (which
/// links against this library).
enum class Family : uint8_t {
  kSql = 0,
  kLogic = 1,
  kArith = 2,
};

const char* FamilyToString(Family family);

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

/// \brief A compiled program: flat bytecode plus its constant pool, valid
/// for any table whose schema fingerprint matches `schema_fp` (column
/// names and types; cell contents are free to differ — plans are
/// value-independent). Immutable after compilation; safe to share across
/// threads behind shared_ptr<const Plan>.
struct Plan {
  Family family = Family::kSql;
  uint16_t num_regs = 0;
  uint32_t num_columns = 0;  ///< schema width the plan was compiled against
  uint64_t schema_fp = 0;
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

/// \brief 64-bit FNV-1a over a schema's column names and types — the cache
/// identity of a plan. Cell contents do not participate: the same plan
/// serves every table with this shape.
uint64_t SchemaFingerprint(const Schema& schema);

/// \brief 64-bit FNV-1a over (family tag, program text).
uint64_t ProgramFingerprint(Family family, std::string_view text);

/// \brief Parses `text` as `family` and lowers it against `schema`.
/// Rejection (non-OK) means "run the tree-walk instead", not "the program
/// is wrong": the walker is the behavioral reference for everything the
/// bytecode cannot reproduce exactly.
Result<Plan> Compile(Family family, std::string_view text,
                     const Schema& schema);

/// Lowering from already-parsed ASTs (callers holding one skip the parse).
Result<Plan> LowerSql(const sql::SelectStatement& stmt, const Schema& schema);
Result<Plan> LowerLogic(const logic::Node& node, const Schema& schema);
Result<Plan> LowerArith(const arith::Expression& expr, const Schema& schema);

/// \brief Static checks making a plan safe to execute: register bounds and
/// type consistency (abstract interpretation over rows/value slot types),
/// pool/aux/column bounds, packed-flag ranges, and a single family-matching
/// return as the final instruction. Compile output always verifies;
/// hand-built plans must pass it before they reach ExecutePlan.
Status VerifyPlan(const Plan& plan);

struct VmOptions {
  /// Mirrors the walkers' use_index: read through Table::index(), or take
  /// the bit-identical scan path when false.
  bool use_index = true;
};

/// \brief Executes a verified plan. The table's schema fingerprint must
/// match the plan's (InvalidArgument otherwise — the plan cache keys on it,
/// so a schema change can never execute a stale plan).
Result<ExecResult> ExecutePlan(const Plan& plan, const Table& table,
                               const VmOptions& opts = VmOptions());

}  // namespace uctr::ir

#endif  // UCTR_IR_IR_H_
