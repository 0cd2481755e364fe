#ifndef UCTR_PROGRAM_PROGRAM_H_
#define UCTR_PROGRAM_PROGRAM_H_

#include <cstdint>
#include <memory>
#include <string>

#include "arith/ast.h"
#include "common/result.h"
#include "logic/ast.h"
#include "sql/ast.h"
#include "table/exec_result.h"
#include "table/table.h"

namespace uctr {

namespace ir {
enum class Family : uint8_t;
class PlanCache;
}

/// \brief The three program families of the paper (Section II-C).
enum class ProgramType {
  kSql = 0,        ///< SQUALL-style SQL queries (question answering).
  kLogicalForm,    ///< LOGIC2TEXT logical forms (fact verification).
  kArithmetic,     ///< FinQA arithmetic expressions (numerical QA).
};

const char* ProgramTypeToString(ProgramType type);

/// \brief The IR family a program type lowers to (ir::Family is kept
/// apart from ProgramType so uctr_ir does not depend on uctr_program).
ir::Family FamilyOf(ProgramType type);

/// \brief Where a Program's compiled plans are cached.
struct ExecOptions {
  /// Compiled-plan cache; nullptr selects ir::PlanCache::Default().
  ir::PlanCache* plan_cache = nullptr;
};

/// \brief A concrete executable program: a type tag plus its canonical text.
///
/// The unified Program-Executor (Equation 4): every family lowers to the
/// register bytecode of src/ir and runs on its VM over the table index.
/// The per-family tree-walkers in uctr::sql / uctr::logic / uctr::arith are
/// the scan-based reference the VM is tested against.
struct Program {
  ProgramType type = ProgramType::kSql;
  std::string text;

  /// \brief Executes this program on `table`; kEmptyResult and parse /
  /// execution failures surface as error Statuses so the generation
  /// pipeline can discard the sample (Algorithm 1, line 14).
  Result<ExecResult> Execute(const Table& table) const;

  /// \brief Execute with an explicit plan cache: fingerprint the text, look
  /// the plan up by (program, schema), compile on a miss, run the VM. A
  /// parse error is returned as is; every other error comes from the plan.
  Result<ExecResult> Execute(const Table& table, const ExecOptions& opts) const;
};

/// \brief A program as its family's syntax tree: what the parsers read
/// from text and what TemplateForm::Bind builds from a template's skeleton
/// and bound texts. The realizers and the scan walkers read it. Only the
/// member of `type`'s family is set.
struct ProgramTree {
  ProgramType type = ProgramType::kSql;
  sql::SelectStatement sql;
  std::unique_ptr<logic::Node> logic;
  arith::Expression arith;
};

/// \brief Parses `program.text` in its family's syntax.
Result<ProgramTree> ParseProgram(const Program& program);

}  // namespace uctr

#endif  // UCTR_PROGRAM_PROGRAM_H_
