#include "program/program.h"

#include <memory>
#include <utility>

#include "arith/parser.h"
#include "ir/ir.h"
#include "ir/plan_cache.h"
#include "logic/parser.h"
#include "sql/parser.h"
#include "table/index.h"

namespace uctr {

ir::Family FamilyOf(ProgramType type) {
  switch (type) {
    case ProgramType::kSql:
      return ir::Family::kSql;
    case ProgramType::kLogicalForm:
      return ir::Family::kLogic;
    case ProgramType::kArithmetic:
      return ir::Family::kArith;
  }
  return ir::Family::kSql;
}

const char* ProgramTypeToString(ProgramType type) {
  switch (type) {
    case ProgramType::kSql:
      return "sql";
    case ProgramType::kLogicalForm:
      return "logical_form";
    case ProgramType::kArithmetic:
      return "arithmetic";
  }
  return "unknown";
}

Result<ExecResult> Program::Execute(const Table& table) const {
  return Execute(table, ExecOptions());
}

Result<ExecResult> Program::Execute(const Table& table,
                                    const ExecOptions& opts) const {
  ir::Family family = FamilyOf(type);
  uint64_t program_fp = ir::ProgramFingerprint(family, text);
  uint64_t schema_fp = table.index().schema_fingerprint();
  ir::PlanCache& cache =
      opts.plan_cache != nullptr ? *opts.plan_cache : ir::PlanCache::Default();

  std::shared_ptr<const ir::Plan> plan = cache.Get(program_fp, schema_fp);
  if (plan == nullptr) {
    cache.NoteCompile();
    UCTR_ASSIGN_OR_RETURN(ir::Plan compiled,
                          ir::Compile(family, text, table.schema()));
    plan = std::make_shared<const ir::Plan>(std::move(compiled));
    cache.Put(program_fp, schema_fp, plan);
  }
  return ir::ExecutePlan(*plan, table);
}

Result<ProgramTree> ParseProgram(const Program& program) {
  ProgramTree tree;
  tree.type = program.type;
  if (program.type == ProgramType::kSql) {
    UCTR_ASSIGN_OR_RETURN(tree.sql, sql::Parse(program.text));
  } else if (program.type == ProgramType::kLogicalForm) {
    UCTR_ASSIGN_OR_RETURN(tree.logic, logic::Parse(program.text));
  } else {
    UCTR_ASSIGN_OR_RETURN(tree.arith, arith::Parse(program.text));
  }
  return tree;
}

}  // namespace uctr
