#include "program/program.h"

#include <memory>
#include <utility>

#include "arith/executor.h"
#include "arith/parser.h"
#include "ir/ir.h"
#include "ir/plan_cache.h"
#include "logic/executor.h"
#include "logic/parser.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "table/index.h"

namespace uctr {

namespace {

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

Result<ExecResult> ExecuteWalk(const Program& program, const Table& table,
                               bool use_index) {
  switch (program.type) {
    case ProgramType::kSql: {
      sql::ExecOptions opts;
      opts.use_index = use_index;
      return sql::ExecuteQuery(program.text, table, opts);
    }
    case ProgramType::kLogicalForm: {
      logic::ExecOptions opts;
      opts.use_index = use_index;
      return logic::ExecuteLogicalForm(program.text, table, opts);
    }
    case ProgramType::kArithmetic:
      return arith::ExecuteExpression(program.text, table);
  }
  return Status::Internal("unknown program type");
}

}  // namespace

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
  if (!opts.use_vm) return ExecuteWalk(*this, table, opts.use_index);

  ir::Family family = FamilyOf(type);
  uint64_t program_fp = ir::ProgramFingerprint(family, text);
  uint64_t schema_fp = table.index().schema_fingerprint();
  ir::PlanCache& cache =
      opts.plan_cache != nullptr ? *opts.plan_cache : ir::PlanCache::Default();

  std::shared_ptr<const ir::Plan> plan;
  if (auto cached = cache.Get(program_fp, schema_fp); cached.has_value()) {
    plan = std::move(*cached);
  } else {
    cache.NoteCompile();
    Result<ir::Plan> compiled = ir::Compile(family, text, table.schema());
    if (compiled.ok()) {
      plan = std::make_shared<const ir::Plan>(
          std::move(compiled).ValueOrDie());
    }
    // A reject caches as nullptr: "known-unsupported, take the walker" —
    // hot unsupported templates skip re-lowering on every request.
    cache.Put(program_fp, schema_fp, plan);
  }

  if (plan == nullptr) return ExecuteWalk(*this, table, opts.use_index);
  ir::VmOptions vm_opts;
  vm_opts.use_index = opts.use_index;
  return ir::ExecutePlan(*plan, table, vm_opts);
}

Status Program::Validate() const {
  switch (type) {
    case ProgramType::kSql:
      return sql::Parse(text).status();
    case ProgramType::kLogicalForm:
      return logic::Parse(text).status();
    case ProgramType::kArithmetic:
      return arith::Parse(text).status();
  }
  return Status::Internal("unknown program type");
}

}  // namespace uctr
