#ifndef UCTR_SQL_EXECUTOR_H_
#define UCTR_SQL_EXECUTOR_H_

#include <string_view>

#include "common/result.h"
#include "sql/ast.h"
#include "table/exec_result.h"
#include "table/table.h"

namespace uctr::sql {

/// \brief Executes a parsed statement against a table by row scan (the
/// paper's Program-Executor instantiated for SQL; replaces sqlite3).
///
/// Semantics on the supported subset match SQLite: WHERE conjuncts filter
/// rows (NULL never matches), ORDER BY sorts stably, LIMIT truncates,
/// aggregates skip NULLs, COUNT(*) counts rows. Returns kEmptyResult when no
/// value survives — the pipeline discards such programs per Section IV-C.
///
/// This is the reference semantics: Program::Execute runs the compiled
/// plan over the table index instead (src/ir), and tests/ir_test.cc and
/// tests/index_test.cc prove the two byte-identical.
Result<ExecResult> Execute(const SelectStatement& stmt, const Table& table);

/// \brief Parses and executes in one step.
Result<ExecResult> ExecuteQuery(std::string_view query, const Table& table);

}  // namespace uctr::sql

#endif  // UCTR_SQL_EXECUTOR_H_
