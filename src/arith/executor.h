#ifndef UCTR_ARITH_EXECUTOR_H_
#define UCTR_ARITH_EXECUTOR_H_

#include <string_view>

#include "common/result.h"
#include "arith/ast.h"
#include "table/exec_result.h"
#include "table/table.h"

namespace uctr::arith {

/// \brief Executes a FinQA arithmetic program against a table (the paper's
/// Program-Executor for arithmetic expressions [6]).
///
/// Cell references `col of row` resolve against the table (row matched in
/// the first column). `table_max/min/sum/average(name)` aggregate the
/// numeric cells of the row named `name`, falling back to the column with
/// that header. `greater(a,b)` yields a Bool; everything else a Number.
/// The answer is the value of the final step; evidence_rows lists the rows
/// whose cells were read.
///
/// This is the reference evaluator: Program::Execute runs the compiled plan
/// instead (src/ir), and tests/ir_test.cc proves the two byte-identical.
Result<ExecResult> Execute(const Expression& expr, const Table& table);

/// \brief Parses then executes.
Result<ExecResult> ExecuteExpression(std::string_view text,
                                     const Table& table);

}  // namespace uctr::arith

#endif  // UCTR_ARITH_EXECUTOR_H_
