#ifndef UCTR_LOGIC_EXECUTOR_H_
#define UCTR_LOGIC_EXECUTOR_H_

#include <string_view>

#include "common/result.h"
#include "logic/ast.h"
#include "table/exec_result.h"
#include "table/table.h"

namespace uctr::logic {

/// \brief Executes a logical form on a table (the paper's Program-Executor
/// for LOGIC2TEXT programs [7]).
///
/// Supported operator families:
///  - views:        all_rows, filter_eq/not_eq/greater/less/greater_eq/
///                  less_eq/all, argmax, argmin, nth_argmax, nth_argmin
///  - scalars:      hop, count, max, min, sum, avg, nth_max, nth_min, diff
///  - booleans:     eq, not_eq, round_eq, greater, less, and, or, not, only,
///                  most_* / all_* comparison families
///
/// The result of a complete fact-verification form is a Bool value;
/// evidence_rows lists every row consumed while reducing views to scalars
/// (the paper's highlighted cells).
///
/// This is the reference row scan: Program::Execute runs the compiled plan
/// over the table index instead (src/ir), and tests/ir_test.cc and
/// tests/index_test.cc prove the two byte-identical.
Result<ExecResult> Execute(const Node& node, const Table& table);

/// \brief Parses then executes.
Result<ExecResult> ExecuteLogicalForm(std::string_view text,
                                      const Table& table);

/// \brief True if `op` is a known logical-form operator name.
bool IsKnownOperator(std::string_view op);

}  // namespace uctr::logic

#endif  // UCTR_LOGIC_EXECUTOR_H_
