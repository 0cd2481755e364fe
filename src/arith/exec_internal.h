#ifndef UCTR_ARITH_EXEC_INTERNAL_H_
#define UCTR_ARITH_EXEC_INTERNAL_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "table/exec_result.h"
#include "table/table.h"

/// Table-reference resolution shared by the step evaluator
/// (arith/executor.cc) and the bytecode VM (ir/vm.cc). Arithmetic has no
/// scan/index split: both paths resolve cell references and series with
/// this code.
namespace uctr::arith::internal {

/// Resolves a `col of row` cell reference to a number. Tries the parsed
/// (column, row) split first, then every other " of " split point of the
/// original text — both halves may themselves contain " of " ("cost of
/// sales"). Rows read are marked in `*evidence`. NotFound when no split
/// resolves.
Result<double> ResolveCellRef(const Table& table, const std::string& column,
                              const std::string& row, const std::string& text,
                              RowMarks* evidence);

/// Numeric cells of the row named `name`, or of the column headed `name`.
/// Rows read are marked in `*evidence`.
Result<std::vector<double>> ResolveSeries(const Table& table,
                                          const std::string& name,
                                          RowMarks* evidence);

}  // namespace uctr::arith::internal

#endif  // UCTR_ARITH_EXEC_INTERNAL_H_
