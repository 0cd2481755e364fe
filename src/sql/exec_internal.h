#ifndef UCTR_SQL_EXEC_INTERNAL_H_
#define UCTR_SQL_EXEC_INTERNAL_H_

#include <cstddef>
#include <vector>

#include "common/result.h"
#include "sql/ast.h"
#include "table/index.h"
#include "table/table.h"

/// SQL execution primitives of the bytecode VM (ir/vm.cc), reading through
/// the table's TableIndex. The tree-walk executor (sql/executor.cc) is an
/// independent row scan; tests/ir_test.cc and tests/index_test.cc prove the
/// two byte-identical.
namespace uctr::sql::internal {

/// One WHERE conjunct through the index: returns `rows` (which must be in
/// ascending order, as produced by the identity view + prior narrowing)
/// narrowed to the matching subset. A null cell never matches; the rest
/// mirrors Value::Equals/Compare exactly (see TableIndex contract).
/// Equality against a non-null non-numeric literal reads the postings of
/// the literal's norm (TableIndex::EqualRows: no per-row work, nothing
/// added to rows_scanned); every other shape tests rows one by one.
std::vector<size_t> FilterOneIndexed(const TableIndex::Column& col, CmpOp op,
                                     const TableIndex::LiteralKey& lit,
                                     const std::vector<size_t>& rows,
                                     size_t* rows_scanned);

/// Aggregate over `rows` of column `col` (ignored when `star`), through the
/// numeric column cache: SUM/AVG read pre-parsed doubles, MIN/MAX compare
/// cached keys, COUNT DISTINCT counts distinct display ids. NULLs are
/// skipped; SUM/AVG/MIN/MAX over no value are EmptyResult.
Result<Value> EvalAggregateIndexed(AggFunc agg, bool star, bool distinct,
                                   size_t col, const Table& table,
                                   const TableIndex& index,
                                   const std::vector<size_t>& rows);

}  // namespace uctr::sql::internal

#endif  // UCTR_SQL_EXEC_INTERNAL_H_
