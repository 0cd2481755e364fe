#ifndef UCTR_LOGIC_EXEC_INTERNAL_H_
#define UCTR_LOGIC_EXEC_INTERNAL_H_

#include <cstddef>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "table/index.h"
#include "table/table.h"

/// Logical-form execution primitives of the bytecode VM (ir/vm.cc),
/// reading through the table's TableIndex. The tree-walk evaluator
/// (logic/executor.cc) is an independent row scan; tests/ir_test.cc and
/// tests/index_test.cc prove the two byte-identical.
namespace uctr::logic::internal {

/// -1 / 0 / +1 comparison classes shared by filter_*, most_*, all_*.
enum class CmpKind { kEq, kNotEq, kGreater, kLess, kGreaterEq, kLessEq };

/// The comparison named by `op` after `prefix` ("filter_greater" ->
/// kGreater); InvalidArgument for an unknown suffix. Shared with the
/// walker so both raise the same Status.
Result<CmpKind> CmpFromSuffix(std::string_view op, std::string_view prefix);

/// Rows of `view` whose non-null cell in `col_idx` matches `cmp ref`, in
/// view order, with `ref` pre-analyzed as `key` (may be nullptr — computed
/// here; the VM passes keys precomputed at plan-compile time). The
/// equality + string-literal case reads the postings of the literal's
/// norm (TableIndex::EqualRows). Rows evaluated one-by-one are added to
/// `*rows_scanned` (posting reads are not).
std::vector<size_t> MatchingRows(const TableIndex& index,
                                 const std::vector<size_t>& view,
                                 size_t col_idx, CmpKind cmp, const Value& ref,
                                 const TableIndex::LiteralKey* key,
                                 size_t* rows_scanned);

/// Rows of `view` whose cell in `col_idx` is non-null (filter_all).
std::vector<size_t> NonNullRows(const TableIndex& index,
                                const std::vector<size_t>& view,
                                size_t col_idx);

/// Rows of `view` ordered by column value, nulls dropped; ties keep
/// original order. EmptyResult("superlative on empty view") when nothing
/// survives. A full view reads the cached sorted permutation (descending:
/// TableIndex::SortedDescending); a partial view is stable-sorted by
/// TableIndex::CompareRows.
Result<std::vector<size_t>> OrderedRows(const Table& table,
                                        const TableIndex& index,
                                        const std::vector<size_t>& view,
                                        size_t col_idx, bool descending);

/// sum/avg over the view's column. The caller marks evidence first, as
/// the walker does. Adds `view.size()` to `*rows_scanned`.
Result<Value> ViewAggregate(const Table& table, const TableIndex& index,
                            const std::vector<size_t>& view, size_t col_idx,
                            bool average, size_t* rows_scanned);

}  // namespace uctr::logic::internal

#endif  // UCTR_LOGIC_EXEC_INTERNAL_H_
