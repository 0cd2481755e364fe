#ifndef UCTR_TABLE_INDEX_H_
#define UCTR_TABLE_INDEX_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "table/value.h"

namespace uctr {

class ColumnarTable;

/// \brief Per-column accelerators for the executor hot path, built lazily
/// next to a table's cells and shared by every copy of the table (see
/// Table::index()).
///
/// Every program execution used to re-parse the same cell strings through
/// Value::ToNumber()/ToDisplayString() on every predicate, aggregate, and
/// sampler probe. TableIndex amortizes that work per table: each column
/// cache is built once (one pass over the column) and then shared by all
/// subsequent executions, TAPEX-style.
///
/// Contract with the scan path: every helper here mirrors the exact
/// semantics of Value::ToNumber / ToDisplayString / Equals / Compare, so
/// indexed execution is bit-identical to the reference row scan (same
/// values, same tie-breaking row order, same EmptyResult/error behavior).
/// tests/index_test.cc enforces this differentially.
///
/// Thread safety: column caches and the token inventory are each built
/// under their own std::call_once, so any number of threads may share one
/// TableIndex through copies of a Table — this is what lets serve:: build
/// the index once at table load and share it read-only across Scheduler
/// workers. Tables never change, so a built cache never goes stale.
class TableIndex {
 public:
  /// \brief One column's caches, all aligned with table row order.
  struct Column {
    std::vector<uint8_t> is_null;   ///< cell.is_null()
    std::vector<uint8_t> numeric;   ///< cell.ToNumber().ok()
    std::vector<double> number;     ///< parsed value when numeric
    std::vector<std::string> display;  ///< cell.ToDisplayString()
    std::vector<std::string> norm;     ///< ToLower(Trim(display))
    /// Hash index for equality predicates: norm -> ascending row indices.
    /// Only rows where the cell is non-null and non-numeric appear (numeric
    /// cells compare through NearlyEqual, which a hash key cannot express).
    std::unordered_map<std::string, std::vector<size_t>> by_text;
    /// All rows stable-sorted by Value::Compare (nulls first, ties in row
    /// order).
    std::vector<size_t> sorted;
    size_t non_null_count = 0;
    /// True when CompareRows is a strict weak order on this column: every
    /// non-null cell is text, or every one is a finite number and no two
    /// distinct ones are NearlyEqual. Only then does a view have one
    /// stable order, so only then may executors read orders from `sorted`
    /// instead of sorting the view as the walkers do.
    bool strict_order = false;
  };

  /// \brief Pre-analysis of a predicate literal, hoisted out of row loops.
  struct LiteralKey {
    bool null = true;
    bool numeric = false;
    double number = 0.0;
    std::string norm;  ///< ToLower(Trim(literal.ToDisplayString()))

    explicit LiteralKey(const Value& v);
  };

  /// \brief The table's words, tokenized once so that linking a sentence
  /// to the table (template slot binding, alignment features) costs
  /// integer lookups instead of re-tokenizing cells per request.
  struct TokenInventory {
    static constexpr uint32_t kNoWord = UINT32_MAX;

    /// Distinct WordTokens of every non-null cell and every header,
    /// sorted and concatenated: word i is words[word_end[i-1], word_end[i]).
    std::string words;
    std::vector<uint32_t> word_end;
    /// Each cell's token ids in WordTokens order, duplicates kept, in CSR
    /// form: cell (r, c) owns ids[cell_begin[k], cell_begin[k + 1]) with
    /// k = c * num_rows + r, so a column's cells are contiguous. Null
    /// cells own none.
    std::vector<uint32_t> cell_begin;
    std::vector<uint32_t> ids;
    size_t num_rows = 0;
    /// Distinct non-NaN numbers of kNumber cells, ascending.
    std::vector<double> numbers;

    size_t num_words() const { return word_end.size(); }
    std::string_view word(uint32_t id) const;
    /// \brief The id of `w`, or kNoWord (binary search).
    uint32_t Find(std::string_view w) const;
    /// \brief The token ids of cell (r, c).
    std::span<const uint32_t> cell(size_t r, size_t c) const {
      const size_t k = c * num_rows + r;
      return {ids.data() + cell_begin[k], ids.data() + cell_begin[k + 1]};
    }
  };

  /// \brief An index over `cells`, which must outlive it.
  explicit TableIndex(const ColumnarTable* cells);
  TableIndex(const TableIndex&) = delete;
  TableIndex& operator=(const TableIndex&) = delete;

  /// \brief The cache for column `c`, building it on first use.
  /// Thread-safe; `c` must be a valid column index.
  const Column& column(size_t c) const;

  /// \brief Eagerly builds every column cache (serve:: calls this once at
  /// table load so workers never pay the build inside a request). It does
  /// not build tokens(): tables that are only stored never pay for it.
  void Warm() const;

  /// \brief The token inventory, built on first use. Thread-safe.
  const TokenInventory& tokens() const;

  /// \brief The identity view [0, num_rows) — `all_rows` materialized —
  /// built once and shared so the bytecode VM borrows it instead of
  /// allocating an O(rows) iota per execution. Thread-safe (call_once),
  /// valid as long as the index.
  const std::vector<size_t>& all_rows() const;

  /// \brief Schema::Fingerprint() computed once and cached — the plan-cache
  /// key and the VM's schema guard read it on every request. Thread-safe.
  uint64_t schema_fingerprint() const;

  size_t num_columns() const { return num_columns_; }

  /// \brief Heap bytes of the column caches, building any not yet built.
  /// The identity view and the token inventory, built on first use by a
  /// request, are not counted.
  size_t ApproxBytes() const;

  // --- comparison helpers mirroring Value semantics over cached data ---

  /// \brief Value::Equals(cell(r), literal) for a non-null cell.
  static bool CellEquals(const Column& col, size_t r, const LiteralKey& lit);

  /// \brief Value::Compare(cell(r), literal) for a non-null cell.
  static int CellCompare(const Column& col, size_t r, const LiteralKey& lit);

  /// \brief Value::Compare(cell(a), cell(b)) within one column.
  static int CompareRows(const Column& col, size_t a, size_t b);

  /// \brief All rows of `col` in descending order: `sorted`'s tie groups in
  /// reverse, rows ascending within each group, nulls last. On a
  /// strict_order column this is the stable descending sort.
  static std::vector<size_t> SortedDescending(const Column& col);

 private:
  void BuildColumn(size_t c) const;
  void BuildTokens() const;

  const ColumnarTable* cells_;
  size_t num_columns_;
  std::unique_ptr<std::once_flag[]> once_;
  mutable std::vector<std::unique_ptr<Column>> columns_;
  mutable std::once_flag all_rows_once_;
  mutable std::vector<size_t> all_rows_;
  mutable std::once_flag schema_fp_once_;
  mutable uint64_t schema_fp_ = 0;
  mutable std::once_flag tokens_once_;
  mutable std::unique_ptr<const TokenInventory> tokens_;
};

}  // namespace uctr

#endif  // UCTR_TABLE_INDEX_H_
