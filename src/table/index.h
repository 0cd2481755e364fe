#ifndef UCTR_TABLE_INDEX_H_
#define UCTR_TABLE_INDEX_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "table/columnar.h"
#include "table/value.h"

namespace uctr {

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
/// semantics of Value::ToNumber / ToDisplayString / Equals / Order /
/// Compare, so indexed execution is bit-identical to the reference row
/// scan (same values, same tie-breaking row order, same EmptyResult/error
/// behavior).
/// tests/index_test.cc enforces this differentially.
///
/// Thread safety: column caches and the token inventory are each built
/// under their own std::call_once, so any number of threads may share one
/// TableIndex through copies of a Table — this is what lets serve:: build
/// the index once at table load and share it read-only across Scheduler
/// workers. Tables never change, so a built cache never goes stale.
class TableIndex {
 public:
  /// \brief One column's caches. The per-row arrays are aligned with
  /// table row order; cell text is held once per distinct string, in two
  /// dictionaries the rows point into.
  struct Column {
    std::vector<uint8_t> is_null;   ///< cell.is_null()
    std::vector<uint8_t> numeric;   ///< cell.ToNumber().ok()
    std::vector<double> number;     ///< parsed value when numeric
    /// Each row's id in `displays`; null rows hold 0, the empty string.
    std::vector<uint32_t> display_id;
    /// The distinct cell.ToDisplayString() of the column's cells.
    StringPool displays;
    /// Per display id, the id in `norms` of ToLower(Trim(display)).
    std::vector<uint32_t> norm_rank;
    /// The distinct normalized displays, added in ascending order, so an
    /// id is a rank: comparing ranks is comparing the strings.
    StringPool norms;
    std::vector<uint32_t> norm_slots;  ///< norms' Intern() table
    /// Equality postings in CSR form: the rows whose norm has rank k are
    /// posting_rows[posting_begin[k], posting_begin[k + 1]), ascending.
    /// Only rows where the cell is non-null and non-numeric appear
    /// (numeric cells compare through NearlyEqual, which a key cannot
    /// express).
    std::vector<uint32_t> posting_begin;
    std::vector<uint32_t> posting_rows;
    /// All rows stable-sorted by Value::Order (nulls first, ties in row
    /// order): the one stable order of the full view.
    std::vector<size_t> sorted;
    size_t non_null_count = 0;

    /// \brief cell(r).ToDisplayString(), viewing the dictionary.
    std::string_view display(size_t r) const {
      return displays.at(display_id[r]);
    }
    /// \brief The rank of ToLower(Trim(display(r))) among the norms.
    uint32_t rank(size_t r) const { return norm_rank[display_id[r]]; }
    std::string_view norm(size_t r) const { return norms.at(rank(r)); }
    /// \brief The rank of norm `text`, or StringPool::kNotFound.
    uint32_t FindNorm(std::string_view text) const {
      return norms.Find(text, norm_slots);
    }
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
    /// Distinct WordTokens of every non-null cell and every header.
    StringPool words;
    std::vector<uint32_t> word_slots;  ///< words' Intern() table
    /// Each cell's token ids in WordTokens order, duplicates kept, in CSR
    /// form: cell (r, c) owns ids[cell_begin[k], cell_begin[k + 1]) with
    /// k = c * num_rows + r, so a column's cells are contiguous. Null
    /// cells own none.
    std::vector<uint32_t> cell_begin;
    std::vector<uint32_t> ids;
    size_t num_rows = 0;
    /// Distinct non-NaN numbers of kNumber cells, ascending.
    std::vector<double> numbers;

    /// \brief The id of word `w`, or StringPool::kNotFound.
    uint32_t Find(std::string_view w) const {
      return words.Find(w, word_slots);
    }
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

  /// \brief Schema::Fingerprint() computed once and cached: the plan-cache
  /// key of the text route (Program::Execute) reads it on every
  /// execution. Thread-safe.
  uint64_t schema_fingerprint() const;

  size_t num_columns() const { return num_columns_; }

  /// \brief Heap bytes of the column caches, building any not yet built:
  /// the capacities of their flat arrays. The identity view and the token
  /// inventory, built on first use by a request, are not counted.
  size_t ApproxBytes() const;

  // --- comparison helpers mirroring Value semantics over cached data ---

  /// \brief Value::Equals(cell(r), literal) for a non-null cell.
  static bool CellEquals(const Column& col, size_t r, const LiteralKey& lit);

  /// \brief Value::Compare(cell(r), literal) for a non-null cell.
  static int CellCompare(const Column& col, size_t r, const LiteralKey& lit);

  /// \brief Value::Order(cell(a), cell(b)) within one column.
  static int CompareRows(const Column& col, size_t a, size_t b);

  /// \brief The rows of `view` whose cell CellEquals the non-null,
  /// non-numeric `lit`, ascending: the postings of the literal's norm,
  /// whole when `view` is every row, else intersected with it. `view`
  /// must be ascending, as every view is.
  static std::vector<size_t> EqualRows(const Column& col,
                                       const LiteralKey& lit,
                                       const std::vector<size_t>& view);

  /// \brief All rows of `col` in descending order: `sorted`'s tie groups in
  /// reverse, rows ascending within each group, nulls last. This is the
  /// stable descending sort.
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
