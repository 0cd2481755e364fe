#ifndef UCTR_TABLE_TABLE_H_
#define UCTR_TABLE_TABLE_H_

#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "table/value.h"

namespace uctr {

class Table;
class TableIndex;

/// \brief Lightweight non-owning view of one column's cells in row order.
/// Replaces Table::ColumnValues() copies on hot paths: no Value copies are
/// made, cells are read in place. Invalidated by any table mutation.
class ColumnSpan {
 public:
  ColumnSpan(const Table* table, size_t column)
      : table_(table), column_(column) {}

  size_t size() const;
  const Value& operator[](size_t r) const;

 private:
  const Table* table_;
  size_t column_;
};

/// \brief Declared type of a column, inferred from its cells.
enum class ColumnType {
  kText = 0,
  kNumber,
  kBool,
};

const char* ColumnTypeToString(ColumnType type);

/// \brief One column: a header name plus an inferred type.
struct ColumnSpec {
  std::string name;
  ColumnType type = ColumnType::kText;
};

/// \brief Ordered set of columns.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<ColumnSpec> columns)
      : columns_(std::move(columns)) {}

  size_t num_columns() const { return columns_.size(); }
  const ColumnSpec& column(size_t i) const { return columns_[i]; }
  ColumnSpec* mutable_column(size_t i) { return &columns_[i]; }
  const std::vector<ColumnSpec>& columns() const { return columns_; }

  /// \brief Case-insensitive lookup by header name.
  Result<size_t> ColumnIndex(std::string_view name) const;
  bool HasColumn(std::string_view name) const;

  /// \brief 64-bit FNV-1a over column names and types, the canonical shape
  /// identity used to key compiled plans (ir::SchemaFingerprint delegates
  /// here). Cell contents do not participate. Allocation-free: the hash is
  /// streamed, not built from a buffer.
  uint64_t Fingerprint() const;

  void AddColumn(ColumnSpec spec) { columns_.push_back(std::move(spec)); }

 private:
  std::vector<ColumnSpec> columns_;
};

/// \brief A relational table: schema + rows of Values, the "program context"
/// of the paper. Row 0 of the paper's relational tables is a record; the
/// first column frequently acts as the row name (TAT-QA line items).
class Table {
 public:
  using Row = std::vector<Value>;

  Table();
  Table(std::string name, Schema schema);

  // Copies do not clone the cached index (it is rebuilt lazily on demand);
  // moves carry it along, so a warmed index survives being moved into a
  // Sample or a serving request.
  Table(const Table& other);
  Table& operator=(const Table& other);
  Table(Table&& other) noexcept;
  Table& operator=(Table&& other) noexcept;
  ~Table();

  /// \brief Parses CSV text (first line = header) and infers column types.
  /// Handles quoted fields with embedded commas/quotes.
  static Result<Table> FromCsv(std::string_view csv,
                               std::string name = "table");

  /// \brief Builds a table from a header and rows of raw strings.
  static Result<Table> FromStrings(
      const std::vector<std::string>& header,
      const std::vector<std::vector<std::string>>& rows,
      std::string name = "table");

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return rows_.size(); }
  size_t num_columns() const { return schema_.num_columns(); }
  bool empty() const { return rows_.empty(); }

  const Row& row(size_t r) const { return rows_[r]; }
  const Value& cell(size_t r, size_t c) const { return rows_[r][c]; }
  /// \brief Mutable cell access. Invalidates the cached index: the caller
  /// may write through the pointer, so any cached view of the cell is
  /// stale. Do not hold the pointer across other Table calls.
  Value* mutable_cell(size_t r, size_t c) {
    InvalidateIndex();
    return &rows_[r][c];
  }

  Result<size_t> ColumnIndex(std::string_view name) const {
    return schema_.ColumnIndex(name);
  }

  /// \brief All values of one column, in row order. Materializes a fresh
  /// vector of Value copies per call — prefer Column() on hot paths.
  std::vector<Value> ColumnValues(size_t c) const;

  /// \brief Copy-free view of one column (see ColumnSpan).
  ColumnSpan Column(size_t c) const { return ColumnSpan(this, c); }

  /// \brief Lazily built per-column accelerators (numeric cache, equality
  /// hash index, sorted row order) shared by every executor; see
  /// table/index.h for the exact caching and thread-safety contract.
  /// Thread-safe on const tables; invalidated by any mutation.
  const TableIndex& index() const;

  /// \brief Eagerly builds every column cache of index(). Serving calls
  /// this once at table load so request execution never pays the build.
  void WarmIndex() const;

  /// \brief Cell addressed by row name (matched against the first column,
  /// case-insensitive substring fallback) and column header.
  Result<Value> CellByNames(std::string_view row_name,
                            std::string_view col_name) const;

  /// \brief Index of the row whose first-column value matches `row_name`
  /// (exact case-insensitive first, then unique-substring fallback).
  Result<size_t> RowIndexByName(std::string_view row_name) const;

  /// \brief Appends a row. Fails unless the width matches the schema.
  Status AppendRow(Row row);

  /// \brief Appends a column filled with `fill` (defaults to null) and
  /// re-infers its type. Fails on duplicate header names.
  Status AppendColumn(const std::string& name, const Value& fill = Value());

  /// \brief A new table containing only `row_indices` (in the given order).
  Table SubTable(const std::vector<size_t>& row_indices) const;

  /// \brief A new table with row `r` removed.
  Table WithoutRow(size_t r) const;

  /// \brief Re-runs column type inference (after edits).
  void InferColumnTypes();

  /// \brief Indices of columns with the given type.
  std::vector<size_t> ColumnsOfType(ColumnType type) const;

  /// \brief Serializes back to CSV (quoting where needed).
  std::string ToCsv() const;

  /// \brief Markdown rendering for examples and logs.
  std::string ToMarkdown() const;

  /// \brief Flat textual form used by model feature extraction, e.g.
  /// "col: year is 2019 ; col: revenue is $1,234 | ...".
  std::string Linearize(size_t max_rows = 64) const;

 private:
  /// Drops the cached index; called by every mutator.
  void InvalidateIndex();

  std::string name_;
  Schema schema_;
  std::vector<Row> rows_;

  // Lazily created accelerators (table/index.h). The mutex only guards
  // creation/invalidation of the pointer; TableIndex synchronizes its own
  // per-column builds, so concurrent const readers are race-free.
  mutable std::mutex index_mu_;
  mutable std::unique_ptr<TableIndex> index_;
};

inline size_t ColumnSpan::size() const { return table_->num_rows(); }
inline const Value& ColumnSpan::operator[](size_t r) const {
  return table_->cell(r, column_);
}

}  // namespace uctr

#endif  // UCTR_TABLE_TABLE_H_
