#ifndef UCTR_TABLE_TABLE_H_
#define UCTR_TABLE_TABLE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "table/columnar.h"
#include "table/index.h"
#include "table/value.h"

namespace uctr {

/// \brief A relational table: schema + cells, the "program context" of
/// the paper. Row 0 of the paper's relational tables is a record; the
/// first column frequently acts as the row name (TAT-QA line items).
///
/// A Table never changes once built. Its cells live once, in typed
/// columns (ColumnarTable), next to the lazily built TableIndex; copies
/// share both, so copying a table costs a reference count. Every table
/// is built by one encoding pass (ColumnarTable::Build): FromCsv,
/// FromStrings, FromValues and WithoutRow run it over Values, and
/// store::Codec::Decode yields columns the Table takes by a move.
class Table {
 public:
  /// An empty table: no name, no columns, no rows.
  Table() = default;

  /// \brief Takes `columns` as this table's cells.
  explicit Table(ColumnarTable columns);

  /// \brief Parses CSV text (first line = header) and infers column types.
  /// Handles quoted fields with embedded commas/quotes.
  static Result<Table> FromCsv(std::string_view csv,
                               std::string name = "table");

  /// \brief Builds a table from a header and rows of raw strings.
  static Result<Table> FromStrings(
      const std::vector<std::string>& header,
      const std::vector<std::vector<std::string>>& rows,
      std::string name = "table");

  /// \brief Builds a table from a header and header.size() cells per row,
  /// row after row, inferring column types as FromStrings does.
  static Table FromValues(std::string name,
                          const std::vector<std::string>& header,
                          const std::vector<Value>& cells);

  const std::string& name() const { return columns().name(); }
  const Schema& schema() const { return columns().schema(); }
  size_t num_rows() const { return columns().num_rows(); }
  size_t num_columns() const { return columns().num_columns(); }
  bool empty() const { return num_rows() == 0; }

  /// \brief The Value of one cell, reconstructed from its typed column.
  Value cell(size_t r, size_t c) const { return columns().CellValue(r, c); }

  Result<size_t> ColumnIndex(std::string_view name) const {
    return schema().ColumnIndex(name);
  }

  /// \brief Lazily built per-column accelerators (numeric cache, equality
  /// hash index, sorted row order) shared by every executor and every
  /// copy of this table; see table/index.h for the caching and
  /// thread-safety contract.
  const TableIndex& index() const { return body().index; }

  /// \brief Eagerly builds every column cache of index(). Serving calls
  /// this once at table load so request execution never pays the build.
  void WarmIndex() const;

  /// \brief The typed columns holding this table's cells.
  const ColumnarTable& columns() const { return body().columns; }

  /// \brief Index of the row whose first-column value matches `row_name`
  /// (exact case-insensitive first, then unique-substring fallback).
  Result<size_t> RowIndexByName(std::string_view row_name) const;

  /// \brief A new table with row `r` removed, keeping this schema.
  Table WithoutRow(size_t r) const;

  /// \brief Serializes back to CSV (quoting where needed).
  std::string ToCsv() const;

  /// \brief Markdown rendering for examples and logs.
  std::string ToMarkdown() const;

  /// \brief Flat textual form used by model feature extraction, e.g.
  /// "col: year is 2019 ; col: revenue is $1,234 | ...".
  std::string Linearize(size_t max_rows = 64) const;

 private:
  /// The shared, immutable state. The index reads `columns`, so the two
  /// live and die together.
  struct Body {
    explicit Body(ColumnarTable cells)
        : columns(std::move(cells)), index(&columns) {}
    ColumnarTable columns;
    TableIndex index;
  };

  /// A default-constructed or moved-from table reads as the empty table.
  const Body& body() const { return body_ ? *body_ : EmptyBody(); }
  static const Body& EmptyBody();

  std::shared_ptr<const Body> body_;
};

}  // namespace uctr

#endif  // UCTR_TABLE_TABLE_H_
