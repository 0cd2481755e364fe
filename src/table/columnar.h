#ifndef UCTR_TABLE_COLUMNAR_H_
#define UCTR_TABLE_COLUMNAR_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "table/value.h"

namespace uctr {

class Table;
namespace store {
class Codec;
}  // namespace store

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
  const std::vector<ColumnSpec>& columns() const { return columns_; }

  /// \brief Case-insensitive lookup by header name.
  Result<size_t> ColumnIndex(std::string_view name) const;
  bool HasColumn(std::string_view name) const;

  /// \brief 64-bit FNV-1a (truncated basis) over column names and types,
  /// the canonical shape identity used to key plans compiled from program
  /// text. Cell contents do not participate. Allocation-free: the hash is
  /// streamed, not buffered.
  uint64_t Fingerprint() const;

  void AddColumn(ColumnSpec spec) { columns_.push_back(std::move(spec)); }

 private:
  std::vector<ColumnSpec> columns_;
};

/// \brief Physical storage decided once per column.
///
/// A single pass over the column picks the narrowest encoding that
/// represents every cell exactly, and from then on readers touch typed
/// arrays instead of per-cell dynamically typed Values.
enum class ColumnEncoding : uint8_t {
  kInt64 = 0,   ///< every non-null cell is a number with an integral value
  kDouble = 1,  ///< every non-null cell is a number
  kString = 2,  ///< every non-null cell is a string (interned)
  kBool = 3,    ///< every non-null cell is a bool (bit-packed)
  kMixed = 4,   ///< heterogeneous column: per-cell type tags
};

/// \brief Strings packed end to end behind 32-bit offsets; id 0 is always
/// the empty string, so "no surface text" costs nothing. Intern() adds
/// each distinct string once through an open-addressed table of ids the
/// caller holds, and Find() looks strings up in it. A table's pool keeps
/// no such table: the builder drops its own when the table is built.
class StringPool {
 public:
  static constexpr uint32_t kNotFound = UINT32_MAX;

  /// \brief Appends `text` and returns its id. A pool holds at most
  /// 4 GiB of text.
  uint32_t Add(std::string_view text);

  /// \brief The id of `text`, added if absent. `slots` holds the ids of
  /// the strings interned so far (0 marks a free slot: "" never takes
  /// one); it may start empty, and grows to stay under half full.
  uint32_t Intern(std::string_view text, std::vector<uint32_t>* slots);

  /// \brief The id of `text` among the strings interned through `slots`,
  /// or kNotFound.
  uint32_t Find(std::string_view text,
                const std::vector<uint32_t>& slots) const;

  std::string_view at(uint32_t id) const {
    return std::string_view(chars_.data() + offsets_[id],
                            offsets_[id + 1] - offsets_[id]);
  }
  uint32_t size() const { return static_cast<uint32_t>(offsets_.size() - 1); }
  bool valid(uint32_t id) const { return id < size(); }

  void ShrinkToFit() {
    chars_.shrink_to_fit();
    offsets_.shrink_to_fit();
  }
  size_t ApproxBytes() const {
    return chars_.capacity() + offsets_.capacity() * sizeof(uint32_t);
  }

 private:
  friend class store::Codec;

  /// The slot of `text`, or the free slot where it would go.
  size_t Probe(std::string_view text,
               const std::vector<uint32_t>& slots) const;

  std::vector<char> chars_;
  /// String i is chars_[offsets_[i], offsets_[i + 1]).
  std::vector<uint32_t> offsets_{0, 0};
};

/// \brief One typed column: null bitmap plus encoding-specific arrays,
/// all row-aligned. Only the arrays the encoding needs are populated;
/// slots under a set null bit are zero-filled.
struct TypedColumn {
  ColumnEncoding encoding = ColumnEncoding::kString;

  /// Bit r set = row r is null. ceil(rows/8) bytes.
  std::vector<uint8_t> null_bitmap;
  std::vector<int64_t> ints;       ///< kInt64
  std::vector<double> doubles;     ///< kDouble, and kMixed numbers/bools
  /// String-pool ids: the cell text for kString, the numeric surface text
  /// ("$1,234.5") for kInt64/kDouble (empty when no cell has one), and
  /// both roles for kMixed.
  std::vector<uint32_t> text_ids;
  std::vector<uint8_t> bool_bits;  ///< kBool: bit r = value of row r
  std::vector<uint8_t> cell_types; ///< kMixed: ValueType per row

  bool is_null(size_t r) const {
    return (null_bitmap[r / 8] >> (r % 8)) & 1;
  }
};

/// \brief A table's cells as typed columns over one string pool, with the
/// table's name and schema: the one form a Table holds (see table.h), and
/// what store::Codec serializes.
///
/// Built by Build() and by Codec::Decode only. CellValue() reconstructs
/// every cell exactly: its type, numeric value (sign of zero included)
/// and surface text. The encoding is canonical: building from the Values
/// CellValue() returns re-produces the same columns and pool order, which
/// is what makes the serialized bytes, and therefore the content
/// fingerprint (see store/codec.h), stable.
class ColumnarTable {
 public:
  ColumnarTable() = default;

  /// \brief The encoding pass. `cells` holds schema.num_columns() Values
  /// for each of `num_rows` rows, row after row; the schema's column types
  /// are kept as given. One pass per column decides the encoding, interns
  /// strings in column then row order, and packs values. Never fails:
  /// kMixed represents any column.
  static ColumnarTable Build(std::string name, Schema schema, size_t num_rows,
                             const std::vector<Value>& cells);

  /// \brief `table`'s own columns, borrowed: the store's spelling of
  /// Table::columns().
  static const ColumnarTable& FromTable(const Table& table);

  /// \brief The Value of one cell, reconstructed from the typed arrays.
  Value CellValue(size_t r, size_t c) const;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }
  const TypedColumn& column(size_t c) const { return columns_[c]; }
  const StringPool& pool() const { return pool_; }

  /// \brief Heap bytes of the name, schema, typed arrays and pool.
  size_t ApproxBytes() const;

 private:
  friend class store::Codec;

  std::string name_;
  Schema schema_;
  size_t num_rows_ = 0;
  std::vector<TypedColumn> columns_;
  StringPool pool_;
};

}  // namespace uctr

#endif  // UCTR_TABLE_COLUMNAR_H_
