#ifndef UCTR_HYBRID_TEXT_TO_TABLE_H_
#define UCTR_HYBRID_TEXT_TO_TABLE_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "table/table.h"

namespace uctr::hybrid {

/// \brief One record extracted from text: a row name plus column -> value
/// assignments aligned with an existing table's schema.
struct ExtractedRecord {
  std::string row_name;
  std::map<std::string, std::string> fields;  // column header -> raw value
  size_t source_sentence = 0;
};

/// \brief The paper's Text-To-Table operator (Equation 6):
/// f(T, P) -> T_expand. Replaces the seq2seq model of Wu et al. [52] with a
/// schema-guided pattern extractor (see DESIGN.md, "Substitutions").
///
/// Following Section IV-A, the operator (1) filters candidate sentences —
/// a sentence is useful when it mentions the table's column headers — then
/// (2) extracts a one-record table and (3) integrates the record into the
/// original table when the schemas align (shared column names).
class TextToTable {
 public:
  TextToTable() = default;

  /// \brief Extracts the best-supported record from the sentences:
  /// the sentence matching the most column headers wins; its subject
  /// becomes the row name and each mentioned header is paired with the
  /// value following it.
  Result<ExtractedRecord> ExtractRecord(
      const Table& table, const std::vector<std::string>& sentences) const;

  /// \brief Appends `record` to `table` as a new row (nulls where the
  /// record has no value). Fails when the record shares no column with the
  /// table or duplicates an existing row name.
  Result<Table> Expand(const Table& table,
                       const ExtractedRecord& record) const;

  /// \brief ExtractRecord + Expand.
  Result<Table> Apply(const Table& table,
                      const std::vector<std::string>& sentences) const;
};

}  // namespace uctr::hybrid

#endif  // UCTR_HYBRID_TEXT_TO_TABLE_H_
