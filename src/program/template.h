#ifndef UCTR_PROGRAM_TEMPLATE_H_
#define UCTR_PROGRAM_TEMPLATE_H_

#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "program/program.h"
#include "table/table.h"

namespace uctr {

/// \brief One placeholder slot inside a program template pattern.
///
/// Pattern syntax (Section IV-B/IV-C of the paper, generalized):
///   {c1}        column placeholder, any type
///   {c1:num}    column placeholder restricted to numeric columns
///   {c1:text}   column placeholder restricted to text columns
///   {v1@c1}     value placeholder sampled from the column bound to c1
///   {r1}        row placeholder: a row name (first-column value), used by
///               arithmetic cell references `col of row`
///   {ord1}      small ordinal (1..min(#rows,5)), for nth_max etc.
///   {derive}    the final argument of a verification form, computed by
///               executing the rest of the program (true-claim derivation)
struct Placeholder {
  enum class Kind {
    kColumn,
    kValue,
    kRow,
    kOrdinal,
    kDerive,
  };

  Kind kind = Kind::kColumn;
  std::string id;             // "c1", "v1", "ord1"
  ColumnType column_type = ColumnType::kText;
  bool has_type_constraint = false;
  std::string column_id;      // for kValue: the column placeholder it draws from

  /// \brief The `{...}` source spelling.
  std::string spelling;
};

/// \brief A program template: a pattern with typed placeholders, the unit
/// the paper collects from SQUALL / LOGIC2TEXT / FinQA and re-instantiates
/// on new tables by random sampling.
struct ProgramTemplate {
  ProgramType type = ProgramType::kSql;
  std::string pattern;
  std::vector<Placeholder> placeholders;
  /// Reasoning-type tag (count, superlative, comparative, aggregation,
  /// majority, unique, ordinal, arithmetic, span, ...), used by the
  /// ablation harness and for diversity accounting.
  std::string reasoning_type;
  /// For kDerive templates: the column placeholder id the derived value is
  /// drawn from; the claim corrupter samples distractors from that column.
  std::string derive_column_id;

  /// \brief Parses `pattern`, populating `placeholders`. Fails on malformed
  /// `{...}` slots or a {v@c} referencing an unknown column id.
  static Result<ProgramTemplate> Make(ProgramType type, std::string pattern,
                                      std::string reasoning_type = "",
                                      std::string derive_column_id = "");

  /// \brief Substitutes `bindings` (id -> surface text) into the pattern.
  /// Every placeholder must be bound.
  Result<std::string> Fill(
      const std::map<std::string, std::string>& bindings) const;

  /// \brief The pattern with `texts[p]` written at each occurrence of
  /// placeholder p, in one pass: bound text is never read as a slot.
  std::string Fill(std::span<const std::string_view> texts) const;

  bool HasDerive() const;
};

/// \brief Drops templates whose pattern duplicates an earlier one
/// (the paper's redundancy filtration of collected templates).
std::vector<ProgramTemplate> DeduplicateTemplates(
    std::vector<ProgramTemplate> templates);

}  // namespace uctr

#endif  // UCTR_PROGRAM_TEMPLATE_H_
