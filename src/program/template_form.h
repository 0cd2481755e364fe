#ifndef UCTR_PROGRAM_TEMPLATE_FORM_H_
#define UCTR_PROGRAM_TEMPLATE_FORM_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "program/program.h"
#include "program/template.h"
#include "table/exec_result.h"
#include "table/table.h"

namespace uctr {

namespace sql {
struct SelectStatement;
}
namespace logic {
struct Node;
}
namespace arith {
struct Expression;
}

/// \brief How the canonical realizer prints the text bound to a slot.
enum class SlotPrint : uint8_t {
  kVerbatim,    ///< names and logic literals: the text itself
  kSqlLiteral,  ///< a SQL literal: Value::FromText(text).ToDisplayString()
  kOrdinal,     ///< a logic ordinal: OrdinalWord of its number
  kOperand,     ///< an arithmetic series name: a number as FormatNumber
                ///<   prints it, other text as is
};

/// \brief A program template parsed once into a skeleton — the template
/// with each slot filled by a marker text — so that a candidate is the
/// template plus the text bound to each slot. Run executes the plan
/// lowered once per (template, column positions), with the bound texts
/// supplied as slot Values; nothing is spliced into program text.
///
/// Make accepts a template only if each slot fills whole program fields:
/// a column slot names columns, and every other slot is a whole SQL or
/// logic literal, or a whole row name in an arithmetic cell reference or
/// series. Every built-in template, and every template the templatizer
/// makes, qualifies.
///
/// Immutable after Make; copies share the parsed skeleton.
class TemplateForm {
 public:
  static Result<TemplateForm> Make(const ProgramTemplate& tmpl);

  const ProgramTemplate& tmpl() const { return tmpl_; }

  /// \brief The skeleton program. With `merged` (one entry per
  /// placeholder), placeholder p is written with the marker of
  /// placeholder merged[p].
  Program Skeleton(std::span<const size_t> merged = {}) const;

  /// \brief Placeholder p's marker as the canonical realizer prints it.
  std::string PrintedMarker(size_t p) const;

  /// \brief How the realizer prints placeholder p's bound text.
  SlotPrint print(size_t p) const { return prints_[p]; }

  /// \brief Runs the template with `texts[p]` bound to placeholder p: the
  /// plan for the bound columns' positions comes from `cache`, lowered and
  /// put there on a miss. Column names resolve with Schema::ColumnIndex,
  /// as a parsed program's would. A logic literal that reads `all_rows`
  /// fails here with the TypeError its lowering would raise.
  Result<ExecResult> Run(const Table& table,
                         std::span<const std::string_view> texts,
                         ir::PlanCache& cache) const;

  /// \brief The scan walker over the skeleton with the bound texts put in
  /// its fields: the reference Run is tested against.
  Result<ExecResult> Walk(const Table& table,
                          std::span<const std::string_view> texts) const;

 private:
  /// A pool value each execution supplies: a literal (Value::FromText of
  /// the text bound to `slot`), a name (the trimmed text) or a cell
  /// reference's text ("column of row", from `slot` and `row_slot`).
  struct Field {
    enum class Kind : uint8_t { kLiteral, kName, kCellText };
    Kind kind = Kind::kLiteral;
    size_t slot = 0;
    size_t row_slot = 0;
    std::string marker_text;  ///< the field as the skeleton writes it
  };

  TemplateForm() = default;

  Status Classify();
  Value FieldValue(const Field& field,
                   std::span<const std::string_view> texts) const;

  ProgramTemplate tmpl_;
  std::vector<std::string> markers_;  ///< per placeholder
  std::vector<SlotPrint> prints_;     ///< per placeholder
  std::vector<Field> fields_;
  std::vector<size_t> column_slots_;  ///< placeholders the plan resolves
  uint64_t fingerprint_ = 0;          ///< ir::TemplateFingerprint
  std::shared_ptr<const sql::SelectStatement> sql_;
  std::shared_ptr<const logic::Node> logic_;
  std::shared_ptr<const arith::Expression> arith_;
};

}  // namespace uctr

#endif  // UCTR_PROGRAM_TEMPLATE_FORM_H_
