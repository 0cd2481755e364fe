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

namespace ir {
struct Plan;
struct TemplateSlots;
}  // namespace ir

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
/// supplied as slot Values, and Bind puts them in the skeleton's tree for
/// the realizer; nothing is spliced into program text.
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

  /// \brief The text the skeleton holds at placeholder p's fields.
  const std::string& marker(size_t p) const { return markers_[p]; }

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

  /// \brief Runs the subtree a {derive} slot is compared with, whose value
  /// a true claim states, as Run runs the template; its plans are cached
  /// apart from the template's. The {derive} slot's text is not read.
  /// InvalidArgument when no {derive} slot sits in a binary operator.
  Result<ExecResult> RunDerive(const Table& table,
                               std::span<const std::string_view> texts,
                               ir::PlanCache& cache) const;

  /// \brief The skeleton's tree with `texts[p]` in placeholder p's fields,
  /// as the parser reads text that holds no program syntax: a name or a
  /// logic literal trimmed, a SQL literal as Value::FromText, and an
  /// arithmetic series name that reads as a number as a constant.
  ProgramTree Bind(std::span<const std::string_view> texts) const;

  /// \brief The scan walker over Bind(texts): the reference Run is tested
  /// against.
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

  Program Skeleton() const;
  /// The placeholder whose marker is `text`, or -1.
  int SlotOf(std::string_view text) const;
  Status Classify();
  Value FieldValue(const Field& field,
                   std::span<const std::string_view> texts) const;
  /// The plan of the skeleton, or of the {derive} sibling, for `slots`.
  Result<ir::Plan> Lower(const ir::TemplateSlots& slots, bool derive) const;
  ir::TemplateSlots Slots(std::span<const uint32_t> positions) const;
  Result<ExecResult> Execute(const Table& table,
                             std::span<const std::string_view> texts,
                             ir::PlanCache& cache, bool derive) const;

  ProgramTemplate tmpl_;
  std::vector<std::string> markers_;  ///< per placeholder
  std::vector<SlotPrint> prints_;     ///< per placeholder
  std::vector<Field> fields_;
  std::vector<size_t> column_slots_;  ///< placeholders the plan resolves
  uint64_t fingerprint_ = 0;          ///< ir::TemplateFingerprint
  uint64_t derive_fingerprint_ = 0;   ///< the {derive} sibling's plans
  std::shared_ptr<const ProgramTree> skeleton_;
  /// The subtree of `skeleton_` the {derive} slot is compared with.
  const logic::Node* derive_sibling_ = nullptr;
};

}  // namespace uctr

#endif  // UCTR_PROGRAM_TEMPLATE_FORM_H_
