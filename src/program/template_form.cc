#include "program/template_form.h"

#include <numeric>
#include <utility>

#include "arith/executor.h"
#include "common/hash.h"
#include "common/numeric.h"
#include "common/string_util.h"
#include "ir/ir.h"
#include "ir/plan_cache.h"
#include "logic/executor.h"
#include "sql/executor.h"

namespace uctr {

namespace {

// Marker texts: one word token each, with no program syntax, and never in
// a pattern (Make refuses one that holds them). Ordinal slots get numbers,
// since the logic realizer prints an ordinal as OrdinalWord of its number.
constexpr std::string_view kMarkerPrefix = "zqx";
constexpr int kOrdinalMarkerBase = 1000000007;

/// Operators whose argument 1 the lowering resolves as a column.
bool TakesColumnAtArg1(const std::string& op) {
  return StartsWith(op, "filter_") || StartsWith(op, "most_") ||
         StartsWith(op, "all_") || op == "hop" || op == "num_hop" ||
         op == "str_hop" || op == "max" || op == "min" || op == "sum" ||
         op == "avg" || op == "average" || op == "argmax" || op == "argmin" ||
         op == "nth_argmax" || op == "nth_argmin" || op == "nth_max" ||
         op == "nth_min";
}

bool TakesOrdinalAtArg2(const std::string& op) {
  return op == "nth_argmax" || op == "nth_argmin" || op == "nth_max" ||
         op == "nth_min";
}

Status NotWhole(std::string_view field) {
  return Status::InvalidArgument("template field '" + std::string(field) +
                                 "' is not one whole slot");
}

size_t Count(std::string_view text, std::string_view needle) {
  size_t n = 0;
  for (size_t pos = text.find(needle); pos != std::string_view::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

}  // namespace

Result<TemplateForm> TemplateForm::Make(const ProgramTemplate& tmpl) {
  TemplateForm form;
  form.tmpl_ = tmpl;
  const std::vector<Placeholder>& slots = tmpl.placeholders;
  if (tmpl.pattern.find(kMarkerPrefix) != std::string::npos) {
    return NotWhole(tmpl.pattern);
  }
  for (size_t p = 0; p < slots.size(); ++p) {
    std::string marker =
        slots[p].kind == Placeholder::Kind::kOrdinal
            ? std::to_string(kOrdinalMarkerBase + static_cast<int>(p))
            : std::string(kMarkerPrefix) + std::to_string(p) + "qz";
    if (tmpl.pattern.find(marker) != std::string::npos) {
      return NotWhole(tmpl.pattern);
    }
    form.markers_.push_back(std::move(marker));
  }
  UCTR_ASSIGN_OR_RETURN(ProgramTree skeleton, ParseProgram(form.Skeleton()));
  form.skeleton_ = std::make_shared<const ProgramTree>(std::move(skeleton));
  UCTR_RETURN_NOT_OK(form.Classify());

  // Every slot field must have reached the plan as a slot: lower once with
  // placeholder positions and look for markers left in the pool (a marker
  // in an error message means the lowering read it as something else).
  std::vector<uint32_t> trial(form.column_slots_.size());
  std::iota(trial.begin(), trial.end(), 0u);
  UCTR_ASSIGN_OR_RETURN(ir::Plan plan,
                        form.Lower(form.Slots(trial), /*derive=*/false));
  for (size_t i = plan.num_slots; i < plan.pool.size(); ++i) {
    for (const std::string& marker : form.markers_) {
      if (plan.pool[i].text().find(marker) != std::string::npos) {
        return NotWhole(plan.pool[i].text());
      }
    }
  }
  form.fingerprint_ =
      ir::TemplateFingerprint(FamilyOf(tmpl.type), tmpl.pattern);
  // The pattern's fingerprint continued past a NUL, which no pattern holds.
  form.derive_fingerprint_ =
      hash::Fnv1a64(std::string_view("\0derive", 7), form.fingerprint_);
  return form;
}

Program TemplateForm::Skeleton() const {
  Program program;
  program.type = tmpl_.type;
  std::vector<std::string_view> markers(markers_.begin(), markers_.end());
  program.text = tmpl_.Fill(markers);
  return program;
}

int TemplateForm::SlotOf(std::string_view text) const {
  for (size_t p = 0; p < markers_.size(); ++p) {
    if (markers_[p] == text) return static_cast<int>(p);
  }
  return -1;
}

std::string TemplateForm::PrintedMarker(size_t p) const {
  return prints_[p] == SlotPrint::kOrdinal ? markers_[p] + "th" : markers_[p];
}

/// Walks the skeleton: each marker must fill whole fields of one kind, and
/// every one of its occurrences in the skeleton text must be such a field.
Status TemplateForm::Classify() {
  const std::vector<Placeholder>& slots = tmpl_.placeholders;
  prints_.assign(slots.size(), SlotPrint::kVerbatim);
  std::vector<size_t> seen(slots.size(), 0);
  auto has_marker = [&](std::string_view text) {
    for (const std::string& m : markers_) {
      if (text.find(m) != std::string_view::npos) return true;
    }
    return false;
  };
  auto is_column = [&](int p) {
    return slots[p].kind == Placeholder::Kind::kColumn;
  };
  // Notes one occurrence of placeholder p, printed as `print`.
  auto note = [&](int p, SlotPrint print) -> Status {
    if (seen[p] > 0 && prints_[p] != print) return NotWhole(markers_[p]);
    prints_[p] = print;
    ++seen[p];
    return Status::OK();
  };
  auto add_field = [&](Field field) {
    for (const Field& f : fields_) {
      if (f.marker_text == field.marker_text) return;
    }
    fields_.push_back(std::move(field));
  };
  auto column = [&](const std::string& name) -> Status {
    int p = SlotOf(name);
    if (p < 0 || !is_column(p)) return NotWhole(name);
    UCTR_RETURN_NOT_OK(note(p, SlotPrint::kVerbatim));
    for (size_t c : column_slots_) {
      if (c == static_cast<size_t>(p)) return Status::OK();
    }
    column_slots_.push_back(static_cast<size_t>(p));
    return Status::OK();
  };
  auto literal = [&](const std::string& text, SlotPrint print) -> Status {
    if (!has_marker(text)) return Status::OK();
    int p = SlotOf(text);
    if (p < 0 || is_column(p)) return NotWhole(text);
    bool ordinal = slots[p].kind == Placeholder::Kind::kOrdinal;
    if ((print == SlotPrint::kOrdinal) != ordinal &&
        print != SlotPrint::kSqlLiteral) {
      return NotWhole(text);
    }
    UCTR_RETURN_NOT_OK(note(p, print));
    add_field({Field::Kind::kLiteral, static_cast<size_t>(p), 0, text});
    return Status::OK();
  };

  const ProgramTree& tree = *skeleton_;
  if (tree.type == ProgramType::kSql) {
    for (const sql::SelectItem& item : tree.sql.items) {
      if (!item.star) UCTR_RETURN_NOT_OK(column(item.column));
      if (item.arith != sql::ArithOp::kNone) {
        UCTR_RETURN_NOT_OK(column(item.rhs_column));
      }
    }
    if (tree.sql.order_by) {
      UCTR_RETURN_NOT_OK(column(tree.sql.order_by->column));
    }
    for (const sql::Condition& cond : tree.sql.where) {
      UCTR_RETURN_NOT_OK(column(cond.column));
      UCTR_RETURN_NOT_OK(literal(cond.literal.text(), SlotPrint::kSqlLiteral));
    }
  }
  if (tree.type == ProgramType::kLogicalForm) {
    auto walk = [&](auto&& self, const logic::Node& node) -> Status {
      if (has_marker(node.name) && !node.is_literal) return NotWhole(node.name);
      for (size_t i = 0; i < node.args.size(); ++i) {
        const logic::Node& arg = *node.args[i];
        if (!arg.is_literal) {
          UCTR_RETURN_NOT_OK(self(self, arg));
        } else if (i == 1 && TakesColumnAtArg1(node.name) &&
                   has_marker(arg.name)) {
          UCTR_RETURN_NOT_OK(column(arg.name));
        } else {
          bool ordinal = i == 2 && TakesOrdinalAtArg2(node.name);
          UCTR_RETURN_NOT_OK(literal(
              arg.name, ordinal ? SlotPrint::kOrdinal : SlotPrint::kVerbatim));
          // The first {derive} in a binary operator is compared with the
          // other operand.
          int p = SlotOf(arg.name);
          if (p >= 0 && slots[p].kind == Placeholder::Kind::kDerive &&
              node.args.size() == 2 && derive_sibling_ == nullptr) {
            derive_sibling_ = node.args[1 - i].get();
          }
        }
      }
      return Status::OK();
    };
    if (tree.logic->is_literal) return NotWhole(tree.logic->name);
    UCTR_RETURN_NOT_OK(walk(walk, *tree.logic));
  }
  if (tree.type == ProgramType::kArithmetic) {
    for (const arith::Step& step : tree.arith.steps) {
      bool series = StartsWith(step.op, "table_");
      for (const arith::Operand& arg : step.args) {
        if (arg.kind == arith::Operand::Kind::kCellRef &&
            has_marker(arg.text)) {
          int c = SlotOf(arg.column);
          int r = SlotOf(arg.row);
          if (c < 0 || !is_column(c) || r < 0 || is_column(r)) {
            return NotWhole(arg.text);
          }
          UCTR_RETURN_NOT_OK(note(c, SlotPrint::kVerbatim));
          UCTR_RETURN_NOT_OK(note(r, SlotPrint::kVerbatim));
          add_field({Field::Kind::kName, static_cast<size_t>(c), 0,
                     arg.column});
          add_field({Field::Kind::kName, static_cast<size_t>(r), 0, arg.row});
          add_field({Field::Kind::kCellText, static_cast<size_t>(c),
                     static_cast<size_t>(r), arg.text});
        } else if (series && arg.kind == arith::Operand::Kind::kText &&
                   has_marker(arg.text)) {
          int p = SlotOf(arg.text);
          if (p < 0 || is_column(p)) return NotWhole(arg.text);
          UCTR_RETURN_NOT_OK(note(p, SlotPrint::kOperand));
          add_field({Field::Kind::kName, static_cast<size_t>(p), 0, arg.text});
        } else if (has_marker(arg.text)) {
          return NotWhole(arg.text);
        }
      }
    }
  }
  const std::string skeleton = Skeleton().text;
  for (size_t p = 0; p < slots.size(); ++p) {
    if (seen[p] != Count(skeleton, markers_[p])) return NotWhole(markers_[p]);
  }
  return Status::OK();
}

Value TemplateForm::FieldValue(const Field& field,
                               std::span<const std::string_view> texts) const {
  switch (field.kind) {
    case Field::Kind::kLiteral:
      return Value::FromText(texts[field.slot]);
    case Field::Kind::kName:
      return Value::String(Trim(texts[field.slot]));
    case Field::Kind::kCellText:
      return Value::String(Trim(std::string(texts[field.slot]) + " of " +
                                std::string(texts[field.row_slot])));
  }
  return Value();
}

ir::TemplateSlots TemplateForm::Slots(
    std::span<const uint32_t> positions) const {
  ir::TemplateSlots slots;
  for (size_t i = 0; i < column_slots_.size(); ++i) {
    slots.columns.emplace_back(markers_[column_slots_[i]], positions[i]);
  }
  for (const Field& f : fields_) slots.fields.push_back(f.marker_text);
  return slots;
}

Result<ir::Plan> TemplateForm::Lower(const ir::TemplateSlots& slots,
                                     bool derive) const {
  if (skeleton_->logic) {
    return ir::LowerLogic(derive ? *derive_sibling_ : *skeleton_->logic,
                          slots);
  }
  if (skeleton_->type == ProgramType::kSql) {
    return ir::LowerSql(skeleton_->sql, slots);
  }
  return ir::LowerArith(skeleton_->arith, slots);
}

Result<ExecResult> TemplateForm::Run(
    const Table& table, std::span<const std::string_view> texts,
    ir::PlanCache& cache) const {
  return Execute(table, texts, cache, /*derive=*/false);
}

Result<ExecResult> TemplateForm::RunDerive(
    const Table& table, std::span<const std::string_view> texts,
    ir::PlanCache& cache) const {
  return Execute(table, texts, cache, /*derive=*/true);
}

Result<ExecResult> TemplateForm::Execute(
    const Table& table, std::span<const std::string_view> texts,
    ir::PlanCache& cache, bool derive) const {
  if (derive && derive_sibling_ == nullptr) {
    return Status::InvalidArgument(
        "{derive} must sit in a binary comparison operator");
  }
  std::vector<Value> values;
  std::vector<TableIndex::LiteralKey> keys;
  values.reserve(fields_.size());
  keys.reserve(fields_.size());
  for (const Field& f : fields_) {
    // The {derive} sibling never reads the {derive} field.
    bool unread =
        derive && tmpl_.placeholders[f.slot].kind == Placeholder::Kind::kDerive;
    values.push_back(unread ? Value() : FieldValue(f, texts));
    // A logic literal named all_rows lowers to a row view, which no
    // literal position takes.
    if (!unread && skeleton_->logic &&
        EqualsIgnoreCase(Trim(texts[f.slot]), "all_rows")) {
      return Status::TypeError("expected scalar, got view from '" +
                               Trim(texts[f.slot]) + "'");
    }
    keys.emplace_back(values.back());
  }
  std::vector<uint32_t> positions;
  positions.reserve(column_slots_.size());
  for (size_t p : column_slots_) {
    UCTR_ASSIGN_OR_RETURN(size_t c,
                          table.schema().ColumnIndex(Trim(texts[p])));
    positions.push_back(static_cast<uint32_t>(c));
  }
  const uint64_t fingerprint = derive ? derive_fingerprint_ : fingerprint_;
  const uint64_t shape = ir::ColumnsFingerprint(positions);
  std::shared_ptr<const ir::Plan> plan = cache.Get(fingerprint, shape);
  if (plan == nullptr) {
    cache.NoteCompile();
    UCTR_ASSIGN_OR_RETURN(ir::Plan lowered, Lower(Slots(positions), derive));
    plan = std::make_shared<const ir::Plan>(std::move(lowered));
    cache.Put(fingerprint, shape, plan);
  }
  return ir::ExecutePlan(*plan, table, ir::SlotValues{values, keys});
}

ProgramTree TemplateForm::Bind(std::span<const std::string_view> texts) const {
  // A name or logic literal field: the bound text as the parser trims it.
  auto name = [&](std::string* field) {
    if (int p = SlotOf(*field); p >= 0) *field = Trim(texts[p]);
  };
  // Only the family's own member of the skeleton is non-empty.
  ProgramTree tree{skeleton_->type, skeleton_->sql, nullptr, skeleton_->arith};
  for (sql::SelectItem& item : tree.sql.items) {
    name(&item.column);
    name(&item.rhs_column);
  }
  if (tree.sql.order_by) name(&tree.sql.order_by->column);
  for (sql::Condition& cond : tree.sql.where) {
    name(&cond.column);
    if (int p = SlotOf(cond.literal.text()); p >= 0) {
      cond.literal = Value::FromText(texts[p]);
    }
  }
  if (skeleton_->logic) {
    tree.logic = skeleton_->logic->Clone();
    auto bind = [&](auto&& self, logic::Node* node) -> void {
      if (node->is_literal) name(&node->name);
      for (auto& arg : node->args) self(self, arg.get());
    };
    bind(bind, tree.logic.get());
  }
  for (arith::Step& step : tree.arith.steps) {
    for (arith::Operand& arg : step.args) {
      if (arg.kind == arith::Operand::Kind::kCellRef) {
        int c = SlotOf(arg.column);
        int r = SlotOf(arg.row);
        if (c < 0 || r < 0) continue;
        arg.text = Trim(std::string(texts[c]) + " of " + std::string(texts[r]));
        arg.column = Trim(texts[c]);
        arg.row = Trim(texts[r]);
      } else if (int p = SlotOf(arg.text); p >= 0) {
        // A series name; the parser reads a number as a constant.
        arg.text = Trim(texts[p]);
        if (std::optional<double> n = ParseNumber(arg.text)) {
          arg.kind = arith::Operand::Kind::kConst;
          arg.constant = *n;
        }
      }
    }
  }
  return tree;
}

Result<ExecResult> TemplateForm::Walk(
    const Table& table, std::span<const std::string_view> texts) const {
  ProgramTree tree = Bind(texts);
  switch (tree.type) {
    case ProgramType::kSql:
      return sql::Execute(tree.sql, table);
    case ProgramType::kLogicalForm:
      return logic::Execute(*tree.logic, table);
    case ProgramType::kArithmetic:
      return arith::Execute(tree.arith, table);
  }
  return Status::Internal("unknown program type");
}

}  // namespace uctr
