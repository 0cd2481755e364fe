#include "program/sampler.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/numeric.h"
#include "common/string_util.h"
#include "ir/ir.h"
#include "logic/ast.h"
#include "logic/parser.h"
#include "table/index.h"

namespace uctr {

namespace {

constexpr char kDeriveSentinel[] = "__uctr_derive__";

/// Strips characters that would break re-parsing when a cell value is
/// substituted into a program as raw text.
std::string SanitizeForProgram(ProgramType type, std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (type == ProgramType::kLogicalForm &&
        (c == '{' || c == '}' || c == ';')) {
      continue;
    }
    if (type == ProgramType::kArithmetic && (c == '(' || c == ')' || c == ',')) {
      continue;
    }
    if (type == ProgramType::kSql && (c == '[' || c == ']')) {
      continue;  // would close/open a bracketed identifier early
    }
    if (type == ProgramType::kSql && c == '\'') {
      out += "''";
      continue;
    }
    out.push_back(c);
  }
  return Trim(out);
}

/// Finds the parent of the literal node named `sentinel`; returns the
/// parent and the argument index, or nullptr when absent.
logic::Node* FindDeriveParent(logic::Node* node, size_t* arg_index) {
  for (size_t i = 0; i < node->args.size(); ++i) {
    logic::Node* child = node->args[i].get();
    if (child->is_literal && child->name == kDeriveSentinel) {
      *arg_index = i;
      return node;
    }
    if (logic::Node* found = FindDeriveParent(child, arg_index)) return found;
  }
  return nullptr;
}

}  // namespace

Result<std::map<std::string, std::string>> ProgramSampler::BindPlaceholders(
    const ProgramTemplate& tmpl, const Table& table) {
  std::map<std::string, std::string> bindings;
  std::map<std::string, size_t> column_of;  // placeholder id -> column index
  std::set<size_t> used_columns;

  if (table.num_rows() == 0) {
    return Status::InvalidArgument("cannot sample from an empty table");
  }

  // Pass 1: columns (values depend on them).
  for (const Placeholder& p : tmpl.placeholders) {
    if (p.kind != Placeholder::Kind::kColumn) continue;
    std::vector<size_t> candidates;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (p.has_type_constraint && table.schema().column(c).type != p.column_type) {
        continue;
      }
      if (used_columns.count(c)) continue;
      candidates.push_back(c);
    }
    if (candidates.empty()) {
      // Permit reuse when distinct choices ran out (narrow tables).
      for (size_t c = 0; c < table.num_columns(); ++c) {
        if (!p.has_type_constraint ||
            table.schema().column(c).type == p.column_type) {
          candidates.push_back(c);
        }
      }
    }
    if (candidates.empty()) {
      return Status::NotFound("no column matches placeholder '" + p.id + "'");
    }
    size_t chosen = candidates[rng_->Index(candidates.size())];
    used_columns.insert(chosen);
    column_of[p.id] = chosen;
    bindings[p.id] =
        SanitizeForProgram(tmpl.type, table.schema().column(chosen).name);
  }

  // Pass 2: rows, values, ordinals.
  for (const Placeholder& p : tmpl.placeholders) {
    switch (p.kind) {
      case Placeholder::Kind::kColumn:
        break;
      case Placeholder::Kind::kRow: {
        // Cached display strings: only the one chosen name is copied,
        // instead of materializing every row name per sample.
        const TableIndex::Column& names = table.index().column(0);
        std::vector<size_t> candidates;
        for (size_t r = 0; r < table.num_rows(); ++r) {
          if (!names.display(r).empty()) candidates.push_back(r);
        }
        if (candidates.empty()) {
          return Status::NotFound("table has no usable row names");
        }
        bindings[p.id] = SanitizeForProgram(
            tmpl.type,
            names.display(candidates[rng_->Index(candidates.size())]));
        break;
      }
      case Placeholder::Kind::kValue: {
        auto it = column_of.find(p.column_id);
        if (it == column_of.end()) {
          return Status::Internal("unbound column id '" + p.column_id + "'");
        }
        const TableIndex::Column& cache = table.index().column(it->second);
        std::vector<size_t> candidates;
        for (size_t r = 0; r < table.num_rows(); ++r) {
          if (!cache.is_null[r]) candidates.push_back(r);
        }
        if (candidates.empty()) {
          return Status::NotFound("column has no non-null values for '" +
                                  p.id + "'");
        }
        bindings[p.id] = SanitizeForProgram(
            tmpl.type,
            cache.display(candidates[rng_->Index(candidates.size())]));
        break;
      }
      case Placeholder::Kind::kOrdinal: {
        size_t hi = std::min<size_t>(5, std::max<size_t>(1, table.num_rows()));
        bindings[p.id] = std::to_string(rng_->UniformInt(1, hi));
        break;
      }
      case Placeholder::Kind::kDerive:
        bindings[p.id] = kDeriveSentinel;
        break;
    }
  }
  return bindings;
}

Result<SampledProgram> ProgramSampler::Sample(const ProgramTemplate& tmpl,
                                              const Table& table) {
  if (tmpl.HasDerive()) {
    return Status::InvalidArgument(
        "template has {derive}; use SampleClaim for verification templates");
  }
  UCTR_ASSIGN_OR_RETURN(auto bindings, BindPlaceholders(tmpl, table));
  SampledProgram out;
  out.program.type = tmpl.type;
  UCTR_ASSIGN_OR_RETURN(out.program.text, tmpl.Fill(bindings));
  UCTR_ASSIGN_OR_RETURN(out.result, out.program.Execute(table));
  out.bindings = std::move(bindings);
  out.reasoning_type = tmpl.reasoning_type;
  return out;
}

Result<SampledProgram> ProgramSampler::SampleClaim(const ProgramTemplate& tmpl,
                                                   const Table& table,
                                                   bool target_true) {
  if (tmpl.type != ProgramType::kLogicalForm) {
    return Status::InvalidArgument(
        "claim sampling only applies to logical forms");
  }
  UCTR_ASSIGN_OR_RETURN(auto bindings, BindPlaceholders(tmpl, table));
  UCTR_ASSIGN_OR_RETURN(std::string filled, tmpl.Fill(bindings));

  if (!tmpl.HasDerive()) {
    // No derived slot: the truth value is whatever the form evaluates to.
    SampledProgram out;
    out.program.type = tmpl.type;
    out.program.text = std::move(filled);
    UCTR_ASSIGN_OR_RETURN(out.result, out.program.Execute(table));
    out.bindings = std::move(bindings);
    out.reasoning_type = tmpl.reasoning_type;
    return out;
  }

  UCTR_ASSIGN_OR_RETURN(auto node, logic::Parse(filled));
  size_t arg_index = 0;
  logic::Node* parent = FindDeriveParent(node.get(), &arg_index);
  if (parent == nullptr) {
    return Status::Internal("derive sentinel vanished from parsed form");
  }
  if (parent->args.size() != 2) {
    return Status::InvalidArgument(
        "{derive} must sit in a binary comparison operator");
  }
  // Execute the sibling sub-expression to learn the true value.
  const logic::Node& sibling = *parent->args[1 - arg_index];
  UCTR_ASSIGN_OR_RETURN(ir::Plan plan,
                        ir::LowerLogic(sibling, table.schema()));
  UCTR_ASSIGN_OR_RETURN(ExecResult inner, ir::ExecutePlan(plan, table));
  Value truth = inner.scalar();
  if (truth.is_null()) {
    return Status::EmptyResult("derived value is null");
  }

  std::string derived_text = truth.ToDisplayString();
  if (!target_true) {
    if (auto num = truth.ToNumber(); num.ok()) {
      double v = num.ValueOrDie();
      double magnitude = std::max(1.0, std::abs(v) *
                                           rng_->UniformDouble(0.1, 0.5));
      double corrupted = v + (rng_->Bernoulli(0.5) ? magnitude : -magnitude);
      // Keep counts and ordinals integral so corrupted claims stay fluent.
      if (std::abs(v - std::round(v)) < 1e-9) {
        corrupted = std::round(corrupted);
        if (NearlyEqual(corrupted, v)) corrupted = v + 1;
      }
      derived_text = FormatNumber(corrupted);
    } else {
      // Distractor string from the derive column.
      std::string distractor;
      if (!tmpl.derive_column_id.empty()) {
        auto col_binding = bindings.find(tmpl.derive_column_id);
        if (col_binding != bindings.end()) {
          auto c = table.ColumnIndex(col_binding->second);
          if (c.ok()) {
            const TableIndex::Column& cache =
                table.index().column(c.ValueOrDie());
            TableIndex::LiteralKey truth_key(truth);
            std::vector<size_t> options;
            for (size_t r = 0; r < table.num_rows(); ++r) {
              if (!cache.is_null[r] &&
                  !TableIndex::CellEquals(cache, r, truth_key)) {
                options.push_back(r);
              }
            }
            if (!options.empty()) {
              distractor = cache.display(options[rng_->Index(options.size())]);
            }
          }
        }
      }
      if (distractor.empty()) {
        return Status::NotFound(
            "no distractor available to build a refuted claim");
      }
      derived_text = std::move(distractor);
    }
  }

  parent->args[arg_index] = logic::Node::Literal(
      SanitizeForProgram(ProgramType::kLogicalForm, derived_text));
  bindings["derive"] = derived_text;

  SampledProgram out;
  out.program.type = ProgramType::kLogicalForm;
  out.program.text = node->ToString();
  UCTR_ASSIGN_OR_RETURN(out.result, out.program.Execute(table));
  out.bindings = std::move(bindings);
  out.reasoning_type = tmpl.reasoning_type;
  return out;
}

}  // namespace uctr
