#include "program/sampler.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "common/numeric.h"
#include "ir/plan_cache.h"
#include "table/index.h"

namespace uctr {

namespace {

/// Runs `form` with `texts` bound, and renders the program.
Result<SampledProgram> RunBound(const TemplateForm& form, const Table& table,
                                std::vector<std::string> texts) {
  std::vector<std::string_view> views(texts.begin(), texts.end());
  SampledProgram out;
  UCTR_ASSIGN_OR_RETURN(out.result,
                        form.Run(table, views, ir::PlanCache::Default()));
  out.program.type = form.tmpl().type;
  out.program.text = form.tmpl().Fill(views);
  out.texts = std::move(texts);
  return out;
}

}  // namespace

Result<std::vector<std::string>> ProgramSampler::BindPlaceholders(
    const ProgramTemplate& tmpl, const Table& table) {
  const std::vector<Placeholder>& slots = tmpl.placeholders;
  std::vector<std::string> texts(slots.size());
  std::map<std::string, size_t> column_of;  // placeholder id -> column index
  std::set<size_t> used_columns;

  if (table.num_rows() == 0) {
    return Status::InvalidArgument("cannot sample from an empty table");
  }

  // Pass 1: columns (values depend on them).
  for (size_t i = 0; i < slots.size(); ++i) {
    const Placeholder& p = slots[i];
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
    texts[i] = table.schema().column(chosen).name;
  }

  // Pass 2: rows, values, ordinals; {derive} is bound by SampleClaim.
  for (size_t i = 0; i < slots.size(); ++i) {
    const Placeholder& p = slots[i];
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
        texts[i] = names.display(candidates[rng_->Index(candidates.size())]);
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
        texts[i] = cache.display(candidates[rng_->Index(candidates.size())]);
        break;
      }
      case Placeholder::Kind::kOrdinal: {
        size_t hi = std::min<size_t>(5, std::max<size_t>(1, table.num_rows()));
        texts[i] = std::to_string(rng_->UniformInt(1, hi));
        break;
      }
      case Placeholder::Kind::kDerive:
        break;
    }
  }
  return texts;
}

Result<SampledProgram> ProgramSampler::Sample(const TemplateForm& form,
                                              const Table& table) {
  if (form.tmpl().HasDerive()) {
    return Status::InvalidArgument(
        "template has {derive}; use SampleClaim for verification templates");
  }
  UCTR_ASSIGN_OR_RETURN(auto texts, BindPlaceholders(form.tmpl(), table));
  return RunBound(form, table, std::move(texts));
}

Result<SampledProgram> ProgramSampler::SampleClaim(const TemplateForm& form,
                                                   const Table& table,
                                                   bool target_true) {
  const ProgramTemplate& tmpl = form.tmpl();
  if (tmpl.type != ProgramType::kLogicalForm) {
    return Status::InvalidArgument(
        "claim sampling only applies to logical forms");
  }
  UCTR_ASSIGN_OR_RETURN(auto texts, BindPlaceholders(tmpl, table));
  // Without a derived slot the truth value is whatever the form evaluates
  // to.
  if (!tmpl.HasDerive()) return RunBound(form, table, std::move(texts));

  // Run the sibling sub-expression to learn the true value.
  std::vector<std::string_view> views(texts.begin(), texts.end());
  UCTR_ASSIGN_OR_RETURN(
      ExecResult inner,
      form.RunDerive(table, views, ir::PlanCache::Default()));
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
      for (size_t i = 0; i < texts.size(); ++i) {
        if (tmpl.derive_column_id.empty() ||
            tmpl.placeholders[i].id != tmpl.derive_column_id) {
          continue;
        }
        auto c = table.ColumnIndex(texts[i]);
        if (!c.ok()) break;
        const TableIndex::Column& cache = table.index().column(*c);
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
        break;
      }
      if (distractor.empty()) {
        return Status::NotFound(
            "no distractor available to build a refuted claim");
      }
      derived_text = std::move(distractor);
    }
  }
  for (size_t i = 0; i < texts.size(); ++i) {
    if (tmpl.placeholders[i].kind == Placeholder::Kind::kDerive) {
      texts[i] = derived_text;
    }
  }
  return RunBound(form, table, std::move(texts));
}

}  // namespace uctr
