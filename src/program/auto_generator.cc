#include "program/auto_generator.h"

#include <algorithm>
#include <string>

#include "program/sampler.h"

namespace uctr {

namespace {

/// "{c3:num}" -> "c3".
std::string SlotId(const std::string& spelling) {
  std::string body = spelling.substr(1, spelling.size() - 2);
  size_t colon = body.find(':');
  return colon == std::string::npos ? body : body.substr(0, colon);
}

}  // namespace

std::string AutoTemplateGenerator::NewColumn(SlotCounter* slots, bool numeric,
                                             bool text) {
  std::string id = "c" + std::to_string(++slots->columns);
  if (numeric) return "{" + id + ":num}";
  if (text) return "{" + id + ":text}";
  return "{" + id + "}";
}

std::string AutoTemplateGenerator::NewValue(SlotCounter* slots,
                                            const std::string& column_slot) {
  std::string id = "v" + std::to_string(++slots->values);
  return "{" + id + "@" + SlotId(column_slot) + "}";
}

std::string AutoTemplateGenerator::RandomView(SlotCounter* slots,
                                              size_t depth) {
  if (depth == 0 || rng_->Bernoulli(0.45)) return "all_rows";
  std::string inner = RandomView(slots, depth - 1);
  switch (rng_->UniformInt(0, 3)) {
    case 0: {
      std::string col = NewColumn(slots, /*numeric=*/false);
      return "filter_eq { " + inner + " ; " + col + " ; " +
             NewValue(slots, col) + " }";
    }
    case 1: {
      std::string col = NewColumn(slots, /*numeric=*/true);
      return "filter_greater { " + inner + " ; " + col + " ; " +
             NewValue(slots, col) + " }";
    }
    case 2: {
      std::string col = NewColumn(slots, /*numeric=*/true);
      return "filter_less { " + inner + " ; " + col + " ; " +
             NewValue(slots, col) + " }";
    }
    default: {
      std::string col = NewColumn(slots, /*numeric=*/false);
      return "filter_not_eq { " + inner + " ; " + col + " ; " +
             NewValue(slots, col) + " }";
    }
  }
}

std::string AutoTemplateGenerator::RandomScalar(SlotCounter* slots,
                                                size_t depth,
                                                bool* numeric_out) {
  switch (rng_->UniformInt(0, 4)) {
    case 0: {  // hop over a filtered view
      std::string view = RandomView(slots, std::max<size_t>(1, depth));
      if (view == "all_rows") {
        // A bare hop on all_rows reads an arbitrary first row; prefer a
        // deterministic superlative row instead.
        std::string num_col = NewColumn(slots, /*numeric=*/true);
        view = std::string(rng_->Bernoulli(0.5) ? "argmax" : "argmin") +
               " { all_rows ; " + num_col + " }";
      }
      *numeric_out = false;
      return "hop { " + view + " ; " + NewColumn(slots, false) + " }";
    }
    case 1: {  // count
      *numeric_out = true;
      return "count { " + RandomView(slots, depth) + " }";
    }
    case 2: {  // extremum value
      *numeric_out = true;
      return std::string(rng_->Bernoulli(0.5) ? "max" : "min") + " { " +
             RandomView(slots, depth) + " ; " +
             NewColumn(slots, /*numeric=*/true) + " }";
    }
    case 3: {  // aggregate
      *numeric_out = true;
      return std::string(rng_->Bernoulli(0.5) ? "sum" : "avg") + " { " +
             RandomView(slots, depth) + " ; " +
             NewColumn(slots, /*numeric=*/true) + " }";
    }
    default: {  // ordinal extremum
      *numeric_out = true;
      std::string ord = "{ord" + std::to_string(++slots->ordinals) + "}";
      return std::string(rng_->Bernoulli(0.5) ? "nth_max" : "nth_min") +
             " { " + RandomView(slots, depth) + " ; " +
             NewColumn(slots, /*numeric=*/true) + " ; " + ord + " }";
    }
  }
}

std::string AutoTemplateGenerator::ProposeClaimPattern(SlotCounter* slots) {
  switch (rng_->UniformInt(0, 4)) {
    case 0: {  // eq / round_eq with derived comparison value
      bool numeric = false;
      std::string scalar = RandomScalar(slots, config_.max_depth, &numeric);
      const char* root = numeric && rng_->Bernoulli(0.5) ? "round_eq" : "eq";
      return std::string(root) + " { " + scalar + " ; {derive} }";
    }
    case 1: {  // comparative between two numeric scalars
      bool numeric = false;
      std::string lhs, rhs;
      do {
        lhs = RandomScalar(slots, config_.max_depth, &numeric);
      } while (!numeric);
      do {
        rhs = RandomScalar(slots, config_.max_depth, &numeric);
      } while (!numeric);
      return std::string(rng_->Bernoulli(0.5) ? "greater" : "less") + " { " +
             lhs + " ; " + rhs + " }";
    }
    case 2: {  // uniqueness
      std::string view;
      do {
        view = RandomView(slots, config_.max_depth);
      } while (view == "all_rows");
      return "only { " + view + " }";
    }
    case 3: {  // majority over a text column
      std::string col = NewColumn(slots, /*numeric=*/false, /*text=*/true);
      const char* root = rng_->Bernoulli(0.5) ? "most_eq" : "all_eq";
      return std::string(root) + " { all_rows ; " + col + " ; " +
             NewValue(slots, col) + " }";
    }
    default: {  // majority over a numeric column
      std::string col = NewColumn(slots, /*numeric=*/true);
      static const char* kRoots[] = {"most_greater", "most_less",
                                     "all_greater", "all_less"};
      return std::string(kRoots[rng_->Index(4)]) + " { all_rows ; " + col +
             " ; " + NewValue(slots, col) + " }";
    }
  }
}

std::string AutoTemplateGenerator::ProposeSqlPattern(SlotCounter* slots) {
  // SELECT item.
  std::string select;
  bool aggregate = rng_->Bernoulli(0.5);
  if (aggregate) {
    switch (rng_->UniformInt(0, 4)) {
      case 0:
        select = "COUNT(*)";
        break;
      case 1:
        select = "SUM([" + NewColumn(slots, true) + "])";
        break;
      case 2:
        select = "AVG([" + NewColumn(slots, true) + "])";
        break;
      case 3:
        select = "MAX([" + NewColumn(slots, true) + "])";
        break;
      default:
        select = "MIN([" + NewColumn(slots, true) + "])";
        break;
    }
  } else {
    select = "[" + NewColumn(slots, false) + "]";
  }
  std::string query = "SELECT " + select + " FROM w";

  // WHERE conjunction (0-2 conditions; COUNT(*) always gets one).
  int64_t conds = rng_->UniformInt(select == "COUNT(*)" ? 1 : 0, 2);
  for (int64_t i = 0; i < conds; ++i) {
    query += (i == 0) ? " WHERE " : " AND ";
    switch (rng_->UniformInt(0, 2)) {
      case 0: {
        std::string col = NewColumn(slots, false);
        query += "[" + col + "] = '" + NewValue(slots, col) + "'";
        break;
      }
      case 1: {
        std::string col = NewColumn(slots, true);
        query += "[" + col + "] > '" + NewValue(slots, col) + "'";
        break;
      }
      default: {
        std::string col = NewColumn(slots, true);
        query += "[" + col + "] < '" + NewValue(slots, col) + "'";
        break;
      }
    }
  }

  // Superlative tail for plain selections.
  if (!aggregate && conds == 0) {
    query += " ORDER BY [" + NewColumn(slots, true) + "] " +
             (rng_->Bernoulli(0.5) ? "DESC" : "ASC") + " LIMIT 1";
  }
  return query;
}

ProgramTemplate AutoTemplateGenerator::Propose() {
  while (true) {
    SlotCounter slots;
    std::string pattern;
    ProgramType type;
    if (config_.claims) {
      pattern = ProposeClaimPattern(&slots);
      type = ProgramType::kLogicalForm;
    } else {
      pattern = ProposeSqlPattern(&slots);
      type = ProgramType::kSql;
    }
    auto tmpl = ProgramTemplate::Make(type, pattern, "auto");
    if (tmpl.ok()) return std::move(tmpl).ValueOrDie();
    // Malformed proposals are discarded and re-drawn (should not happen
    // for grammar-generated patterns, but the loop keeps Propose total).
  }
}

double AutoTemplateGenerator::SuccessRate(const ProgramTemplate& tmpl,
                                          const std::vector<Table>& corpus) {
  if (corpus.empty()) return 0.0;
  Result<TemplateForm> form = TemplateForm::Make(tmpl);
  if (!form.ok()) return 0.0;  // no instantiation can be sampled
  ProgramSampler sampler(rng_);
  size_t attempts = 0, successes = 0;
  bool target = true;
  for (const Table& table : corpus) {
    for (size_t trial = 0; trial < config_.trials_per_table; ++trial) {
      ++attempts;
      Result<SampledProgram> r =
          tmpl.type == ProgramType::kLogicalForm
              ? sampler.SampleClaim(*form, table, target)
              : sampler.Sample(*form, table);
      target = !target;  // validate both supported and refuted derivation
      if (r.ok()) ++successes;
    }
  }
  return static_cast<double>(successes) / static_cast<double>(attempts);
}

std::vector<ProgramTemplate> AutoTemplateGenerator::Generate(
    const std::vector<Table>& corpus) {
  std::vector<ProgramTemplate> survivors;
  for (size_t i = 0; i < config_.num_candidates; ++i) {
    ProgramTemplate candidate = Propose();
    if (SuccessRate(candidate, corpus) >= config_.min_success_rate) {
      survivors.push_back(std::move(candidate));
    }
  }
  return DeduplicateTemplates(std::move(survivors));
}

}  // namespace uctr
