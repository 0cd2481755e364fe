#include "gen/generator.h"

#include <algorithm>
#include <chrono>
#include <set>

#include "common/string_util.h"
#include "fault/fault.h"

namespace uctr {

namespace {

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

Generator::Generator(GenerationConfig config, const TemplateLibrary* library,
                     Rng* rng)
    : config_(std::move(config)),
      rng_(rng),
      sampler_(rng),
      nl_generator_(config_.nl, config_.lexicon != nullptr
                                    ? config_.lexicon
                                    : &nlgen::Lexicon::Default()),
      tracer_(&obs::Tracer::Default()) {
  for (ProgramType type : config_.program_types) {
    for (TemplateForm& form : library->OfType(type)) {
      auto it = config_.reasoning_weights.find(form.tmpl().reasoning_type);
      template_weights_.push_back(
          it == config_.reasoning_weights.end() ? 1.0 : it->second);
      active_templates_.push_back(std::move(form));
    }
  }

  obs::MetricsRegistry& registry = obs::DefaultRegistry();
  inst_.attempts = registry.counter("gen_attempts_total");
  inst_.emitted = registry.counter("gen_samples_total");
  inst_.duplicates =
      registry.counter("gen_discards_total{reason=\"Duplicate\"}");
  inst_.exhausted = registry.counter("gen_slots_exhausted_total");
  inst_.quarantined = registry.counter("gen_templates_quarantined_total");
  inst_.sample_us = registry.histogram("latency_gen_sample_us");
  inst_.table_us = registry.histogram("latency_gen_table_us");
  inst_.template_attempts.reserve(active_templates_.size());
  for (const TemplateForm& form : active_templates_) {
    inst_.template_attempts.push_back(registry.counter(
        "gen_template_attempts_total{reasoning_type=\"" +
        form.tmpl().reasoning_type + "\"}"));
  }
  // One discard counter per Status code; indexed by the code's numeric
  // value so a failed attempt is a single array lookup + relaxed add.
  constexpr int kNumCodes =
      static_cast<int>(StatusCode::kDeadlineExceeded) + 1;
  inst_.discards_by_code.reserve(kNumCodes);
  for (int code = 0; code < kNumCodes; ++code) {
    inst_.discards_by_code.push_back(registry.counter(
        std::string("gen_discards_total{reason=\"") +
        StatusCodeToString(static_cast<StatusCode>(code)) + "\"}"));
  }
}

Result<SampledProgram> Generator::SampleProgram(const Table& table,
                                                const TemplateForm& form) {
  obs::Span span = tracer_->StartSpan("gen.program");
  if (config_.task == TaskType::kFactVerification) {
    if (form.tmpl().type != ProgramType::kLogicalForm) {
      return Status::InvalidArgument(
          "fact verification requires logical-form templates");
    }
    bool target_true = rng_->Bernoulli(config_.supported_fraction);
    return sampler_.SampleClaim(form, table, target_true);
  }
  if (form.tmpl().type == ProgramType::kLogicalForm) {
    return Status::InvalidArgument(
        "question answering uses SQL / arithmetic programs");
  }
  return sampler_.Sample(form, table);
}

Result<std::string> Generator::RealizeSentence(const TemplateForm& form,
                                               const SampledProgram& sampled) {
  obs::Span span = tracer_->StartSpan("gen.nl");
  std::vector<std::string_view> texts(sampled.texts.begin(),
                                      sampled.texts.end());
  return nl_generator_.Realize(form.Bind(texts), rng_);
}

Result<Sample> Generator::TryGenerate(const TableWithText& input,
                                      const std::vector<char>& quarantined,
                                      size_t* used_template) {
  if (active_templates_.empty()) {
    return Status::InvalidArgument("no templates for configured task");
  }
  size_t tmpl_index;
  bool any_quarantined =
      std::find(quarantined.begin(), quarantined.end(),
                static_cast<char>(1)) != quarantined.end();
  if (!any_quarantined) {
    tmpl_index = rng_->WeightedIndex(template_weights_);
  } else {
    // Mask poisoned templates out of the draw. Only taken once something
    // is actually quarantined, so the healthy path consumes the exact
    // same rng sequence as builds without quarantine.
    std::vector<double> masked = template_weights_;
    for (size_t t = 0; t < masked.size(); ++t) {
      if (quarantined[t]) masked[t] = 0.0;
    }
    tmpl_index = rng_->WeightedIndex(masked);
  }
  if (used_template != nullptr) *used_template = tmpl_index;
  const TemplateForm& form = active_templates_[tmpl_index];
  const ProgramTemplate& tmpl = form.tmpl();
  inst_.attempts->Increment();
  inst_.template_attempts[tmpl_index]->Increment();
  obs::Span attempt_span = tracer_->StartSpan("gen.attempt");
  attempt_span.AddAttr("reasoning_type", tmpl.reasoning_type);
  // Chaos hook: an injected fault here stands in for a crashing template
  // executor; it is discarded (and quarantine-counted) like any organic
  // failure of this template.
  UCTR_RETURN_NOT_OK(UCTR_FAULT_POINT("gen.attempt"));

  // Choose the pipeline for this sample up front (Figure 3): plain
  // table-only generation, table splitting, or table expansion.
  bool want_hybrid = rng_->Bernoulli(config_.hybrid_fraction);
  bool can_expand =
      config_.use_text_to_table && !input.paragraph.empty();
  bool can_split =
      config_.use_table_to_text && input.table.num_rows() >= 2;

  // --- Table expansion: integrate text into the table, then program it.
  if (want_hybrid && can_expand && (rng_->Bernoulli(0.5) || !can_split)) {
    obs::Span expand_span = tracer_->StartSpan("gen.table_expand");
    UCTR_ASSIGN_OR_RETURN(
        hybrid::ExtractedRecord record,
        text_to_table_.ExtractRecord(input.table, input.paragraph));
    bool merged = input.table.RowIndexByName(record.row_name).ok();
    UCTR_ASSIGN_OR_RETURN(Table expanded,
                          text_to_table_.Expand(input.table, record));
    size_t new_row = merged
                         ? expanded.RowIndexByName(record.row_name)
                               .ValueOr(expanded.num_rows() - 1)
                         : expanded.num_rows() - 1;
    UCTR_ASSIGN_OR_RETURN(SampledProgram sp, SampleProgram(expanded, form));
    // The sample must actually need the textual evidence.
    if (std::find(sp.result.evidence_rows.begin(),
                  sp.result.evidence_rows.end(),
                  new_row) == sp.result.evidence_rows.end()) {
      return Status::EmptyResult(
          "expanded row not involved in the reasoning");
    }
    UCTR_ASSIGN_OR_RETURN(std::string sentence, RealizeSentence(form, sp));
    Sample sample;
    sample.task = config_.task;
    sample.table = input.table;       // original table...
    sample.paragraph = input.paragraph;  // ...plus original text (Alg. 1)
    sample.sentence = std::move(sentence);
    sample.program = sp.program;
    sample.reasoning_type = tmpl.reasoning_type;
    sample.source = EvidenceSource::kTableExpand;
    sample.evidence_rows = sp.result.evidence_rows;
    sample.answer_values = sp.result.values;
    sample.answer = sp.result.ToDisplayString();
    if (config_.task == TaskType::kFactVerification) {
      sample.label = sp.result.scalar().boolean() ? Label::kSupported
                                                  : Label::kRefuted;
    }
    return sample;
  }

  // --- Program over the full table (shared by table-only and splitting).
  UCTR_ASSIGN_OR_RETURN(SampledProgram sp, SampleProgram(input.table, form));
  UCTR_ASSIGN_OR_RETURN(std::string sentence, RealizeSentence(form, sp));

  Sample sample;
  sample.task = config_.task;
  sample.sentence = std::move(sentence);
  sample.program = sp.program;
  sample.reasoning_type = tmpl.reasoning_type;
  sample.evidence_rows = sp.result.evidence_rows;
  sample.answer_values = sp.result.values;
  sample.answer = sp.result.ToDisplayString();
  if (config_.task == TaskType::kFactVerification) {
    sample.label = sp.result.scalar().boolean() ? Label::kSupported
                                                : Label::kRefuted;
  }

  // --- Table splitting: move one evidence row into a generated sentence.
  if (want_hybrid && can_split && !sp.result.evidence_rows.empty() &&
      sp.result.evidence_rows.size() < input.table.num_rows()) {
    obs::Span split_span = tracer_->StartSpan("gen.table_split");
    auto split = table_to_text_.ApplyToEvidence(
        input.table, sp.result.evidence_rows, rng_);
    if (split.ok()) {
      sample.table = split->sub_table;
      sample.paragraph = {split->sentence};
      // If the program's entire evidence was the split row, the sample is
      // answerable from the text alone ("Text" bucket of Table III);
      // otherwise it genuinely needs both modalities.
      bool all_evidence_in_text = sp.result.evidence_rows.size() == 1 &&
                                  sp.result.evidence_rows[0] ==
                                      split->source_row;
      sample.source = all_evidence_in_text ? EvidenceSource::kTextOnly
                                           : EvidenceSource::kTableSplit;
      return sample;
    }
  }

  sample.table = input.table;
  sample.paragraph = input.paragraph;
  sample.source = EvidenceSource::kTableOnly;
  return sample;
}

std::vector<Sample> Generator::GenerateFromTable(const TableWithText& input) {
  obs::Span table_span = tracer_->StartSpan("gen.table");
  auto table_started = std::chrono::steady_clock::now();
  std::vector<Sample> out;
  std::set<std::string> seen_sentences;
  // Poison-template quarantine bookkeeping (see
  // GenerationConfig::quarantine_after). Empty vectors when disabled.
  std::vector<char> quarantined(
      config_.quarantine_after > 0 ? active_templates_.size() : 0, 0);
  std::vector<size_t> consecutive_failures(quarantined.size(), 0);
  size_t num_quarantined = 0;
  for (size_t i = 0; i < config_.samples_per_table; ++i) {
    auto slot_started = std::chrono::steady_clock::now();
    bool emitted = false;
    for (size_t attempt = 0; attempt < config_.max_attempts; ++attempt) {
      if (!quarantined.empty() && num_quarantined == quarantined.size()) {
        break;  // every template is poisoned for this table
      }
      size_t used_template = 0;
      Result<Sample> r = TryGenerate(input, quarantined, &used_template);
      if (!r.ok()) {
        size_t code = static_cast<size_t>(r.status().code());
        if (code < inst_.discards_by_code.size()) {
          inst_.discards_by_code[code]->Increment();
        }
        if (!quarantined.empty() && !quarantined[used_template] &&
            ++consecutive_failures[used_template] >=
                config_.quarantine_after) {
          quarantined[used_template] = 1;
          ++num_quarantined;
          inst_.quarantined->Increment();
        }
        continue;
      }
      // A successful attempt clears the template's failure streak — even
      // if the sentence turns out to be a duplicate (duplication is a
      // diversity problem, not a poison signal).
      if (!quarantined.empty()) consecutive_failures[used_template] = 0;
      if (!seen_sentences.insert(r->sentence).second) {  // dup
        inst_.duplicates->Increment();
        continue;
      }
      out.push_back(std::move(r).ValueOrDie());
      inst_.emitted->Increment();
      inst_.sample_us->Observe(MicrosSince(slot_started));
      emitted = true;
      break;
    }
    if (!emitted) inst_.exhausted->Increment();
  }
  inst_.table_us->Observe(MicrosSince(table_started));
  table_span.AddAttr("samples", std::to_string(out.size()));
  return out;
}

void AppendUnknownSamples(const std::vector<TableWithText>& corpus,
                          double fraction, Rng* rng, Dataset* dataset) {
  if (fraction <= 0 || corpus.size() < 2 || dataset->samples.empty()) {
    return;
  }
  size_t base = dataset->samples.size();
  size_t want = static_cast<size_t>(static_cast<double>(base) * fraction);
  for (size_t i = 0; i < want; ++i) {
    const Sample& donor = dataset->samples[rng->Index(base)];
    if (donor.task != TaskType::kFactVerification) continue;
    const TableWithText& other = corpus[rng->Index(corpus.size())];
    // The swapped-in table must come from a different schema family:
    // a same-topic table would often make the claim merely false
    // (Refuted) rather than unverifiable (Unknown).
    if (other.table.name() == donor.table.name()) continue;
    if (donor.table.num_columns() > 0 && other.table.num_columns() > 0 &&
        EqualsIgnoreCase(other.table.schema().column(0).name,
                         donor.table.schema().column(0).name)) {
      continue;
    }
    Sample unknown = donor;
    unknown.table = other.table;
    unknown.paragraph = other.paragraph;
    unknown.label = Label::kUnknown;
    unknown.source = EvidenceSource::kTableOnly;
    unknown.evidence_rows.clear();
    dataset->samples.push_back(std::move(unknown));
  }
}

Dataset Generator::GenerateDataset(const std::vector<TableWithText>& corpus) {
  Dataset dataset;
  for (const TableWithText& input : corpus) {
    std::vector<Sample> generated = GenerateFromTable(input);
    for (Sample& s : generated) dataset.samples.push_back(std::move(s));
  }
  // Unknown / NEI samples: pair a claim with an unrelated table so the
  // evidence is insufficient (fact verification only).
  if (config_.task == TaskType::kFactVerification) {
    AppendUnknownSamples(corpus, config_.unknown_fraction, rng_, &dataset);
  }
  return dataset;
}

}  // namespace uctr
