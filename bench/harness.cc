#include "bench/harness.h"

#include <algorithm>
#include <cstdio>
#include <iostream>

namespace uctr::bench {

// ---------------------------------------------------------------- output

TablePrinter::TablePrinter(std::vector<std::string> header) {
  widths_.resize(header.size());
  AddRow(std::move(header));
  AddSeparator();
}

void TablePrinter::AddRow(std::vector<std::string> row) {
  for (size_t i = 0; i < row.size() && i < widths_.size(); ++i) {
    widths_[i] = std::max(widths_[i], row[i].size());
  }
  rows_.push_back(std::move(row));
}

void TablePrinter::AddSeparator() { rows_.push_back({}); }

void TablePrinter::Print() const {
  for (const auto& row : rows_) {
    if (row.empty()) {
      std::string line = "+";
      for (size_t w : widths_) line += std::string(w + 2, '-') + "+";
      std::cout << line << "\n";
      continue;
    }
    std::string line = "|";
    for (size_t i = 0; i < widths_.size(); ++i) {
      std::string cell = i < row.size() ? row[i] : "";
      line += " " + cell + std::string(widths_[i] - cell.size(), ' ') + " |";
    }
    std::cout << line << "\n";
  }
}

std::string Pct(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", value * 100.0);
  return buf;
}

std::string EmF1Cell(const eval::EmF1& scores) {
  return Pct(scores.em) + " / " + Pct(scores.f1);
}

// ------------------------------------------------------ data preparation

Dataset GenerateUctr(const datasets::Benchmark& bench, bool hybrid_ops,
                     const std::vector<ProgramType>& program_types,
                     size_t samples_per_table, Rng* rng) {
  static const TemplateLibrary& library = TemplateLibrary::Builtin();
  GenerationConfig config;
  config.task = bench.task;
  config.program_types = program_types;
  config.samples_per_table = samples_per_table;
  config.max_attempts = 16;
  config.use_table_to_text = hybrid_ops;
  config.use_text_to_table = hybrid_ops;
  config.hybrid_fraction = hybrid_ops ? 0.45 : 0.0;
  config.unknown_fraction = bench.num_classes >= 3 ? 0.08 : 0.0;
  config.nl = datasets::SyntheticNlProfile();
  Generator generator(config, &library, rng);
  return generator.GenerateDataset(bench.unlabeled);
}

Dataset GenerateUctr(const datasets::Benchmark& bench,
                     size_t samples_per_table, Rng* rng) {
  return GenerateUctr(bench, bench.hybrid, bench.program_types,
                      samples_per_table, rng);
}

Dataset GenerateMqaQg(const datasets::Benchmark& bench,
                      size_t samples_per_table, Rng* rng) {
  baselines::MqaQgConfig config;
  config.task = bench.task;
  config.samples_per_table = samples_per_table;
  config.bridge_fraction = bench.hybrid ? 0.4 : 0.0;
  baselines::MqaQg generator(config, rng);
  return generator.GenerateDataset(bench.unlabeled);
}

Dataset Subsample(const Dataset& data, size_t n, Rng* rng) {
  Dataset out;
  std::vector<size_t> idx = rng->SampleIndices(data.size(), n);
  for (size_t i : idx) out.samples.push_back(data.samples[i]);
  return out;
}

Dataset TableOnlyView(const Dataset& data) {
  Dataset out = data;
  for (Sample& s : out.samples) s.paragraph.clear();
  return out;
}

Dataset SentenceOnlyView(const Dataset& data) {
  Dataset out = data;
  for (Sample& s : out.samples) {
    // No cells, but the name is kept: it is the provenance retrieval uses.
    s.table = Table::FromValues(s.table.name(), {}, {});
  }
  return out;
}

// ------------------------------------------------------------ evaluation

QaBucketScores EvaluateQa(const model::QaModel& qa_model,
                          const Dataset& data) {
  std::vector<std::string> pred_table, gold_table;
  std::vector<std::string> pred_tt, gold_tt;
  std::vector<std::string> pred_text, gold_text;
  std::vector<std::string> pred_all, gold_all;
  for (const Sample& s : data.samples) {
    if (s.task != TaskType::kQuestionAnswering) continue;
    std::string predicted = qa_model.Predict(s);
    pred_all.push_back(predicted);
    gold_all.push_back(s.answer);
    switch (s.source) {
      case EvidenceSource::kTableOnly:
        pred_table.push_back(predicted);
        gold_table.push_back(s.answer);
        break;
      case EvidenceSource::kTableSplit:
      case EvidenceSource::kTableExpand:
        pred_tt.push_back(predicted);
        gold_tt.push_back(s.answer);
        break;
      case EvidenceSource::kTextOnly:
        pred_text.push_back(predicted);
        gold_text.push_back(s.answer);
        break;
    }
  }
  QaBucketScores out;
  out.table = eval::AnswerEmF1(pred_table, gold_table);
  out.table_text = eval::AnswerEmF1(pred_tt, gold_tt);
  out.text = eval::AnswerEmF1(pred_text, gold_text);
  out.total = eval::AnswerEmF1(pred_all, gold_all);
  return out;
}

double EvaluateDenotation(const model::QaModel& qa_model,
                          const Dataset& data) {
  return eval::QaDenotationAccuracy(qa_model, data);
}

double EvaluateVerifier(const model::VerifierModel& verifier,
                        const Dataset& data) {
  return eval::VerifierLabelAccuracy(verifier, data);
}

std::vector<bool> VerifierCorrectness(const model::VerifierModel& verifier,
                                      const Dataset& data) {
  std::vector<bool> out;
  for (const Sample& s : data.samples) {
    if (s.task != TaskType::kFactVerification) continue;
    out.push_back(verifier.Predict(s) == s.label);
  }
  return out;
}

// -------------------------------------------------------- trained models

std::vector<ProgramTemplate> QuestionTemplatesFor(
    const std::vector<ProgramType>& program_types) {
  std::vector<ProgramTemplate> out;
  for (ProgramType type : program_types) {
    std::vector<ProgramTemplate> batch;
    if (type == ProgramType::kSql) batch = BuiltinSqlTemplates();
    if (type == ProgramType::kArithmetic) batch = BuiltinArithTemplates();
    for (auto& t : batch) out.push_back(std::move(t));
  }
  return out;
}

model::QaModel TrainQa(const Dataset& data,
                       const std::vector<ProgramTemplate>& templates,
                       Rng* rng) {
  model::QaConfig config;
  model::QaModel qa_model(config, templates);
  qa_model.Train(data, rng);
  return qa_model;
}

model::VerifierModel TrainVerifier(const Dataset& data, int num_classes,
                                   Rng* rng) {
  model::VerifierConfig config;
  config.num_classes = num_classes;
  model::VerifierModel verifier(config, BuiltinLogicTemplates());
  verifier.Train(data, rng);
  return verifier;
}

}  // namespace uctr::bench
