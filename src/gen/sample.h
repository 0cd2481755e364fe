#ifndef UCTR_GEN_SAMPLE_H_
#define UCTR_GEN_SAMPLE_H_

#include <string>
#include <vector>

#include "program/program.h"
#include "table/table.h"

namespace uctr {

/// \brief The two tabular reasoning tasks of the paper (Section II-A).
enum class TaskType {
  kFactVerification = 0,
  kQuestionAnswering,
};

const char* TaskTypeToString(TaskType task);

/// \brief Gold label of a fact-verification sample.
enum class Label {
  kSupported = 0,
  kRefuted,
  kUnknown,
};

const char* LabelToString(Label label);

/// \brief Provenance of a synthetic sample: which generation pipeline
/// produced it (Figure 3).
enum class EvidenceSource {
  kTableOnly = 0,   ///< Homogeneous: table evidence only.
  kTableSplit,      ///< Table splitting: sub-table + generated sentence.
  kTableExpand,     ///< Table expansion: original table + original text.
  kTextOnly,        ///< Degenerate: evidence entirely in text.
};

const char* EvidenceSourceToString(EvidenceSource source);

/// \brief One reasoning instance (t, p, l) -> o: a table, its related
/// text, a natural-language question or claim, and the gold output.
/// Synthetic samples additionally carry the generating program and its
/// evidence rows ("highlighted cells") for inspection and filtering.
struct Sample {
  TaskType task = TaskType::kQuestionAnswering;
  Table table;
  /// Zero-copy serving: when set, readers see *shared_table (via
  /// evidence_table()) and `table` stays empty. Non-owning — the caller
  /// (serve::InferenceEngine borrowing from the store::TableRegistry)
  /// guarantees the pointee outlives the Sample. Registered tables are
  /// pre-warmed and safe for concurrent const readers, so many requests
  /// can share one without copies or index rebuilds.
  const Table* shared_table = nullptr;
  std::vector<std::string> paragraph;
  std::string sentence;

  /// \brief Which plan cache programs interpreted against this sample
  /// compile into. Serving sets this per request to share its plan cache;
  /// the default is ir::PlanCache::Default().
  ExecOptions exec;

  /// \brief The evidence table every reader should consult: the borrowed
  /// registry table when present, the owned one otherwise.
  const Table& evidence_table() const {
    return shared_table != nullptr ? *shared_table : table;
  }

  // Gold output: label for fact verification, answer for QA.
  Label label = Label::kSupported;
  std::string answer;
  std::vector<Value> answer_values;

  /// \brief Training weight (confidence-reweighted self-training). 1.0 —
  /// the default for generated and human-labeled samples — reproduces
  /// unweighted training bit-for-bit; trainers skip non-positive or
  /// non-finite weights.
  double weight = 1.0;

  // Synthetic provenance (empty program text for human-labeled samples).
  Program program;
  std::string reasoning_type;
  EvidenceSource source = EvidenceSource::kTableOnly;
  std::vector<size_t> evidence_rows;
};

/// \brief A set of samples plus summary statistics.
struct Dataset {
  std::vector<Sample> samples;

  size_t size() const { return samples.size(); }
  bool empty() const { return samples.empty(); }

  size_t CountLabel(Label label) const;
  size_t CountSource(EvidenceSource source) const;
  size_t CountReasoningType(const std::string& tag) const;

  /// \brief Multi-line human-readable statistics block (Table II style).
  std::string Summary() const;
};

}  // namespace uctr

#endif  // UCTR_GEN_SAMPLE_H_
