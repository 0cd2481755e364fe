#ifndef UCTR_GEN_GENERATOR_H_
#define UCTR_GEN_GENERATOR_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "gen/sample.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "hybrid/table_to_text.h"
#include "hybrid/text_to_table.h"
#include "nlgen/nl_generator.h"
#include "program/library.h"
#include "program/sampler.h"

namespace uctr {

/// \brief An unlabeled (table, paragraph) pair — the only input the
/// unsupervised setting assumes (Section II-B).
struct TableWithText {
  Table table;
  std::vector<std::string> paragraph;
};

/// \brief Knobs of the UCTR data generation pipeline.
struct GenerationConfig {
  TaskType task = TaskType::kQuestionAnswering;

  /// Program families to draw from; must be non-empty and consistent with
  /// the task (logical forms for verification, SQL/arithmetic for QA).
  std::vector<ProgramType> program_types = {ProgramType::kSql};

  /// Target number of synthetic samples per input table.
  size_t samples_per_table = 8;

  /// Random instantiations attempted per emitted sample before giving up
  /// (invalid programs are discarded, per Algorithm 1).
  size_t max_attempts = 12;

  /// Joint table-text operators (ablations A4/A5/A6 in Table VIII).
  bool use_table_to_text = true;   ///< enable the table-splitting pipeline
  bool use_text_to_table = true;   ///< enable the table-expansion pipeline

  /// Fraction of samples routed through a hybrid pipeline when possible.
  double hybrid_fraction = 0.5;

  /// Fact verification only: fraction of claims derived as true.
  double supported_fraction = 0.5;
  /// Fact verification only: fraction of samples whose evidence is swapped
  /// with an unrelated table, labeled Unknown (SEM-TAB-FACTS-style NEI).
  double unknown_fraction = 0.0;

  /// Surface diversity of the NL-Generator.
  nlgen::NlGeneratorConfig nl;
  /// Optional lexicon override for the NL-Generator (e.g. the richer
  /// "human annotator" lexicon of the benchmark simulators). Not owned;
  /// null means the default lexicon.
  const nlgen::Lexicon* lexicon = nullptr;

  /// Relative sampling weight per template reasoning_type (unlisted types
  /// weigh 1.0). The benchmark simulators use this to give gold data a
  /// skewed, human-like distribution of reasoning types that uniform
  /// synthetic sampling only approximates — one source of the paper's
  /// supervised/unsupervised gap.
  std::map<std::string, double> reasoning_weights;

  /// Poison-template quarantine: a template that fails this many attempts
  /// IN A ROW on one table is skipped for the remainder of that table, so
  /// a template that cannot instantiate on a given schema does not eat the
  /// whole attempt budget. 0 disables quarantine (the default — with it
  /// disabled the sampling sequence is byte-identical to older builds).
  /// State is per-table: the next table probes the template again.
  size_t quarantine_after = 0;
};

/// \brief Appends evidence-swapped Unknown/NEI samples to `dataset`
/// (fact verification): existing claims are paired with a table from a
/// different schema family, making them unverifiable. Exposed separately
/// so parallel generation can run it as a deterministic post-pass.
void AppendUnknownSamples(const std::vector<TableWithText>& corpus,
                          double fraction, Rng* rng, Dataset* dataset);

/// \brief The UCTR generator: implements Algorithm 1, combining the
/// Program-Executor, NL-Generator, Table-To-Text and Text-To-Table
/// components into the table-splitting and table-expansion pipelines.
class Generator {
 public:
  /// \param library read once, for its forms; rng not owned, must outlive
  /// the generator.
  Generator(GenerationConfig config, const TemplateLibrary* library,
            Rng* rng);

  /// \brief Synthesizes up to `samples_per_table` samples from one
  /// (table, paragraph) pair.
  std::vector<Sample> GenerateFromTable(const TableWithText& input);

  /// \brief Runs over a corpus; `unknown_fraction` evidence swaps are drawn
  /// between corpus entries.
  Dataset GenerateDataset(const std::vector<TableWithText>& corpus);

  const GenerationConfig& config() const { return config_; }

 private:
  /// One attempt at a sample; error Status means "discard and retry".
  /// `quarantined` (empty = quarantine disabled) masks poisoned templates
  /// out of the weighted draw; the chosen template index is written to
  /// `used_template` (when non-null) even on failure, so the caller can
  /// attribute the failure for quarantine accounting.
  Result<Sample> TryGenerate(const TableWithText& input,
                             const std::vector<char>& quarantined,
                             size_t* used_template);

  /// Builds the program (+answer/label) on `table`.
  Result<SampledProgram> SampleProgram(const Table& table,
                                       const TemplateForm& form);

  /// NL-Generator call wrapped in a "gen.nl" span: realizes `form` with
  /// `sampled`'s texts bound.
  Result<std::string> RealizeSentence(const TemplateForm& form,
                                      const SampledProgram& sampled);

  /// Pipeline instruments, resolved once from obs::DefaultRegistry() at
  /// construction so the per-attempt hot path is pointer chases and
  /// relaxed atomic adds only (no registry lock).
  struct Instruments {
    obs::Counter* attempts;         ///< gen_attempts_total
    obs::Counter* emitted;          ///< gen_samples_total
    obs::Counter* duplicates;       ///< gen_discards_total{reason="Duplicate"}
    obs::Counter* exhausted;        ///< gen_slots_exhausted_total
    obs::Counter* quarantined;      ///< gen_templates_quarantined_total
    obs::Histogram* sample_us;      ///< latency_gen_sample_us (per emitted)
    obs::Histogram* table_us;       ///< latency_gen_table_us (per input)
    /// Attempts by template reasoning type, parallel to active_templates_.
    std::vector<obs::Counter*> template_attempts;
    /// Discarded attempts keyed by Status code of the failed stage.
    std::vector<obs::Counter*> discards_by_code;
  };

  GenerationConfig config_;
  std::vector<TemplateForm> active_templates_;
  std::vector<double> template_weights_;
  Rng* rng_;
  ProgramSampler sampler_;
  nlgen::NlGenerator nl_generator_;
  hybrid::TableToText table_to_text_;
  hybrid::TextToTable text_to_table_;
  Instruments inst_;
  obs::Tracer* tracer_;
};

}  // namespace uctr

#endif  // UCTR_GEN_GENERATOR_H_
