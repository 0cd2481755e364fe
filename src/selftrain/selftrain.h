#ifndef UCTR_SELFTRAIN_SELFTRAIN_H_
#define UCTR_SELFTRAIN_SELFTRAIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "datasets/vocab.h"
#include "gen/sample.h"
#include "model/confidence.h"
#include "selftrain/manifest.h"

namespace uctr::selftrain {

/// \brief Configuration of the round-based self-training loop (the
/// UCTR-ST sequel's generate -> pseudo-label -> filter -> retrain cycle).
///
/// Everything here except `rounds`, `state_dir`, `num_threads`, and
/// `max_phase_steps` is folded into ConfigFingerprint(): those four steer
/// *how much* work runs and *where*, not *what* the artifacts contain, so
/// a killed run can resume with a larger --rounds or different thread
/// count and still produce byte-identical rounds.
struct SelfTrainConfig {
  TaskType task = TaskType::kFactVerification;
  uint64_t seed = 42;

  /// Self-training iterations after the round-0 bootstrap; `rounds = N`
  /// executes rounds 0..N (N+1 trained models).
  size_t rounds = 3;

  /// Where round state lives: MANIFEST plus one round-<r>/ subdirectory
  /// per round. Created if missing.
  std::string state_dir;

  // ------------------------------------------------ candidate generation
  datasets::Domain domain = datasets::Domain::kWikipedia;
  /// Topics the candidate corpora draw from; must be disjoint from
  /// `eval_topics` for the held-out protocol to mean anything.
  std::vector<size_t> train_topics = {0, 1, 2};
  size_t tables_per_round = 10;
  size_t samples_per_table = 8;

  // ------------------------------------------------------ held-out eval
  /// Topics of the held-out split (gold-style data: human NL profile and
  /// lexicon), never seen by candidate generation.
  std::vector<size_t> eval_topics = {3};
  size_t eval_tables = 10;
  size_t eval_samples_per_table = 8;

  // ------------------------------------------------ confidence schedule
  /// Base filtering policy for rounds >= 1 (round 0 keeps everything at
  /// weight 1 — there is no model to score with yet). The default
  /// threshold is 0.3 rather than FilterPolicy's generic 0.5: a
  /// verifier's probability margin never exceeds 1, so its confidence
  /// m/(1+m) caps at 0.5 and a 0.5 threshold would drop everything.
  model::FilterPolicy filter{/*threshold=*/0.3, /*temperature=*/1.0,
                             /*require_agreement=*/true};
  /// Optional per-round overrides, indexed by round-1 (entry 0 applies to
  /// round 1); rounds past the end reuse the last entry. Empty = `filter`
  /// for every round.
  std::vector<double> thresholds;
  std::vector<double> temperatures;

  /// Threads for candidate generation (output is thread-count-invariant).
  size_t num_threads = 2;

  /// Test hook mirroring CheckpointOptions::max_shards_this_run: stop
  /// after executing this many phases in this run (0 = unlimited). The
  /// kill-at-every-phase-boundary tests step a run one phase at a time
  /// and diff the final artifacts against an uninterrupted run.
  size_t max_phase_steps = 0;

  /// Effective policy for a given round (>= 1), after schedule overrides.
  model::FilterPolicy PolicyForRound(size_t round) const;
};

/// \brief Stable fingerprint of every SelfTrainConfig knob that shapes
/// artifacts (task, seed is keyed separately, generation + eval + filter
/// schedule). Two configs with equal fingerprints may resume each other's
/// state directories.
uint64_t ConfigFingerprint(const SelfTrainConfig& config);

/// \brief What one completed round produced. Every field is deterministic
/// (derived from durable artifacts), so resumed and uninterrupted runs
/// report byte-identical tables.
struct RoundResult {
  size_t round = 0;
  size_t generated = 0;   ///< candidate samples synthesized
  size_t kept = 0;        ///< survived the confidence filter
  size_t dropped = 0;     ///< below threshold or (optionally) disagreeing
  size_t disagreed = 0;   ///< model contradicted the generated label
  double threshold = 0.0;
  double temperature = 1.0;
  double loss_first = 0.0;  ///< first training epoch's loss this round
  double loss_last = 0.0;   ///< last training epoch's loss this round
  double accuracy = 0.0;    ///< held-out accuracy of this round's model

  std::string Serialize() const;
  static Result<RoundResult> Parse(const std::string& text);
};

/// \brief Outcome of one SelfTrainer::Run call.
struct SelfTrainReport {
  /// Results of every *completed* round, in round order (resumed rounds
  /// are loaded from their durable RESULT files, not recomputed).
  std::vector<RoundResult> rounds;
  /// True when rounds 0..config.rounds all completed.
  bool complete = false;
  /// Phases executed (not resumed) by this run.
  size_t phases_run = 0;

  /// \brief Markdown per-round delta table (the EXPERIMENTS.md block):
  /// deterministic — equal state directories yield equal tables.
  std::string DeltaTable() const;
};

/// \brief The round orchestrator. Run() executes (or resumes) rounds
/// 0..config.rounds:
///
///   round 0:   generate -> keep-all label -> train from scratch -> eval
///   round r>0: generate fresh candidates -> pseudo-label with model r-1
///              and confidence-filter -> continue training model r-1 on
///              the kept, reweighted samples -> eval
///
/// Every phase writes its artifacts durably (atomic rename) before its
/// done-marker lands in the MANIFEST, and every phase is a deterministic
/// function of durable inputs — so kill -9 at any point resumes to
/// byte-identical final state. Faults injected at the selftrain.* fault
/// points are retried when transient (fault::RetryPolicy) and otherwise
/// abort the run with the state directory intact for a later resume.
class SelfTrainer {
 public:
  explicit SelfTrainer(SelfTrainConfig config);

  /// \brief Runs to completion, the phase-step budget, or the first
  /// permanent error. Never leaves partially written artifacts behind.
  Result<SelfTrainReport> Run();

  const SelfTrainConfig& config() const { return config_; }

 private:
  SelfTrainConfig config_;
};

}  // namespace uctr::selftrain

#endif  // UCTR_SELFTRAIN_SELFTRAIN_H_
