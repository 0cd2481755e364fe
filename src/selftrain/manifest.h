#ifndef UCTR_SELFTRAIN_MANIFEST_H_
#define UCTR_SELFTRAIN_MANIFEST_H_

#include <cstdint>
#include <string>
#include <utility>

#include "common/manifest.h"
#include "common/result.h"

namespace uctr::selftrain {

/// \brief The four phases of one self-training round, in execution order.
/// Each phase is a deterministic function of durable inputs (the manifest,
/// earlier rounds' artifacts, and the run seed), so a crashed phase can be
/// re-run from scratch and regenerate byte-identical artifacts.
enum class RoundPhase {
  kGenerate = 0,  ///< synthesize the round's candidate corpus (checkpointed)
  kLabel,         ///< pseudo-label + confidence-filter the candidates
  kTrain,         ///< continue training on the kept, reweighted samples
  kEval,          ///< score the round's model on the held-out split
};

constexpr int kNumRoundPhases = 4;

const char* RoundPhaseName(RoundPhase phase);

/// \brief Durable record of self-training progress: which (round, phase)
/// pairs have fully completed — a phase is recorded only *after* its
/// artifacts are durably on disk, so the manifest never points at work
/// that does not exist. A CheckpointManifest (common/manifest.h):
///   uctr-selftrain v1
///   seed <u64>
///   config <u64>
///   done <round> <phase>
///   ...
/// The (seed, config fingerprint) pair keys the whole state directory: a
/// manifest written under a different seed or SelfTrainConfig is
/// rejected on load rather than silently resumed.
class Manifest : public CheckpointManifest {
 public:
  explicit Manifest(uint64_t seed = 0, uint64_t config_fingerprint = 0);

  uint64_t seed() const { return key(0); }
  uint64_t config_fingerprint() const { return key(1); }
  bool IsDone(size_t round, RoundPhase phase) const {
    return Has(0, {round, static_cast<uint64_t>(phase)});
  }
  void MarkDone(size_t round, RoundPhase phase) {
    Add(0, {round, static_cast<uint64_t>(phase)});
  }
  /// \brief True when every phase of `round` is recorded.
  bool RoundComplete(size_t round) const;

  static Result<Manifest> Parse(const std::string& text);

  /// \brief Loads `path` and validates it against (seed, fingerprint).
  /// A missing file yields a fresh manifest for that key; a present file
  /// with a mismatched key or unparseable content is an error — never a
  /// silent restart that could interleave two configurations' artifacts.
  static Result<Manifest> LoadOrCreate(const std::string& path, uint64_t seed,
                                       uint64_t config_fingerprint);

 private:
  explicit Manifest(CheckpointManifest base)
      : CheckpointManifest(std::move(base)) {}
  /// Adopts a parsed manifest, rejecting out-of-range phases.
  static Result<Manifest> From(Result<CheckpointManifest> parsed);
};

}  // namespace uctr::selftrain

#endif  // UCTR_SELFTRAIN_MANIFEST_H_
