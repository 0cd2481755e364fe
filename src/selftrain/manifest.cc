#include "selftrain/manifest.h"

namespace uctr::selftrain {

namespace {

const ManifestLayout& Layout() {
  static const ManifestLayout layout{
      "uctr-selftrain v1", {"seed", "config"}, {{"done", 2}}};
  return layout;
}

}  // namespace

const char* RoundPhaseName(RoundPhase phase) {
  switch (phase) {
    case RoundPhase::kGenerate:
      return "generate";
    case RoundPhase::kLabel:
      return "label";
    case RoundPhase::kTrain:
      return "train";
    case RoundPhase::kEval:
      return "eval";
  }
  return "unknown";
}

Manifest::Manifest(uint64_t seed, uint64_t config_fingerprint)
    : CheckpointManifest(Layout(), {seed, config_fingerprint}) {}

bool Manifest::RoundComplete(size_t round) const {
  for (int p = 0; p < kNumRoundPhases; ++p) {
    if (!IsDone(round, static_cast<RoundPhase>(p))) return false;
  }
  return true;
}

Result<Manifest> Manifest::From(Result<CheckpointManifest> parsed) {
  if (!parsed.ok()) return parsed.status();
  Manifest manifest(std::move(parsed).ValueOrDie());
  for (const Mark& mark : manifest.marks(0)) {
    if (mark[1] >= static_cast<uint64_t>(kNumRoundPhases)) {
      return Status::ParseError("manifest phase out of range");
    }
  }
  return manifest;
}

Result<Manifest> Manifest::LoadOrCreate(const std::string& path,
                                        uint64_t seed,
                                        uint64_t config_fingerprint) {
  return From(CheckpointManifest::LoadOrCreate(path, Layout(),
                                               {seed, config_fingerprint}));
}

}  // namespace uctr::selftrain
