#include "gen/parallel.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/file_util.h"
#include "common/hash.h"
#include "common/manifest.h"
#include "fault/fault.h"
#include "gen/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace uctr {

Dataset GenerateDatasetParallel(const GenerationConfig& config,
                                const TemplateLibrary* library,
                                const std::vector<TableWithText>& corpus,
                                uint64_t base_seed, size_t num_threads) {
  obs::Span dataset_span = obs::Tracer::Default().StartSpan("gen.dataset");
  auto dataset_started = std::chrono::steady_clock::now();
  std::vector<std::vector<Sample>> per_entry(corpus.size());
  if (num_threads == 0) num_threads = 1;
  num_threads = std::min(num_threads, std::max<size_t>(1, corpus.size()));

  std::atomic<size_t> next_entry{0};
  auto worker = [&] {
    Rng rng;
    while (true) {
      size_t i = next_entry.fetch_add(1);
      if (i >= corpus.size()) return;
      // Per-entry seeding makes the output independent of the thread
      // count and the order entries are claimed.
      rng.Seed(base_seed + i);
      Generator generator(config, library, &rng);
      per_entry[i] = generator.GenerateFromTable(corpus[i]);
    }
  };

  if (num_threads == 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(num_threads);
    for (size_t t = 0; t < num_threads; ++t) threads.emplace_back(worker);
    for (std::thread& t : threads) t.join();
  }

  Dataset dataset;
  for (std::vector<Sample>& generated : per_entry) {
    for (Sample& s : generated) dataset.samples.push_back(std::move(s));
  }
  if (config.task == TaskType::kFactVerification) {
    Rng post_rng(base_seed ^ 0x9E37ULL);
    AppendUnknownSamples(corpus, config.unknown_fraction, &post_rng,
                         &dataset);
  }
  obs::MetricsRegistry& registry = obs::DefaultRegistry();
  registry.counter("gen_datasets_total")->Increment();
  registry.histogram("latency_gen_dataset_us")
      ->Observe(std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - dataset_started)
                    .count());
  dataset_span.AddAttr("tables", std::to_string(corpus.size()));
  dataset_span.AddAttr("samples", std::to_string(dataset.samples.size()));
  dataset_span.AddAttr("threads", std::to_string(num_threads));
  return dataset;
}

namespace {

/// Fingerprints the corpus content so a checkpoint directory can detect it
/// is being resumed against different inputs.
uint64_t CorpusFingerprint(const std::vector<TableWithText>& corpus) {
  uint64_t fp = hash::Fnv1a64("uctr-corpus-v1");
  for (const TableWithText& entry : corpus) {
    fp = hash::Fnv1a64(entry.table.name(), fp);
    fp = hash::Fnv1a64(entry.table.ToCsv(), fp);
    for (const std::string& sentence : entry.paragraph) {
      fp = hash::Fnv1a64(sentence, fp);
    }
  }
  return fp;
}

/// The checkpoint MANIFEST: which shards are durably finished or
/// quarantined, keyed by the (seed, corpus, config, size) of the run. v2
/// added the GenerationConfig fingerprint; a v1 manifest (no config key)
/// does not parse, so pre-config checkpoint directories are refused
/// instead of silently resumed under a possibly different config.
const ManifestLayout& GenManifestLayout() {
  static const ManifestLayout layout{"uctr-checkpoint v2",
                                     {"seed", "corpus", "config", "shards"},
                                     {{"done", 1}, {"poison", 1}}};
  return layout;
}
constexpr size_t kDone = 0;
constexpr size_t kPoison = 1;

}  // namespace

uint64_t GenerationConfigFingerprint(const GenerationConfig& config) {
  // Canonical text rendering of every dataset-shaping knob, hashed. Field
  // names are spelled out so reordering or adding knobs changes the
  // fingerprint only when the serialization here changes with them.
  std::ostringstream canon;
  canon << "uctr-genconfig-v1";
  canon << ";task=" << static_cast<int>(config.task);
  canon << ";programs=";
  for (ProgramType type : config.program_types) {
    canon << static_cast<int>(type) << ",";
  }
  char buf[64];
  auto put_double = [&](const char* name, double value) {
    std::snprintf(buf, sizeof(buf), ";%s=%.17g", name, value);
    canon << buf;
  };
  canon << ";samples_per_table=" << config.samples_per_table;
  canon << ";max_attempts=" << config.max_attempts;
  canon << ";t2t=" << (config.use_table_to_text ? 1 : 0);
  canon << ";tt2=" << (config.use_text_to_table ? 1 : 0);
  put_double("hybrid_fraction", config.hybrid_fraction);
  put_double("supported_fraction", config.supported_fraction);
  put_double("unknown_fraction", config.unknown_fraction);
  canon << ";nl_stochastic=" << (config.nl.stochastic ? 1 : 0);
  put_double("nl_synonym", config.nl.paraphrase.synonym_prob);
  put_double("nl_drop", config.nl.paraphrase.drop_prob);
  put_double("nl_typo", config.nl.paraphrase.typo_prob);
  // The lexicon is a borrowed pointer whose content is opaque here: fold
  // in only whether an override is present (see the header caveat).
  canon << ";lexicon=" << (config.lexicon != nullptr ? 1 : 0);
  canon << ";weights=";
  for (const auto& [tag, weight] : config.reasoning_weights) {
    canon << tag << "=";
    std::snprintf(buf, sizeof(buf), "%.17g,", weight);
    canon << buf;
  }
  canon << ";quarantine_after=" << config.quarantine_after;
  return hash::Fnv1a64(canon.str());
}

Result<Dataset> GenerateDatasetCheckpointed(
    const GenerationConfig& config, const TemplateLibrary* library,
    const std::vector<TableWithText>& corpus, uint64_t base_seed,
    size_t num_threads, const CheckpointOptions& checkpoint,
    CheckpointReport* report) {
  namespace fs = std::filesystem;
  obs::Span run_span =
      obs::Tracer::Default().StartSpan("gen.dataset_checkpointed");
  obs::MetricsRegistry& registry = obs::DefaultRegistry();
  registry.counter("gen_checkpoint_runs_total")->Increment();

  CheckpointReport local_report;
  CheckpointReport& rep = report != nullptr ? *report : local_report;
  rep = CheckpointReport{};
  rep.total = corpus.size();

  if (checkpoint.directory.empty()) {
    return Status::InvalidArgument("checkpoint directory must be set");
  }
  std::error_code ec;
  fs::create_directories(checkpoint.directory, ec);
  if (ec) {
    return Status::Internal("cannot create checkpoint directory " +
                            checkpoint.directory + ": " + ec.message());
  }
  const std::string manifest_path = checkpoint.directory + "/MANIFEST";
  const std::string attempts_path = checkpoint.directory + "/attempts.log";
  auto shard_path = [&](size_t i) {
    return checkpoint.directory + "/shard-" + std::to_string(i) + ".jsonl";
  };

  // --- Resume: load (and validate) the manifest left by a prior run.
  UCTR_ASSIGN_OR_RETURN(
      CheckpointManifest manifest,
      CheckpointManifest::LoadOrCreate(
          manifest_path, GenManifestLayout(),
          {base_seed, CorpusFingerprint(corpus),
           GenerationConfigFingerprint(config), corpus.size()}));

  // --- Poison-shard quarantine: count `begin` markers per shard in the
  // append-only attempts log. A marker is written before a shard is
  // attempted, so a shard that keeps crashing the process accumulates
  // begins without ever reaching `done` — after quarantine_after of those
  // it is quarantined instead of being attempted again.
  if (checkpoint.quarantine_after > 0 && fs::exists(attempts_path)) {
    if (auto text = ReadFileText(attempts_path); text.ok()) {
      std::map<size_t, size_t> begins;
      std::istringstream in(*text);
      std::string key;
      uint64_t value = 0;
      while (in >> key >> value) {
        if (key == "begin") begins[static_cast<size_t>(value)]++;
      }
      for (const auto& [shard, count] : begins) {
        if (count >= checkpoint.quarantine_after &&
            !manifest.Has(kDone, {shard}) &&
            manifest.Add(kPoison, {shard})) {
          registry.counter("gen_checkpoint_shards_poisoned_total")
              ->Increment();
        }
      }
    }
  }

  std::mutex state_mu;  // guards manifest, the attempts log, and rep
  std::ofstream attempts_log(attempts_path,
                             std::ios::binary | std::ios::app);
  if (!attempts_log) {
    return Status::Internal("cannot open " + attempts_path);
  }

  // Persist newly detected poisonings (and create the manifest on first
  // run) before any generation starts.
  UCTR_RETURN_NOT_OK(manifest.Store(manifest_path));

  // --- Generate the missing shards, mirroring GenerateDatasetParallel's
  // per-entry seeding exactly so the union of all runs is byte-identical
  // to one uninterrupted run.
  std::vector<std::vector<Sample>> per_entry(corpus.size());
  std::vector<char> fresh(corpus.size(), 0);
  std::vector<size_t> todo;
  for (size_t i = 0; i < corpus.size(); ++i) {
    if (!manifest.Has(kDone, {i}) && !manifest.Has(kPoison, {i})) {
      todo.push_back(i);
    }
  }
  size_t budget = checkpoint.max_shards_this_run > 0
                      ? checkpoint.max_shards_this_run
                      : todo.size();
  if (budget < todo.size()) {
    rep.skipped = todo.size() - budget;
    todo.resize(budget);
  }

  obs::Counter* shards_written =
      registry.counter("gen_checkpoint_shards_written_total");
  obs::Counter* write_failures =
      registry.counter("gen_checkpoint_write_failures_total");

  if (num_threads == 0) num_threads = 1;
  num_threads = std::min(num_threads, std::max<size_t>(1, todo.size()));
  std::atomic<size_t> next_todo{0};
  auto worker = [&] {
    Rng rng;
    while (true) {
      size_t t = next_todo.fetch_add(1);
      if (t >= todo.size()) return;
      size_t i = todo[t];
      {
        // Crash marker first: if the process dies inside this shard, the
        // begin without a matching done is what quarantine counts.
        std::lock_guard<std::mutex> lock(state_mu);
        attempts_log << "begin " << i << "\n";
        attempts_log.flush();
      }
      rng.Seed(base_seed + i);
      Generator generator(config, library, &rng);
      std::vector<Sample> samples = generator.GenerateFromTable(corpus[i]);
      Dataset shard;
      shard.samples = samples;  // copy: per_entry keeps the originals
      Status write_status = UCTR_FAULT_POINT("gen.checkpoint_write");
      if (write_status.ok()) {
        write_status = WriteFileAtomic(shard_path(i), DatasetToJsonl(shard));
      }
      std::lock_guard<std::mutex> lock(state_mu);
      if (!write_status.ok()) {
        // Degrade, don't abort: the shard's samples are discarded (they
        // are deterministically regenerable) and the run carries on with
        // the remaining shards. The shard stays un-done in the manifest,
        // so the next resume generates it again.
        write_failures->Increment();
        ++rep.failed;
        continue;
      }
      manifest.Add(kDone, {i});
      Status manifest_status = manifest.Store(manifest_path);
      if (!manifest_status.ok()) {
        // The shard file exists but is not recorded: the next run simply
        // regenerates it (same bytes). Keep this run's copy in memory.
        manifest.Remove(kDone, {i});
        write_failures->Increment();
        ++rep.failed;
        continue;
      }
      per_entry[i] = std::move(samples);
      fresh[i] = 1;
      ++rep.generated;
      shards_written->Increment();
    }
  };
  if (num_threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(num_threads);
    for (size_t t = 0; t < num_threads; ++t) threads.emplace_back(worker);
    for (std::thread& t : threads) t.join();
  }

  // --- Assemble, loading shards persisted by earlier runs from disk.
  Dataset dataset;
  for (size_t i = 0; i < corpus.size(); ++i) {
    if (fresh[i]) {
      for (Sample& s : per_entry[i]) dataset.samples.push_back(std::move(s));
      continue;
    }
    if (!manifest.Has(kDone, {i})) continue;
    auto text = ReadFileText(shard_path(i));
    if (!text.ok()) {
      return Status::Internal("checkpoint shard " + shard_path(i) +
                              " is recorded done but unreadable: " +
                              text.status().ToString());
    }
    auto shard = DatasetFromJsonl(*text);
    if (!shard.ok()) {
      return Status::Internal("checkpoint shard " + shard_path(i) +
                              " is corrupt: " + shard.status().ToString());
    }
    for (Sample& s : shard->samples) {
      dataset.samples.push_back(std::move(s));
    }
    ++rep.resumed;
    registry.counter("gen_checkpoint_shards_resumed_total")->Increment();
  }

  rep.poisoned = manifest.marks(kPoison).size();
  rep.complete = manifest.marks(kDone).size() == corpus.size();
  // The Unknown post-pass draws across the whole dataset, so it must only
  // run on the complete one — and then it matches GenerateDatasetParallel
  // exactly (same `base_seed ^ 0x9E37` post-seed).
  if (rep.complete && config.task == TaskType::kFactVerification) {
    Rng post_rng(base_seed ^ 0x9E37ULL);
    AppendUnknownSamples(corpus, config.unknown_fraction, &post_rng,
                         &dataset);
  }
  run_span.AddAttr("generated", std::to_string(rep.generated));
  run_span.AddAttr("resumed", std::to_string(rep.resumed));
  run_span.AddAttr("complete", rep.complete ? "true" : "false");
  return dataset;
}

}  // namespace uctr
