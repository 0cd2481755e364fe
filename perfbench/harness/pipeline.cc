#include "pipeline.h"

#include <algorithm>
#include <iostream>
#include <thread>

#include "datasets/benchmark.h"
#include "datasets/corpus.h"
#include "gen/parallel.h"
#include "hybrid/table_to_text.h"
#include "hybrid/text_to_table.h"
#include "model/confidence.h"
#include "model/features.h"
#include "model/interpreter.h"
#include "model/linear_model.h"
#include "model/qa_model.h"
#include "model/verifier.h"
#include "nlgen/nl_generator.h"
#include "obs/metrics.h"
#include "program/library.h"
#include "serve/engine.h"
#include "traced_layers.h"

namespace perfbench {

using namespace uctr;

namespace {

constexpr int kSetupReps = 5;
constexpr size_t kTrainTables = 48;
constexpr size_t kEvalTables = 48;
/// Self-training round: threshold 0.3, temperature 1, require agreement,
/// as uctr_selftrain's default policy.
const model::FilterPolicy kPolicy{0.3, 1.0, true};

/// Algorithm 1 configuration: table splitting and expansion both on.
GenerationConfig SynthConfig(TaskType task) {
  GenerationConfig g;
  g.task = task;
  g.program_types = task == TaskType::kFactVerification
                        ? std::vector<ProgramType>{ProgramType::kLogicalForm}
                        : std::vector<ProgramType>{ProgramType::kSql,
                                                   ProgramType::kArithmetic};
  g.samples_per_table = 8;
  return g;
}

/// Algorithm 1 over `corpus` on `threads` threads.
Dataset Synthesize(TaskType task, const std::vector<TableWithText>& corpus,
                   uint64_t seed, size_t threads) {
  return GenerateDatasetParallel(SynthConfig(task), &Library(), corpus, seed,
                                 threads);
}

/// The held-out split, as uctr_selftrain builds it: a topic synthesis never
/// sees, human NL profile and lexicon, table-only evidence.
GenerationConfig EvalConfig(TaskType task) {
  GenerationConfig g = SynthConfig(task);
  g.use_table_to_text = false;
  g.use_text_to_table = false;
  g.nl = datasets::HumanNlProfile();
  g.lexicon = &datasets::HumanLexicon();
  return g;
}

std::vector<TableWithText> Corpus(uint64_t seed, std::vector<size_t> topics,
                                  size_t tables, bool paragraphs) {
  Rng rng(seed);
  datasets::CorpusConfig config;
  config.topic_indices = std::move(topics);
  config.num_tables = tables;
  config.with_paragraphs = paragraphs;
  return datasets::CorpusGenerator(config, &rng).Generate();
}

/// Inputs of one run, all derived from the seed.
struct PipelineInputs {
  std::vector<std::vector<TableWithText>> train;      ///< one per iteration
  std::vector<std::vector<TableWithText>> candidate;  ///< one per iteration
  Dataset eval_fv;
  Dataset eval_qa;
};

PipelineInputs BuildInputs(uint64_t seed, size_t iterations) {
  PipelineInputs in;
  for (size_t i = 0; i < iterations; ++i) {
    in.train.push_back(
        Corpus(seed * 7919 + 2 * i, {0, 1, 2}, kTrainTables, true));
    in.candidate.push_back(
        Corpus(seed * 7919 + 2 * i + 1, {0, 1, 2}, kTrainTables, true));
  }
  std::vector<TableWithText> held_out =
      Corpus(seed ^ 0xE7A1, {3}, kEvalTables, false);
  Rng rng(seed ^ 0xE7A2);
  Generator fv(EvalConfig(TaskType::kFactVerification), &Library(), &rng);
  in.eval_fv = fv.GenerateDataset(held_out);
  Generator qa(EvalConfig(TaskType::kQuestionAnswering), &Library(), &rng);
  in.eval_qa = qa.GenerateDataset(held_out);
  return in;
}

struct Models {
  model::VerifierModel verifier{serve::EngineConfig().verifier,
                                serve::InferenceEngine::VerifierTemplates()};
  model::QaModel qa{serve::EngineConfig().qa,
                    serve::InferenceEngine::QaTemplates()};
};

/// Held-out evaluation, one timed prediction per sample.
void Evaluate(const Models& m, const PipelineInputs& in,
              std::vector<double>* latency_ms, size_t* right, size_t* total) {
  for (const Sample& s : in.eval_fv.samples) {
    auto start = Clock::now();
    Label label = m.verifier.Predict(s);
    latency_ms->push_back(MicrosBetween(start, Clock::now()) / 1e3);
    *right += label == s.label;
    ++*total;
  }
  for (const Sample& s : in.eval_qa.samples) {
    auto start = Clock::now();
    std::string answer = m.qa.Predict(s);
    latency_ms->push_back(MicrosBetween(start, Clock::now()) / 1e3);
    *right += model::AnswersMatch(answer, s.answer);
    ++*total;
  }
}

/// One confidence-filtered self-training round of the verifier: score
/// fresh candidates with the current model, keep the confident ones at
/// weight conf^(1/T), continue training on them.
Status SelfTrainRound(const Dataset& candidates, uint64_t seed,
                      model::VerifierModel* verifier) {
  Dataset kept;
  for (const Sample& s : candidates.samples) {
    UCTR_ASSIGN_OR_RETURN(model::Confidence conf,
                          model::ScoreSample(*verifier, s));
    UCTR_ASSIGN_OR_RETURN(model::FilterDecision decision,
                          model::ApplyPolicy(conf, kPolicy));
    if (!decision.keep) continue;
    kept.samples.push_back(s);
    kept.samples.back().weight = decision.weight;
  }
  Rng rng(seed);
  verifier->Train(kept, &rng);
  return Status::OK();
}

int RunTraced(const Args& args, const PipelineInputs& in);

}  // namespace

int RunPipeline(const Args& args) {
  constexpr size_t kMaxIterations = 32;
  std::vector<double> setup_s;
  PipelineInputs in;
  for (int k = 0; k < kSetupReps; ++k) {
    auto start = Clock::now();
    in = BuildInputs(args.seed, kMaxIterations);
    setup_s.push_back(SecondsSince(start));
  }
  if (args.trace) return RunTraced(args, in);

  double gen_s = 0, train_s = 0;
  size_t gen_samples = 0, train_samples = 0, right = 0, total = 0;
  size_t round_right = 0, round_total = 0;
  std::vector<double> round_s, latency_ms;
  auto start = Clock::now();
  size_t it = 0;
  for (; it < in.train.size() && (it < 2 || SecondsSince(start) < args.seconds);
       ++it) {
    uint64_t seed = args.seed * 104729 + it;
    auto t0 = Clock::now();
    Dataset fv = Synthesize(TaskType::kFactVerification, in.train[it], seed,
                            LoadThreads());
    Dataset qa = Synthesize(TaskType::kQuestionAnswering, in.train[it],
                            seed + 1, LoadThreads());
    gen_s += SecondsSince(t0);
    gen_samples += fv.size() + qa.size();

    Models m;
    auto t1 = Clock::now();
    Rng rng(seed);
    m.verifier.Train(fv, &rng);
    m.qa.Train(qa, &rng);
    train_s += SecondsSince(t1);
    train_samples += fv.size() + qa.size();

    Evaluate(m, in, &latency_ms, &right, &total);

    auto t2 = Clock::now();
    Dataset candidates = Synthesize(TaskType::kFactVerification,
                                    in.candidate[it], seed + 2, LoadThreads());
    Status round = SelfTrainRound(candidates, seed + 3, &m.verifier);
    if (!round.ok()) {
      std::cerr << "perfbench: self-training round: " << round.ToString()
                << "\n";
      return 1;
    }
    for (const Sample& s : in.eval_fv.samples) {
      round_right += m.verifier.Predict(s) == s.label;
      ++round_total;
    }
    round_s.push_back(SecondsSince(t2));
    if (round_total == 0 || fv.empty() || qa.empty()) {
      std::cerr << "perfbench: empty synthetic or held-out set\n";
      return 1;
    }
  }
  double elapsed = SecondsSince(start);

  Report report;
  Summary latency = Summarize(latency_ms);
  double accuracy = total == 0 ? 0.0 : static_cast<double>(right) / total;
  report.Note("workload synth-pipeline seed " + std::to_string(args.seed) +
              ", " + std::to_string(it) + " iterations in " +
              std::to_string(elapsed) + " s, " + std::to_string(LoadThreads()) +
              " generation threads");
  report.Add("setup_s", Median(setup_s), "s");
  report.DetailSummary("setup_s (each set-up)", Summarize(setup_s), "s");
  report.Add("rss_mb", SelfPeakRssMb(), "MB");
  // Pipeline throughput: synthesized samples carried through generation,
  // training, evaluation and a self-training round, per second of run.
  report.Add("ops_per_s", gen_samples / elapsed, "1/s");
  report.Add("latency_p50_ms", latency.p50, "ms");
  report.Detail("latency_p99_ms", latency.p99, "ms");
  report.Add("accuracy", accuracy, "ratio");
  report.Detail("gen_samples_per_s", gen_samples / gen_s, "1/s");
  report.Detail("train_samples_per_s", train_samples / train_s, "1/s");
  report.Detail("selftrain_round_s", Median(round_s), "s");
  report.Detail("eval_accuracy", accuracy, "ratio");
  report.Detail("selftrain_verify_accuracy",
                static_cast<double>(round_right) / round_total, "ratio");
  report.DetailSummary("eval_predict_ms", latency, "ms");
  bool correct = total > 0 && gen_samples > 0;
  report.Print(correct, it, 0);
  return correct ? 0 : 1;
}

namespace {

/// Times calls into each synthesis and training layer, one iteration's
/// corpus after another until the run time is spent. Every call is its own
/// request, so per-request means are per-call means.
int RunTraced(const Args& args, const PipelineInputs& in) {
  SpanLog log;
  uint32_t call = 0;
  auto traced = [&](const char* name, auto&& fn) {
    return Traced(&log, name, -1, call++, fn);
  };
  serve::EngineConfig engine_config;
  model::NlInterpreter claim_interp(
      serve::InferenceEngine::VerifierTemplates());
  model::NlInterpreter question_interp(serve::InferenceEngine::QaTemplates());
  model::FeatureExtractor claim_features(engine_config.verifier.features,
                                         &claim_interp);
  model::FeatureConfig lexical = engine_config.qa.features;
  lexical.interpreter = false;
  model::FeatureExtractor question_features(lexical, nullptr);
  hybrid::TextToTable expand;
  hybrid::TableToText split;
  nlgen::NlGenerator nl;
  model::TrainConfig train_config;
  GenerationConfig fv_config = SynthConfig(TaskType::kFactVerification);
  obs::MetricsRegistry& registry = obs::DefaultRegistry();

  double generate_us = 0, one_thread_s = 0, parallel_s = 0, sgd_us = 0;
  size_t generated = 0, example_epochs = 0;
  uint64_t attempts = 0, emitted = 0;
  auto start = Clock::now();
  size_t it = 0;
  for (; it < in.train.size() &&
         (it == 0 || SecondsSince(start) < args.seconds);
       ++it) {
    const std::vector<TableWithText>& corpus = in.train[it];
    uint64_t seed = args.seed * 104729 + it;

    // Algorithm 1 per corpus entry on one thread, with the generator's own
    // attempt and emit counters.
    uint64_t attempts0 = registry.counter("gen_attempts_total")->value();
    uint64_t emitted0 = registry.counter("gen_samples_total")->value();
    Rng rng(seed);
    Generator generator(fv_config, &Library(), &rng);
    Dataset fv;
    for (const TableWithText& entry : corpus) {
      auto t0 = Clock::now();
      std::vector<Sample> out = traced(
          "gen.generate_from_table",
          [&] { return generator.GenerateFromTable(entry); });
      generate_us += MicrosBetween(t0, Clock::now());
      for (Sample& s : out) fv.samples.push_back(std::move(s));
    }
    generated += fv.size();
    attempts += registry.counter("gen_attempts_total")->value() - attempts0;
    emitted += registry.counter("gen_samples_total")->value() - emitted0;

    // One thread's wall time is the sum of its entry times.
    auto t1 = Clock::now();
    Synthesize(TaskType::kFactVerification, corpus, seed, 1);
    one_thread_s += SecondsSince(t1);
    auto tn = Clock::now();
    Dataset parallel_fv = Synthesize(TaskType::kFactVerification, corpus,
                                     seed, LoadThreads());
    parallel_s += SecondsSince(tn);

    for (const Sample& s : fv.samples) {
      traced("nlgen.generate", [&] { return nl.Generate(s.program, &rng); });
    }
    for (const TableWithText& entry : corpus) {
      for (size_t row = 0; row < entry.table.num_rows(); ++row) {
        traced("hybrid.split",
               [&] { return split.Apply(entry.table, row, &rng); });
      }
    }

    // Training-example extraction as VerifierModel::Train and
    // QaModel::Train do it: text expansion plus features for claims; table
    // and expanded-table candidate search plus lexical features for
    // questions.
    std::vector<model::Example> examples;
    for (const Sample& s : parallel_fv.samples) {
      if (s.label == Label::kUnknown) continue;
      model::Example ex;
      ex.features = traced("model.extract", [&] {
        if (!s.paragraph.empty()) {
          auto expanded = expand.Apply(s.table, s.paragraph);
          if (expanded.ok()) {
            Sample copy = s;
            copy.table = std::move(expanded).ValueOrDie();
            return claim_features.Extract(copy);
          }
        }
        return claim_features.Extract(s);
      });
      ex.label = s.label == Label::kSupported ? 0 : 1;
      examples.push_back(std::move(ex));
    }
    Dataset qa = Synthesize(TaskType::kQuestionAnswering, corpus, seed + 1,
                            LoadThreads());
    for (const Sample& s : qa.samples) {
      traced("model.extract", [&] {
        question_interp.RankAll(s.sentence, s.table,
                                TaskType::kQuestionAnswering);
        if (!s.paragraph.empty()) {
          auto expanded = expand.Apply(s.table, s.paragraph);
          if (expanded.ok()) {
            question_interp.RankAll(s.sentence, *expanded,
                                    TaskType::kQuestionAnswering);
          }
        }
        return question_features.Extract(s);
      });
    }

    model::LinearModel linear(2, engine_config.verifier.features.dim);
    Rng train_rng(seed + 2);
    auto t2 = Clock::now();
    traced("model.sgd",
           [&] { linear.Train(examples, train_config, &train_rng); });
    sgd_us += MicrosBetween(t2, Clock::now());
    example_epochs += examples.size() * train_config.epochs;

    model::VerifierModel verifier(engine_config.verifier,
                                  serve::InferenceEngine::VerifierTemplates());
    verifier.Train(parallel_fv, &train_rng);
    Dataset candidates = Synthesize(TaskType::kFactVerification,
                                    in.candidate[it], seed + 3, LoadThreads());
    for (const Sample& s : candidates.samples) {
      traced("model.score", [&] { return model::ScoreSample(verifier, s); });
    }
  }
  if (generated == 0 || attempts == 0 || example_epochs == 0) {
    std::cerr << "perfbench: generation produced no samples\n";
    return 1;
  }

  std::map<std::string, double> v;
  v["gen.sample_us"] = generate_us / generated;
  v["gen.parallel_efficiency"] = one_thread_s / (LoadThreads() * parallel_s);
  v["gen.accept_ratio"] = static_cast<double>(emitted) / attempts;
  v["nlgen.generate_us"] = PerRequestUs(log, "nlgen.generate");
  v["hybrid.split_us"] = PerRequestUs(log, "hybrid.split");
  v["model.extract_us"] = PerRequestUs(log, "model.extract");
  v["model.sgd_us"] = sgd_us / example_epochs;
  v["model.score_us"] = PerRequestUs(log, "model.score");
  Status written =
      WriteSpans(args.work_dir + "/../synth-pipeline.spans.jsonl", log);
  Report report;
  report.Note("workload synth-pipeline seed " + std::to_string(args.seed) +
              " traced: " + std::to_string(it) + " iterations, " +
              std::to_string(log.spans().size()) + " spans" +
              (written.ok() ? "" : " (" + written.ToString() + ")"));
  AddLayerMetrics(v, &report);
  report.Print(true, generated, 0);
  return 0;
}

}  // namespace

}  // namespace perfbench
