#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <thread>

#include "common/json.h"
#include "common/rng.h"
#include "datasets/corpus.h"
#include "datasets/vocab.h"
#include "gen/generator.h"
#include "gen/sample.h"
#include "model/qa_model.h"
#include "model/verifier.h"
#include "program/library.h"
#include "serve/engine.h"
#include "serve/result_cache.h"
#include "store/registry.h"

namespace perfbench {

using namespace uctr;

const TemplateLibrary& Library() {
  static const TemplateLibrary library = TemplateLibrary::Builtin();
  return library;
}

namespace {

GenerationConfig GenConfig(TaskType task, size_t per_table, bool hybrid) {
  GenerationConfig g;
  g.task = task;
  g.program_types = task == TaskType::kFactVerification
                        ? std::vector<ProgramType>{ProgramType::kLogicalForm}
                        : std::vector<ProgramType>{ProgramType::kSql,
                                                   ProgramType::kArithmetic};
  g.samples_per_table = per_table;
  // Hybrid requests need their paragraph: every sample goes through table
  // expansion, whose evidence is the original table plus its 3-sentence
  // paragraph. Table-only requests must match the registered table exactly.
  g.use_table_to_text = false;
  g.use_text_to_table = hybrid;
  g.hybrid_fraction = hybrid ? 1.0 : 0.0;
  return g;
}

/// What a request keeps of a generated sample. (A Sample also holds a copy
/// of its table, which for 1000-row tables is too big to keep thousands of.)
struct Generated {
  Op op = Op::kVerify;
  std::string gold;
  std::string sentence;
  std::vector<std::string> paragraph;
};

/// Verify and answer samples of every table, generated on up to four
/// threads; table i always uses seed (seed, i), so the result does not
/// depend on the thread count. A table's verify and answer samples
/// alternate.
std::vector<std::vector<Generated>> SamplesPerTable(
    const std::vector<TableWithText>& tables, size_t per_task, bool hybrid,
    uint64_t seed) {
  std::vector<std::vector<Generated>> out(tables.size());
  size_t threads =
      std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (size_t i = t; i < tables.size(); i += threads) {
        std::vector<Generated> by_task[2];
        for (TaskType task : {TaskType::kFactVerification,
                              TaskType::kQuestionAnswering}) {
          Rng rng(seed * 1000003u + i * 2 + static_cast<int>(task));
          Generator gen(GenConfig(task, per_task, hybrid), &Library(), &rng);
          for (Sample& s : gen.GenerateFromTable(tables[i])) {
            bool verify = s.task == TaskType::kFactVerification;
            by_task[verify ? 0 : 1].push_back(Generated{
                verify ? Op::kVerify : Op::kAnswer,
                verify ? LabelToString(s.label) : s.answer,
                std::move(s.sentence), std::move(s.paragraph)});
          }
        }
        for (size_t k = 0; k < std::max(by_task[0].size(), by_task[1].size());
             ++k) {
          for (auto& list : by_task) {
            if (k < list.size()) out[i].push_back(std::move(list[k]));
          }
        }
      }
    });
  }
  for (std::thread& th : pool) th.join();
  return out;
}

Request FromSample(const Generated& g, const std::string& csv,
                   const std::string& table_ref) {
  Request r;
  r.op = g.op;
  r.gold = g.gold;
  r.csv = table_ref.empty() ? csv : "";
  r.table_ref = table_ref;
  r.paragraph = g.paragraph;
  r.query = g.sentence;
  return r;
}

/// Result-cache identity of a request, as the server computes it.
std::string CacheIdentity(const Request& r) {
  std::string key = r.table_ref.empty() ? r.csv : r.table_ref;
  for (const std::string& sentence : r.paragraph) key += "\x1e" + sentence;
  return key + "\x1f" + (r.op == Op::kVerify ? "v" : "a") + "\x1f" +
         serve::ResultCache::NormalizeQuery(r.query);
}

std::string Fingerprint(const std::string& csv) {
  return store::TableRegistry::EncodeTable(Table::FromCsv(csv).ValueOrDie())
      .fingerprint;
}

/// Appends each table's requests round-robin across tables into `warmup`
/// (the first `warm_per_table` distinct ones of each table) and `stream`.
void Distribute(const std::vector<std::vector<Generated>>& samples,
                const std::vector<std::string>& csvs,
                const std::vector<std::string>& refs, size_t warm_per_table,
                std::set<std::string>* seen, ServingInputs* out) {
  std::vector<size_t> next(samples.size(), 0), warmed(samples.size(), 0);
  bool any = true;
  while (any) {
    any = false;
    for (size_t t = 0; t < samples.size(); ++t) {
      if (next[t] >= samples[t].size()) continue;
      any = true;
      Request r = FromSample(samples[t][next[t]++], csvs[t],
                             refs.empty() ? "" : refs[t]);
      if (!seen->insert(CacheIdentity(r)).second) continue;
      (warmed[t]++ < warm_per_table ? out->warmup : out->stream)
          .push_back(std::move(r));
    }
  }
}

void AssignLines(std::vector<Request>* requests) {
  for (size_t i = 0; i < requests->size(); ++i) {
    (*requests)[i].line = RequestLine((*requests)[i], i + 1);
  }
}

/// Seed of the served model's training corpus, fixed across workload
/// seeds: the served model is part of the system under test, not of its
/// traffic.
constexpr uint64_t kModelSeed = 42;
/// Every kChurnPutEvery-th hot-churn request is a put_table (2%).
constexpr size_t kChurnPutEvery = 50;

/// Synthetic corpus of 4-9-row tables with 3-sentence paragraphs.
std::vector<TableWithText> SmallCorpus(uint64_t seed, size_t tables) {
  Rng rng(seed);
  datasets::CorpusConfig config;
  config.num_tables = tables;
  return datasets::CorpusGenerator(config, &rng).Generate();
}

/// A table of `rows` rows over built-in topic `topic_index` (modulo the
/// topic count), rendered as CSV. Row names stay distinct past the topic's
/// entity pool. Each topic has one schema (see below), so every seed serves
/// the same mix of table shapes.
std::string WideTopicTableCsv(size_t topic_index, size_t rows, Rng* rng) {
  static const char* kSyllables[] = {"ka", "lo", "mi", "nu", "pe",
                                     "ri", "so", "tu", "va", "ze"};
  const auto& topics = datasets::TopicsFor(datasets::Domain::kWikipedia);
  const datasets::Topic& topic = topics[topic_index % topics.size()];
  // The schema is the topic's first three numeric columns plus its
  // category: seeds vary the rows, not the table shapes.
  std::vector<size_t> cols;
  size_t numeric = std::min<size_t>(3, topic.numeric_columns.size());
  for (size_t c = 0; c < numeric; ++c) cols.push_back(c);
  bool with_category = !topic.category_values.empty();
  std::vector<std::string> header = {topic.entity_header};
  for (size_t c : cols) header.push_back(topic.numeric_columns[c].header);
  if (with_category) header.push_back(topic.category_header);

  std::vector<std::vector<std::string>> body;
  size_t pool = topic.entities.size();
  for (size_t i = 0; i < rows; ++i) {
    size_t k = i / pool;
    std::string name = topic.entities[i % pool];
    if (k > 0) {
      name += " ";
      for (size_t digits = k; digits > 0; digits /= 10) {
        name += kSyllables[digits % 10];
      }
    }
    std::vector<std::string> row = {name};
    for (size_t c : cols) {
      const auto& spec = topic.numeric_columns[c];
      double v = rng->UniformDouble(spec.lo, spec.hi);
      char buf[48];
      std::snprintf(buf, sizeof(buf), spec.integral ? "%s%.0f" : "%s%.1f",
                    spec.money ? "$" : "", spec.integral ? std::round(v) : v);
      row.push_back(buf);
    }
    if (with_category) {
      row.push_back(
          topic.category_values[rng->Index(topic.category_values.size())]);
    }
    body.push_back(std::move(row));
  }
  return Table::FromStrings(header, body, topic.name).ValueOrDie().ToCsv();
}

/// Trains the verifier and QA models on a seeded synthetic corpus, as
/// `uctr_serve train` does, and returns their weights files' text.
void TrainWeights(uint64_t seed, std::string* verifier_text,
                  std::string* qa_text) {
  // Training data keeps both hybrid pipelines on, as the paper's does.
  auto train_config = [](TaskType task) {
    GenerationConfig g = GenConfig(task, 8, false);
    g.use_table_to_text = true;
    g.use_text_to_table = true;
    g.hybrid_fraction = 0.5;
    return g;
  };
  std::vector<TableWithText> corpus = SmallCorpus(seed ^ 0x7EA1, 24);
  Rng rng(seed ^ 0x5EED);
  serve::EngineConfig engine_config;
  Generator claim_gen(train_config(TaskType::kFactVerification), &Library(),
                      &rng);
  Dataset claims = claim_gen.GenerateDataset(corpus);
  model::VerifierModel verifier(engine_config.verifier,
                                serve::InferenceEngine::VerifierTemplates());
  verifier.Train(claims, &rng);
  *verifier_text = verifier.SaveWeights();

  Generator qa_gen(train_config(TaskType::kQuestionAnswering), &Library(),
                   &rng);
  Dataset questions = qa_gen.GenerateDataset(corpus);
  model::QaModel qa(engine_config.qa, serve::InferenceEngine::QaTemplates());
  qa.Train(questions, &rng);
  *qa_text = qa.SaveWeights();
}

}  // namespace

std::string RequestLine(const Request& r, uint64_t id) {
  std::string line = "{\"id\":" + std::to_string(id) + ",\"op\":";
  if (r.op == Op::kPut) {
    return line + "\"put_table\",\"table\":" + json::Quote(r.csv) + "}";
  }
  line += r.op == Op::kVerify ? "\"verify\"" : "\"answer\"";
  if (!r.table_ref.empty()) {
    line += ",\"table_ref\":" + json::Quote(r.table_ref);
  } else {
    line += ",\"table\":" + json::Quote(r.csv);
  }
  if (!r.paragraph.empty()) {
    line += ",\"paragraph\":[";
    for (size_t i = 0; i < r.paragraph.size(); ++i) {
      line += (i == 0 ? "" : ",") + json::Quote(r.paragraph[i]);
    }
    line += "]";
  }
  return line + ",\"query\":" + json::Quote(r.query) + "}";
}

ServingInputs BuildServingInputs(const std::string& workload, uint64_t seed,
                                 size_t stream_size) {
  ServingInputs in;
  TrainWeights(kModelSeed, &in.verifier_weights, &in.qa_weights);
  std::set<std::string> seen;

  if (workload == "hybrid-small") {
    // About 6 verify and 6 answer samples survive per small table.
    size_t tables = stream_size / 8 + 64;
    std::vector<TableWithText> corpus = SmallCorpus(seed, tables);
    std::vector<std::string> csvs;
    for (const TableWithText& t : corpus) csvs.push_back(t.table.ToCsv());
    auto samples = SamplesPerTable(corpus, 8, /*hybrid=*/true, seed);
    // The first 48 tables serve set-up only: warm-up shares no table with
    // the measured stream.
    std::vector<std::vector<Generated>> warm(samples.begin(),
                                            samples.begin() + 48);
    std::vector<std::vector<Generated>> rest(samples.begin() + 48,
                                            samples.end());
    std::vector<std::string> warm_csv(csvs.begin(), csvs.begin() + 48);
    std::vector<std::string> rest_csv(csvs.begin() + 48, csvs.end());
    Distribute(warm, warm_csv, {}, SIZE_MAX, &seen, &in);
    Distribute(rest, rest_csv, {}, 0, &seen, &in);
  } else if (workload == "ref-1k") {
    constexpr size_t kTables = 4;
    Rng rng(seed);
    std::vector<TableWithText> big(kTables);
    for (size_t t = 0; t < kTables; ++t) {
      in.tables.push_back(WideTopicTableCsv(t, 1000, &rng));
      big[t].table = Table::FromCsv(in.tables.back()).ValueOrDie();
    }
    for (const std::string& csv : in.tables) {
      in.table_refs.push_back(Fingerprint(csv));
    }
    size_t per_task = (stream_size + 256) / (2 * kTables) + 1;
    auto samples = SamplesPerTable(big, per_task, /*hybrid=*/false, seed);
    Distribute(samples, in.tables, in.table_refs, 32, &seen, &in);
  } else if (workload == "hot-churn") {
    constexpr size_t kTables = 16;
    Rng rng(seed);
    std::vector<TableWithText> tables(kTables);
    for (size_t t = 0; t < kTables; ++t) {
      in.tables.push_back(WideTopicTableCsv(t, 200, &rng));
      tables[t].table = Table::FromCsv(in.tables.back()).ValueOrDie();
    }
    for (const std::string& csv : in.tables) {
      in.table_refs.push_back(Fingerprint(csv));
    }
    ServingInputs pool;
    auto samples = SamplesPerTable(tables, 40, /*hybrid=*/false, seed);
    Distribute(samples, in.tables, in.table_refs, 0, &seen, &pool);
    // Set-up plays every query once, so measured reads are result-cache
    // hits. Table popularity is Zipf(1.1); within a table each of its
    // queries is equally likely.
    in.warmup = pool.stream;
    std::vector<std::vector<const Request*>> by_table(kTables);
    for (const Request& r : pool.stream) {
      size_t t = std::find(in.table_refs.begin(), in.table_refs.end(),
                           r.table_ref) - in.table_refs.begin();
      by_table[t].push_back(&r);
    }
    std::vector<double> cdf;
    double total = 0.0;
    for (size_t t = 0; t < kTables; ++t) {
      total += 1.0 / std::pow(static_cast<double>(t + 1), 1.1);
      cdf.push_back(total);
    }
    for (size_t i = 0; i < stream_size; ++i) {
      if (i % kChurnPutEvery == kChurnPutEvery - 1) {
        Request put;
        put.op = Op::kPut;
        put.csv = WideTopicTableCsv(i, 300, &rng);
        put.gold = Fingerprint(put.csv);
        in.stream.push_back(std::move(put));
        continue;
      }
      double u = rng.UniformDouble() * total;
      size_t t = std::min<size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin(),
          kTables - 1);
      in.stream.push_back(*by_table[t][rng.Index(by_table[t].size())]);
    }
  }
  AssignLines(&in.warmup);
  AssignLines(&in.stream);
  return in;
}

}  // namespace perfbench
