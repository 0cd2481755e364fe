// Microbenchmarks of the core components (google-benchmark): program
// executors, template sampling, NL generation, interpretation, linking a
// sentence to a table (RankAll, feature extraction), building, decoding
// and copying tables, training and building the models, and the
// end-to-end generation pipeline.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "arith/executor.h"
#include "obs/metrics.h"
#include "arith/parser.h"
#include "datasets/vocab.h"
#include "gen/generator.h"
#include "gen/parallel.h"
#include "ir/ir.h"
#include "ir/plan_cache.h"
#include "logic/executor.h"
#include "logic/parser.h"
#include "model/features.h"
#include "model/interpreter.h"
#include "model/linear_model.h"
#include "model/qa_model.h"
#include "nlgen/nl_generator.h"
#include "program/library.h"
#include "program/sampler.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "store/codec.h"
#include "store/registry.h"
#include "table/table.h"

namespace uctr {
namespace {

Table BenchTable(size_t rows, std::string name = "table") {
  std::string csv = "nation,gold,silver,bronze,total\n";
  for (size_t r = 0; r < rows; ++r) {
    csv += "nation" + std::to_string(r) + "," + std::to_string(r % 13) +
           "," + std::to_string((r * 7) % 17) + "," +
           std::to_string((r * 3) % 11) + "," + std::to_string(r % 40) +
           "\n";
  }
  return Table::FromCsv(csv, std::move(name)).ValueOrDie();
}

void BM_CsvParse(benchmark::State& state) {
  Table t = BenchTable(static_cast<size_t>(state.range(0)));
  std::string csv = t.ToCsv();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Table::FromCsv(csv));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CsvParse)->Arg(16)->Arg(256);

void BM_SqlExecute(benchmark::State& state) {
  Table t = BenchTable(static_cast<size_t>(state.range(0)));
  auto stmt = sql::Parse(
                  "SELECT nation FROM w WHERE gold > 5 ORDER BY total DESC "
                  "LIMIT 3")
                  .ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sql::Execute(stmt, t));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SqlExecute)->Arg(16)->Arg(256);

void BM_LogicExecute(benchmark::State& state) {
  Table t = BenchTable(static_cast<size_t>(state.range(0)));
  auto node = logic::Parse(
                  "eq { count { filter_greater { all_rows ; gold ; 5 } } ; "
                  "7 }")
                  .ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(logic::Execute(*node, t));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LogicExecute)->Arg(16)->Arg(256);

// ---------------------------------------------------------------------------
// Compiled plan vs. scan walker. Each pair runs the same query as a
// pre-compiled plan on the VM (over the table index, warmed once before
// the loop, matching the serving regime where the index is built at table
// load and amortized over many programs) and through the reference row
// scan of sql::Execute / logic::Execute over a parsed AST.

void RunSqlBench(benchmark::State& state, const char* query, bool plan) {
  Table t = BenchTable(static_cast<size_t>(state.range(0)));
  if (plan) {
    t.WarmIndex();
    ir::Plan compiled =
        ir::Compile(ir::Family::kSql, query, t.schema()).ValueOrDie();
    for (auto _ : state) {
      benchmark::DoNotOptimize(ir::ExecutePlan(compiled, t));
    }
  } else {
    auto stmt = sql::Parse(query).ValueOrDie();
    for (auto _ : state) {
      benchmark::DoNotOptimize(sql::Execute(stmt, t));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

constexpr const char* kSqlEqQuery =
    "SELECT total FROM w WHERE nation = 'nation7'";

void BM_SqlEqPredicateScan(benchmark::State& state) {
  RunSqlBench(state, kSqlEqQuery, /*plan=*/false);
}
BENCHMARK(BM_SqlEqPredicateScan)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_SqlEqPredicatePlan(benchmark::State& state) {
  RunSqlBench(state, kSqlEqQuery, /*plan=*/true);
}
BENCHMARK(BM_SqlEqPredicatePlan)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

constexpr const char* kSqlAggQuery =
    "SELECT SUM(total) FROM w WHERE gold > 5";

void BM_SqlNumericAggScan(benchmark::State& state) {
  RunSqlBench(state, kSqlAggQuery, /*plan=*/false);
}
BENCHMARK(BM_SqlNumericAggScan)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_SqlNumericAggPlan(benchmark::State& state) {
  RunSqlBench(state, kSqlAggQuery, /*plan=*/true);
}
BENCHMARK(BM_SqlNumericAggPlan)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void RunLogicBench(benchmark::State& state, const char* form, bool plan) {
  Table t = BenchTable(static_cast<size_t>(state.range(0)));
  if (plan) {
    t.WarmIndex();
    ir::Plan compiled =
        ir::Compile(ir::Family::kLogic, form, t.schema()).ValueOrDie();
    for (auto _ : state) {
      benchmark::DoNotOptimize(ir::ExecutePlan(compiled, t));
    }
  } else {
    auto node = logic::Parse(form).ValueOrDie();
    for (auto _ : state) {
      benchmark::DoNotOptimize(logic::Execute(*node, t));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

constexpr const char* kLogicSuperlative =
    "hop { argmax { all_rows ; total } ; nation }";

void BM_LogicSuperlativeScan(benchmark::State& state) {
  RunLogicBench(state, kLogicSuperlative, /*plan=*/false);
}
BENCHMARK(BM_LogicSuperlativeScan)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_LogicSuperlativePlan(benchmark::State& state) {
  RunLogicBench(state, kLogicSuperlative, /*plan=*/true);
}
BENCHMARK(BM_LogicSuperlativePlan)
    ->Arg(10)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000);

constexpr const char* kLogicFilterEq =
    "hop { filter_eq { all_rows ; nation ; nation7 } ; total }";

void BM_LogicFilterEqScan(benchmark::State& state) {
  RunLogicBench(state, kLogicFilterEq, /*plan=*/false);
}
BENCHMARK(BM_LogicFilterEqScan)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_LogicFilterEqPlan(benchmark::State& state) {
  RunLogicBench(state, kLogicFilterEq, /*plan=*/true);
}
BENCHMARK(BM_LogicFilterEqPlan)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

// Programs whose evidence is every row: the VM marks it in a row bitmap.
constexpr const char* kLogicAggregate = "sum { all_rows ; total }";

void BM_LogicAggregateScan(benchmark::State& state) {
  RunLogicBench(state, kLogicAggregate, /*plan=*/false);
}
BENCHMARK(BM_LogicAggregateScan)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_LogicAggregatePlan(benchmark::State& state) {
  RunLogicBench(state, kLogicAggregate, /*plan=*/true);
}
BENCHMARK(BM_LogicAggregatePlan)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

constexpr const char* kLogicMajority = "most_greater { all_rows ; gold ; 5 }";

void BM_LogicMajorityScan(benchmark::State& state) {
  RunLogicBench(state, kLogicMajority, /*plan=*/false);
}
BENCHMARK(BM_LogicMajorityScan)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_LogicMajorityPlan(benchmark::State& state) {
  RunLogicBench(state, kLogicMajority, /*plan=*/true);
}
BENCHMARK(BM_LogicMajorityPlan)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

// A full-table ORDER BY: the VM reads the index's cached permutation
// instead of sorting.
constexpr const char* kSqlOrderByLimit =
    "SELECT nation FROM w ORDER BY total DESC LIMIT 1";

void BM_SqlOrderByLimitScan(benchmark::State& state) {
  RunSqlBench(state, kSqlOrderByLimit, /*plan=*/false);
}
BENCHMARK(BM_SqlOrderByLimitScan)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_SqlOrderByLimitPlan(benchmark::State& state) {
  RunSqlBench(state, kSqlOrderByLimit, /*plan=*/true);
}
BENCHMARK(BM_SqlOrderByLimitPlan)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

// COUNT(DISTINCT) over a text column of distinct names: the walker
// hashes display strings, the VM counts distinct display ids.
constexpr const char* kSqlCountDistinct =
    "SELECT COUNT(DISTINCT nation) FROM w";

void BM_SqlCountDistinctScan(benchmark::State& state) {
  RunSqlBench(state, kSqlCountDistinct, /*plan=*/false);
}
BENCHMARK(BM_SqlCountDistinctScan)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_SqlCountDistinctPlan(benchmark::State& state) {
  RunSqlBench(state, kSqlCountDistinct, /*plan=*/true);
}
BENCHMARK(BM_SqlCountDistinctPlan)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

// ---------------------------------------------------------------------------
// Compiled-plan VM vs. parse + scan walker (src/ir). The VM side holds a
// pre-compiled plan (the plan-cache-hit regime: no parser, no AST) while
// the walk side pays parse + row-scan interpretation per execution. The
// CacheHit variants go through Program::Execute with a warm
// ir::PlanCache, adding the fingerprint + cache-probe cost a real serving
// hit pays.

Result<ExecResult> ParseAndWalk(ProgramType type, const char* text,
                                const Table& t) {
  switch (type) {
    case ProgramType::kSql:
      return sql::ExecuteQuery(text, t);
    case ProgramType::kLogicalForm:
      return logic::ExecuteLogicalForm(text, t);
    case ProgramType::kArithmetic:
      return arith::ExecuteExpression(text, t);
  }
  return Status::Internal("unknown program type");
}

void RunPlanVsWalkBench(benchmark::State& state, ProgramType type,
                        ir::Family family, const char* text, int mode) {
  Table t = BenchTable(static_cast<size_t>(state.range(0)));
  t.WarmIndex();
  if (mode == 0) {  // parse + scan walker per iteration
    for (auto _ : state) {
      benchmark::DoNotOptimize(ParseAndWalk(type, text, t));
    }
  } else if (mode == 1) {  // pre-compiled plan, raw VM dispatch
    ir::Plan plan = ir::Compile(family, text, t.schema()).ValueOrDie();
    for (auto _ : state) {
      benchmark::DoNotOptimize(ir::ExecutePlan(plan, t));
    }
  } else {  // plan-cache hit through the Program orchestration layer
    ir::PlanCache cache(16, 1);
    Program p{type, text};
    ExecOptions opts;
    opts.plan_cache = &cache;
    benchmark::DoNotOptimize(p.Execute(t, opts));  // warm the cache
    for (auto _ : state) {
      benchmark::DoNotOptimize(p.Execute(t, opts));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

constexpr const char* kPlanSqlQuery =
    "SELECT total FROM w WHERE nation = 'nation7'";

void BM_SqlParseWalk(benchmark::State& state) {
  RunPlanVsWalkBench(state, ProgramType::kSql, ir::Family::kSql,
                     kPlanSqlQuery, 0);
}
BENCHMARK(BM_SqlParseWalk)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_SqlPlanVm(benchmark::State& state) {
  RunPlanVsWalkBench(state, ProgramType::kSql, ir::Family::kSql,
                     kPlanSqlQuery, 1);
}
BENCHMARK(BM_SqlPlanVm)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_SqlPlanCacheHit(benchmark::State& state) {
  RunPlanVsWalkBench(state, ProgramType::kSql, ir::Family::kSql,
                     kPlanSqlQuery, 2);
}
BENCHMARK(BM_SqlPlanCacheHit)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

constexpr const char* kPlanLogicForm =
    "eq { hop { filter_eq { all_rows ; nation ; nation7 } ; gold } ; 7 }";

void BM_LogicParseWalk(benchmark::State& state) {
  RunPlanVsWalkBench(state, ProgramType::kLogicalForm, ir::Family::kLogic,
                     kPlanLogicForm, 0);
}
BENCHMARK(BM_LogicParseWalk)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_LogicPlanVm(benchmark::State& state) {
  RunPlanVsWalkBench(state, ProgramType::kLogicalForm, ir::Family::kLogic,
                     kPlanLogicForm, 1);
}
BENCHMARK(BM_LogicPlanVm)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_LogicPlanCacheHit(benchmark::State& state) {
  RunPlanVsWalkBench(state, ProgramType::kLogicalForm, ir::Family::kLogic,
                     kPlanLogicForm, 2);
}
BENCHMARK(BM_LogicPlanCacheHit)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

constexpr const char* kPlanArithExpr =
    "subtract(gold of nation3, gold of nation5), divide(#0, gold of nation5)";

void BM_ArithParseWalk(benchmark::State& state) {
  RunPlanVsWalkBench(state, ProgramType::kArithmetic, ir::Family::kArith,
                     kPlanArithExpr, 0);
}
BENCHMARK(BM_ArithParseWalk)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_ArithPlanVm(benchmark::State& state) {
  RunPlanVsWalkBench(state, ProgramType::kArithmetic, ir::Family::kArith,
                     kPlanArithExpr, 1);
}
BENCHMARK(BM_ArithPlanVm)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_IndexBuild(benchmark::State& state) {
  Table t = BenchTable(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    Table fresh(t.columns());  // a new table over the same cells
    state.ResumeTiming();
    fresh.WarmIndex();
    benchmark::DoNotOptimize(fresh);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IndexBuild)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

// A table shaped like the serving benchmark's: an entity column, three
// numeric columns of a Wikipedia topic with "$" or integer surface text,
// and the topic's category.
std::string TopicTableCsv(size_t rows) {
  const datasets::Topic& topic =
      datasets::TopicsFor(datasets::Domain::kWikipedia)[0];
  Rng rng(rows);
  std::vector<std::string> header = {topic.entity_header};
  const size_t numeric = std::min<size_t>(3, topic.numeric_columns.size());
  for (size_t c = 0; c < numeric; ++c) {
    header.push_back(topic.numeric_columns[c].header);
  }
  header.push_back(topic.category_header);
  std::vector<std::vector<std::string>> body;
  for (size_t r = 0; r < rows; ++r) {
    std::vector<std::string> row = {
        topic.entities[r % topic.entities.size()] + " " + std::to_string(r)};
    for (size_t c = 0; c < numeric; ++c) {
      const auto& spec = topic.numeric_columns[c];
      char buf[48];
      const double v = rng.UniformDouble(spec.lo, spec.hi);
      std::snprintf(buf, sizeof(buf), spec.integral ? "%s%.0f" : "%s%.1f",
                    spec.money ? "$" : "", spec.integral ? std::round(v) : v);
      row.push_back(buf);
    }
    row.push_back(topic.category_values.empty()
                      ? "none"
                      : topic.category_values[rng.Index(
                            topic.category_values.size())]);
    body.push_back(std::move(row));
  }
  return Table::FromStrings(header, body).ValueOrDie().ToCsv();
}

// put_table's work: parse, canonical encoding, index warm.
void BM_TablePut(benchmark::State& state) {
  const std::string csv = TopicTableCsv(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    Table t = Table::FromCsv(csv).ValueOrDie();
    benchmark::DoNotOptimize(store::TableRegistry::EncodeTable(t));
    t.WarmIndex();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TablePut)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

// WAL replay's and read-repair's work: decode, then warm.
void BM_TableDecode(benchmark::State& state) {
  const std::string bytes =
      store::TableRegistry::EncodeTable(
          Table::FromCsv(TopicTableCsv(static_cast<size_t>(state.range(0))))
              .ValueOrDie())
          .bytes;
  for (auto _ : state) {
    Table t(store::Codec::Decode(bytes).ValueOrDie());
    t.WarmIndex();
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TableDecode)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

// What every Sample and serving request pays to hold a table.
void BM_TableCopy(benchmark::State& state) {
  const Table t =
      Table::FromCsv(TopicTableCsv(static_cast<size_t>(state.range(0))))
          .ValueOrDie();
  for (auto _ : state) {
    Table copy = t;
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TableCopy)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_ArithExecute(benchmark::State& state) {
  Table t = BenchTable(64);
  auto expr = arith::Parse(
                  "subtract(gold of nation3, gold of nation5), "
                  "divide(#0, gold of nation5)")
                  .ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(arith::Execute(expr, t));
  }
}
BENCHMARK(BM_ArithExecute);

void BM_TemplateSample(benchmark::State& state) {
  Table t = BenchTable(32);
  Rng rng(1);
  ProgramSampler sampler(&rng);
  std::vector<TemplateForm> forms =
      TemplateLibrary::Builtin().OfType(ProgramType::kSql);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(forms[i++ % forms.size()], t));
  }
}
BENCHMARK(BM_TemplateSample);

// Claims from every {derive} template: the sibling's plan, then the
// claim's.
void BM_TemplateSampleClaim(benchmark::State& state) {
  Table t = BenchTable(32);
  Rng rng(1);
  ProgramSampler sampler(&rng);
  std::vector<TemplateForm> forms;
  for (TemplateForm& form :
       TemplateLibrary::Builtin().OfType(ProgramType::kLogicalForm)) {
    if (form.tmpl().HasDerive()) forms.push_back(std::move(form));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sampler.SampleClaim(forms[i % forms.size()], t, i % 2 == 0));
    ++i;
  }
}
BENCHMARK(BM_TemplateSampleClaim);

void BM_NlGenerate(benchmark::State& state) {
  Program p{ProgramType::kLogicalForm,
            "eq { hop { filter_eq { all_rows ; nation ; nation3 } ; gold } "
            "; 3 }"};
  nlgen::NlGenerator generator;
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(generator.Generate(p, &rng));
  }
}
BENCHMARK(BM_NlGenerate);

void BM_Interpret(benchmark::State& state) {
  Table t = BenchTable(static_cast<size_t>(state.range(0)));
  model::NlInterpreter interpreter(BuiltinLogicTemplates());
  std::string claim =
      "The number of rows whose gold is greater than 5 is 7.";
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        interpreter.Interpret(claim, t, TaskType::kFactVerification));
  }
}
BENCHMARK(BM_Interpret)->Arg(16)->Arg(64);

void BM_FeatureExtract(benchmark::State& state) {
  model::NlInterpreter interpreter(BuiltinLogicTemplates());
  model::FeatureConfig config;
  model::FeatureExtractor extractor(config, &interpreter);
  Sample s;
  s.task = TaskType::kFactVerification;
  s.table = BenchTable(16);
  s.sentence = "The number of rows whose gold is greater than 5 is 7.";
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.Extract(s));
  }
}
BENCHMARK(BM_FeatureExtract);

// Linking a sentence to a table: RankAll binds every claim template against
// a warmed shared table; Extract adds the lexical, alignment and
// interpreter features. The sentence repeats, as requests against one
// registered table do.
constexpr const char* kLinkClaim =
    "The gold of the row whose nation is nation7 is 7.";

void BM_RankAll(benchmark::State& state) {
  Table t = BenchTable(static_cast<size_t>(state.range(0)));
  t.WarmIndex();
  model::NlInterpreter interpreter(BuiltinLogicTemplates());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        interpreter.RankAll(kLinkClaim, t, TaskType::kFactVerification));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RankAll)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

// Requests with fresh literals, as serving traffic has: each iteration
// names the next row (and a claim the next claimed value), so no two
// consecutive sentences are alike. Template plans are keyed by template
// and column positions, so after the first request every plan is a hit.
// Arguments: rows, then 0 for claims or 1 for questions.
void BM_RankAllDistinctLiterals(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const bool claims = state.range(1) == 0;
  Table t = BenchTable(rows);
  t.WarmIndex();
  std::vector<ProgramTemplate> templates =
      claims ? BuiltinLogicTemplates() : BuiltinSqlTemplates();
  if (!claims) {
    for (ProgramTemplate& tmpl : BuiltinArithTemplates()) {
      templates.push_back(std::move(tmpl));
    }
  }
  model::NlInterpreter interpreter(std::move(templates));
  ir::PlanCache cache(1024, 8);
  ExecOptions exec;
  exec.plan_cache = &cache;
  const TaskType task = claims ? TaskType::kFactVerification
                               : TaskType::kQuestionAnswering;
  size_t i = 0;
  for (auto _ : state) {
    const std::string row = "nation" + std::to_string(i % rows);
    const std::string sentence =
        claims ? "The gold of the row whose nation is " + row + " is " +
                     std::to_string(i) + "."
               : "What was the gold of the row whose nation is " + row + "?";
    ++i;
    benchmark::DoNotOptimize(interpreter.RankAll(sentence, t, task, exec));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RankAllDistinctLiterals)
    ->Args({10, 0})
    ->Args({10, 1})
    ->Args({1000, 0})
    ->Args({1000, 1});

void BM_ExtractFeatures(benchmark::State& state) {
  Table t = BenchTable(static_cast<size_t>(state.range(0)));
  t.WarmIndex();
  model::NlInterpreter interpreter(BuiltinLogicTemplates());
  model::FeatureExtractor extractor(model::FeatureConfig(), &interpreter);
  Sample s;
  s.task = TaskType::kFactVerification;
  s.shared_table = &t;
  s.sentence = kLinkClaim;
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.Extract(s));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ExtractFeatures)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

// AdaGrad SGD as the QA template classifier runs it: 34 classes over 2^18
// hashed slots, 8 epochs of 300 examples with 27 features each (perfbench's
// synthetic QA sets hold about that many). A fresh model per iteration, its
// construction untimed.
void BM_LinearTrain(benchmark::State& state) {
  constexpr int kClasses = 34;
  constexpr size_t kDim = size_t{1} << 18;
  Rng rng(9);
  std::vector<model::Example> examples(300);
  for (model::Example& ex : examples) {
    ex.label = static_cast<int>(rng.UniformInt(0, kClasses - 1));
    for (int j = 0; j < 27; ++j) {
      // Two thirds of the words follow the label, the rest are shared.
      const std::string word =
          j % 3 == 2 ? "w" + std::to_string(rng.UniformInt(0, 799))
                     : "c" + std::to_string(ex.label) + "_" +
                           std::to_string(rng.UniformInt(0, 19));
      ex.features.push_back({model::HashFeature(word), 1.0f});
    }
  }
  const model::TrainConfig config;
  for (auto _ : state) {
    state.PauseTiming();
    model::LinearModel linear(kClasses, kDim);
    Rng train_rng(11);
    state.ResumeTiming();
    benchmark::DoNotOptimize(linear.Train(examples, config, &train_rng));
  }
  state.SetItemsProcessed(state.iterations() * examples.size() *
                          config.epochs);
}
BENCHMARK(BM_LinearTrain)->Unit(benchmark::kMillisecond);

// Building and freeing the QA model with the 34 question templates: the
// interpreter's template forms and an untrained classifier, as each
// training run and each serving backend does.
void BM_QaModelConstruct(benchmark::State& state) {
  std::vector<ProgramTemplate> templates = BuiltinSqlTemplates();
  for (ProgramTemplate& t : BuiltinArithTemplates()) {
    templates.push_back(std::move(t));
  }
  for (auto _ : state) {
    model::QaModel qa(model::QaConfig{}, templates);
    benchmark::DoNotOptimize(&qa);
  }
}
BENCHMARK(BM_QaModelConstruct)->Unit(benchmark::kMicrosecond);

void BM_GeneratePipeline(benchmark::State& state) {
  Rng rng(3);
  static const TemplateLibrary& library = TemplateLibrary::Builtin();
  GenerationConfig config;
  config.task = TaskType::kFactVerification;
  config.program_types = {ProgramType::kLogicalForm};
  config.samples_per_table = 4;
  Generator generator(config, &library, &rng);
  TableWithText input;
  input.table = BenchTable(16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(generator.GenerateFromTable(input));
  }
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_GeneratePipeline);

void BM_GenerateParallel(benchmark::State& state) {
  Rng corpus_rng(4);
  std::vector<TableWithText> corpus;
  for (int i = 0; i < 16; ++i) {
    TableWithText entry;
    entry.table = BenchTable(12, "t" + std::to_string(i));
    corpus.push_back(std::move(entry));
  }
  static const TemplateLibrary& library = TemplateLibrary::Builtin();
  GenerationConfig config;
  config.task = TaskType::kFactVerification;
  config.program_types = {ProgramType::kLogicalForm};
  config.samples_per_table = 6;
  size_t threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        GenerateDatasetParallel(config, &library, corpus, 1, threads));
  }
  state.SetItemsProcessed(state.iterations() * 16 * 6);
}
BENCHMARK(BM_GenerateParallel)->Arg(1)->Arg(4)->UseRealTime();

}  // namespace
}  // namespace uctr

// Custom main so ctest can run the suite as a fast smoke test:
// `bench_micro_components --smoke` caps every benchmark's measuring time
// (google-benchmark 1.7: --benchmark_min_time takes plain seconds), turning
// the full suite into a sub-second crash/regression canary.
//
// `--stages` additionally dumps the process-wide metrics registry after the
// run: the executor / generation-pipeline counters accumulated across every
// benchmark iteration (indexed-vs-scan split, rows scanned, discard
// reasons), giving per-stage context next to the timing numbers.
int main(int argc, char** argv) {
  std::vector<char*> args;
  bool smoke = false;
  bool stages = false;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--stages") == 0) {
      stages = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  std::string min_time = "--benchmark_min_time=0.001";
  if (smoke) args.push_back(min_time.data());
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (stages) {
    std::cout << "\n--- stage metrics (obs::DefaultRegistry) ---\n"
              << uctr::obs::DefaultRegistry().ExpositionText();
  }
  return 0;
}
