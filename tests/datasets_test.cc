#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "datasets/benchmark.h"
#include "datasets/corpus.h"
#include "datasets/vocab.h"

namespace uctr::datasets {
namespace {

// ------------------------------------------------------------------ Vocab

TEST(VocabTest, EveryDomainHasMultipleTopics) {
  for (Domain d :
       {Domain::kWikipedia, Domain::kFinance, Domain::kScience}) {
    const auto& topics = TopicsFor(d);
    EXPECT_GE(topics.size(), 3u) << DomainToString(d);
    for (const Topic& t : topics) {
      EXPECT_GE(t.entities.size(), 8u) << t.name;
      EXPECT_GE(t.numeric_columns.size(), 3u) << t.name;
    }
  }
}

TEST(VocabTest, TopicsWithinDomainAreDisjoint) {
  const auto& topics = TopicsFor(Domain::kWikipedia);
  std::set<std::string> seen;
  for (const Topic& t : topics) {
    for (const std::string& e : t.entities) {
      EXPECT_TRUE(seen.insert(e).second) << "duplicate entity " << e;
    }
  }
}

// ----------------------------------------------------------------- Corpus

TEST(CorpusTest, GeneratesWellFormedTables) {
  Rng rng(1);
  CorpusConfig config;
  config.domain = Domain::kWikipedia;
  config.num_tables = 12;
  CorpusGenerator gen(config, &rng);
  auto corpus = gen.Generate();
  ASSERT_EQ(corpus.size(), 12u);
  for (const TableWithText& entry : corpus) {
    EXPECT_GE(entry.table.num_rows(), config.min_rows);
    EXPECT_LE(entry.table.num_rows(), config.max_rows);
    EXPECT_GE(entry.table.num_columns(), 3u);
    // First column is the entity column; at least two numeric columns.
    const std::vector<ColumnSpec>& specs = entry.table.schema().columns();
    EXPECT_GE(std::count_if(specs.begin(), specs.end(),
                            [](const ColumnSpec& spec) {
                              return spec.type == ColumnType::kNumber;
                            }),
              2);
    EXPECT_GE(entry.paragraph.size(), 2u);
  }
}

TEST(CorpusTest, FinanceTablesRenderMoney) {
  Rng rng(2);
  CorpusConfig config;
  config.domain = Domain::kFinance;
  config.num_tables = 3;
  CorpusGenerator gen(config, &rng);
  auto corpus = gen.Generate();
  bool any_money = false;
  for (const auto& entry : corpus) {
    for (size_t r = 0; r < entry.table.num_rows(); ++r) {
      for (size_t c = 1; c < entry.table.num_columns(); ++c) {
        std::string display = entry.table.cell(r, c).ToDisplayString();
        if (!display.empty() && display[0] == '$') any_money = true;
        // Money cells must still parse numerically.
        if (!display.empty() && display[0] == '$') {
          EXPECT_TRUE(entry.table.cell(r, c).is_number()) << display;
        }
      }
    }
  }
  EXPECT_TRUE(any_money);
}

TEST(CorpusTest, ParagraphDescribesWithheldRow) {
  Rng rng(3);
  CorpusConfig config;
  config.domain = Domain::kWikipedia;
  config.num_tables = 6;
  CorpusGenerator gen(config, &rng);
  for (const auto& entry : gen.Generate()) {
    // The first paragraph sentence names an entity absent from the table.
    const std::string& hidden = entry.paragraph[0];
    bool mentions_table_entity = false;
    for (size_t r = 0; r < entry.table.num_rows(); ++r) {
      std::string entity = entry.table.cell(r, 0).ToDisplayString();
      if (hidden.find(entity) != std::string::npos) {
        mentions_table_entity = true;
      }
    }
    EXPECT_FALSE(mentions_table_entity) << hidden;
  }
}

TEST(CorpusTest, TopicRestrictionRespected) {
  Rng rng(4);
  CorpusConfig config;
  config.domain = Domain::kWikipedia;
  config.topic_indices = {0};
  config.num_tables = 5;
  CorpusGenerator gen(config, &rng);
  const Topic& topic = TopicsFor(Domain::kWikipedia)[0];
  for (const auto& entry : gen.Generate()) {
    EXPECT_EQ(entry.table.schema().column(0).name, topic.entity_header);
  }
}

TEST(CorpusTest, DeterministicGivenSeed) {
  CorpusConfig config;
  config.num_tables = 4;
  Rng rng_a(7), rng_b(7);
  CorpusGenerator gen_a(config, &rng_a), gen_b(config, &rng_b);
  auto a = gen_a.Generate();
  auto b = gen_b.Generate();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].table.ToCsv(), b[i].table.ToCsv());
  }
}

// -------------------------------------------------------------- Benchmark

TEST(BenchmarkTest, FeverousSimShape) {
  Rng rng(11);
  BenchmarkScale scale;
  scale.unlabeled_tables = 6;
  scale.gold_train_tables = 6;
  scale.eval_tables = 4;
  Benchmark bench = MakeFeverousSim(scale, &rng);
  EXPECT_EQ(bench.task, TaskType::kFactVerification);
  EXPECT_EQ(bench.num_classes, 2);
  EXPECT_EQ(bench.unlabeled.size(), 6u);
  EXPECT_GT(bench.gold_train.size(), 20u);
  EXPECT_GT(bench.gold_dev.size(), 5u);
  EXPECT_GT(bench.gold_test.size(), 5u);
  // Both labels present in gold data.
  EXPECT_GT(bench.gold_train.CountLabel(Label::kSupported), 0u);
  EXPECT_GT(bench.gold_train.CountLabel(Label::kRefuted), 0u);
}

TEST(BenchmarkTest, TatQaSimHasHybridEvidenceAndBothProgramTypes) {
  Rng rng(13);
  BenchmarkScale scale;
  scale.unlabeled_tables = 4;
  scale.gold_train_tables = 8;
  scale.eval_tables = 4;
  Benchmark bench = MakeTatQaSim(scale, &rng);
  EXPECT_EQ(bench.domain, Domain::kFinance);
  EXPECT_EQ(bench.task, TaskType::kQuestionAnswering);
  // Evidence sources mix table-only and hybrid buckets.
  size_t hybrid = bench.gold_train.CountSource(EvidenceSource::kTableSplit) +
                  bench.gold_train.CountSource(EvidenceSource::kTableExpand) +
                  bench.gold_train.CountSource(EvidenceSource::kTextOnly);
  EXPECT_GT(hybrid, 0u);
  EXPECT_GT(bench.gold_train.CountSource(EvidenceSource::kTableOnly), 0u);
  // Arithmetic reasoning present.
  EXPECT_GT(bench.gold_train.CountReasoningType("arithmetic"), 0u);
}

TEST(BenchmarkTest, WikiSqlSimIsTableOnly) {
  Rng rng(17);
  BenchmarkScale scale;
  scale.unlabeled_tables = 4;
  scale.gold_train_tables = 6;
  scale.eval_tables = 4;
  Benchmark bench = MakeWikiSqlSim(scale, &rng);
  for (const Sample& s : bench.gold_train.samples) {
    EXPECT_EQ(s.source, EvidenceSource::kTableOnly);
  }
}

TEST(BenchmarkTest, SemTabFactsSimIsLowResourceThreeWay) {
  Rng rng(19);
  BenchmarkScale scale;  // defaults
  Benchmark bench = MakeSemTabFactsSim(scale, &rng);
  EXPECT_EQ(bench.num_classes, 3);
  EXPECT_LT(bench.unlabeled.size(), scale.unlabeled_tables);
  EXPECT_GT(bench.gold_train.CountLabel(Label::kUnknown), 0u);
}

TEST(BenchmarkTest, GoldSamplesHaveExecutableProvenance) {
  Rng rng(23);
  BenchmarkScale scale;
  scale.unlabeled_tables = 4;
  scale.gold_train_tables = 5;
  scale.eval_tables = 4;
  Benchmark bench = MakeWikiSqlSim(scale, &rng);
  ASSERT_FALSE(bench.gold_test.empty());
  for (const Sample& s : bench.gold_test.samples) {
    EXPECT_FALSE(s.sentence.empty());
    EXPECT_FALSE(s.answer.empty());
    EXPECT_TRUE(ParseProgram(s.program).ok()) << s.program.text;
  }
}

}  // namespace
}  // namespace uctr::datasets
