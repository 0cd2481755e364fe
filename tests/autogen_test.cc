#include <gtest/gtest.h>

#include <set>

#include "program/auto_generator.h"
#include "program/sampler.h"
#include "tests/test_util.h"

namespace uctr {
namespace {

using testing::MakeFinanceTable;
using testing::MakeNationsTable;

TEST(AutoGenTest, ProposalsAreWellFormedClaims) {
  Rng rng(3);
  AutoGenConfig config;
  AutoTemplateGenerator gen(config, &rng);
  for (int i = 0; i < 50; ++i) {
    ProgramTemplate tmpl = gen.Propose();
    EXPECT_EQ(tmpl.type, ProgramType::kLogicalForm);
    EXPECT_EQ(tmpl.reasoning_type, "auto");
    EXPECT_FALSE(tmpl.placeholders.empty()) << tmpl.pattern;
  }
}

TEST(AutoGenTest, ProposalsAreWellFormedSql) {
  Rng rng(5);
  AutoGenConfig config;
  config.claims = false;
  AutoTemplateGenerator gen(config, &rng);
  for (int i = 0; i < 50; ++i) {
    ProgramTemplate tmpl = gen.Propose();
    EXPECT_EQ(tmpl.type, ProgramType::kSql);
    // The pattern itself must be syntactically coherent once filled:
    // validated implicitly by the sampler below; here check slots parse.
    EXPECT_FALSE(tmpl.pattern.empty());
  }
}

TEST(AutoGenTest, GeneratedTemplatesExecuteOnCorpus) {
  Rng rng(7);
  AutoGenConfig config;
  config.num_candidates = 60;
  AutoTemplateGenerator gen(config, &rng);
  std::vector<Table> corpus = {MakeNationsTable(), MakeFinanceTable()};
  auto templates = gen.Generate(corpus);
  ASSERT_GT(templates.size(), 5u);

  // Every surviving template instantiates on a fresh table most of the
  // time (that is what the filter guarantees).
  ProgramSampler sampler(&rng);
  size_t working = 0;
  for (const auto& tmpl : templates) {
    TemplateForm form = TemplateForm::Make(tmpl).ValueOrDie();
    for (int trial = 0; trial < 6; ++trial) {
      auto r = tmpl.HasDerive() || tmpl.type == ProgramType::kLogicalForm
                   ? sampler.SampleClaim(form, corpus[0], trial % 2 == 0)
                   : sampler.Sample(form, corpus[0]);
      if (r.ok()) {
        ++working;
        break;
      }
    }
  }
  EXPECT_GE(working * 10, templates.size() * 8);  // >= 80% usable
}

TEST(AutoGenTest, FilterRejectsAtLeastSomeCandidates) {
  Rng rng(11);
  AutoGenConfig strict;
  strict.num_candidates = 40;
  strict.min_success_rate = 0.99;  // near-perfect execution demanded
  AutoTemplateGenerator strict_gen(strict, &rng);
  AutoGenConfig loose = strict;
  loose.min_success_rate = 0.0;
  Rng rng2(11);
  AutoTemplateGenerator loose_gen(loose, &rng2);

  std::vector<Table> corpus = {MakeNationsTable()};
  auto strict_set = strict_gen.Generate(corpus);
  auto loose_set = loose_gen.Generate(corpus);
  EXPECT_LT(strict_set.size(), loose_set.size());
}

TEST(AutoGenTest, SuccessRateBounds) {
  Rng rng(13);
  AutoGenConfig config;
  AutoTemplateGenerator gen(config, &rng);
  auto tmpl = ProgramTemplate::Make(
                  ProgramType::kLogicalForm,
                  "eq { count { filter_eq { all_rows ; {c1} ; {v1@c1} } } ; "
                  "{derive} }",
                  "count")
                  .ValueOrDie();
  std::vector<Table> corpus = {MakeNationsTable()};
  double rate = gen.SuccessRate(tmpl, corpus);
  EXPECT_GE(rate, 0.0);
  EXPECT_LE(rate, 1.0);
  EXPECT_GT(rate, 0.5);  // this template nearly always works
  EXPECT_DOUBLE_EQ(gen.SuccessRate(tmpl, {}), 0.0);
}

TEST(AutoGenTest, GeneratedSetIsDiverse) {
  Rng rng(17);
  AutoGenConfig config;
  config.num_candidates = 120;
  AutoTemplateGenerator gen(config, &rng);
  std::vector<Table> corpus = {MakeNationsTable(), MakeFinanceTable()};
  auto templates = gen.Generate(corpus);
  std::set<std::string> roots;
  for (const auto& tmpl : templates) {
    roots.insert(tmpl.pattern.substr(0, tmpl.pattern.find(' ')));
  }
  EXPECT_GE(roots.size(), 4u);  // eq/round_eq/greater/only/most_/all_...
}

}  // namespace
}  // namespace uctr
