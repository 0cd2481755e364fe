#include <gtest/gtest.h>

#include <set>

#include "common/string_util.h"
#include "nlgen/lexicon.h"
#include "nlgen/nl_generator.h"
#include "nlgen/paraphraser.h"
#include "nlgen/realize_util.h"
#include "tests/test_util.h"

namespace uctr::nlgen {
namespace {

NlGenerator DeterministicGenerator() {
  NlGeneratorConfig config;
  config.stochastic = false;
  return NlGenerator(config);
}

std::string Canonical(ProgramType type, const std::string& text) {
  Program p{type, text};
  return DeterministicGenerator().GenerateCanonical(p).ValueOrDie();
}

// --------------------------------------------------------------- Lexicon

TEST(LexiconTest, CanonicalAndVariants) {
  const Lexicon& lex = Lexicon::Default();
  EXPECT_EQ(lex.Canonical("highest"), "highest");
  EXPECT_EQ(lex.Canonical("no_such_key"), "no_such_key");
  // "highest" has at least four variants for Pick to draw.
  Rng rng(5);
  std::set<std::string> drawn;
  for (int i = 0; i < 100; ++i) drawn.insert(lex.Pick("highest", &rng));
  EXPECT_GE(drawn.size(), 4u);
}

TEST(LexiconTest, PickIsAVariant) {
  const Lexicon& lex = Lexicon::Default();
  const std::vector<std::string> variants = {"lowest", "smallest", "least",
                                             "minimum", "fewest"};
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    std::string v = lex.Pick("lowest", &rng);
    EXPECT_NE(std::find(variants.begin(), variants.end(), v), variants.end());
  }
  EXPECT_EQ(lex.Pick("no_such_key", &rng), "no_such_key");
}

TEST(LexiconTest, SynonymGroupsLinkSingleWords) {
  const Lexicon& lex = Lexicon::Default();
  const auto& group = lex.SynonymGroup("highest");
  EXPECT_FALSE(group.empty());
  EXPECT_NE(std::find(group.begin(), group.end(), "largest"), group.end());
  EXPECT_TRUE(lex.SynonymGroup("zanzibar").empty());
}

// ----------------------------------------------------------- RealizeUtil

TEST(RealizeUtilTest, OrdinalWords) {
  EXPECT_EQ(OrdinalWord(1), "1st");
  EXPECT_EQ(OrdinalWord(2), "2nd");
  EXPECT_EQ(OrdinalWord(3), "3rd");
  EXPECT_EQ(OrdinalWord(4), "4th");
  EXPECT_EQ(OrdinalWord(11), "11th");
}

TEST(RealizeUtilTest, FinishSentence) {
  EXPECT_EQ(FinishSentence("hello world", '?'), "Hello world?");
  EXPECT_EQ(FinishSentence("Already done.", '?'), "Already done.");
  EXPECT_EQ(FinishSentence("  spaced  ", '.'), "Spaced.");
}

// ------------------------------------------------------------------- SQL

TEST(SqlRealizerTest, SuperlativeQuestion) {
  std::string q = Canonical(
      ProgramType::kSql,
      "SELECT nation FROM w ORDER BY gold DESC LIMIT 1");
  EXPECT_EQ(q, "Which nation has the highest gold?");
}

TEST(SqlRealizerTest, SpanQuestion) {
  std::string q = Canonical(
      ProgramType::kSql, "SELECT gold FROM w WHERE nation = 'china'");
  EXPECT_EQ(q, "What is the gold of the row whose nation is china?");
}

TEST(SqlRealizerTest, CountQuestion) {
  std::string q = Canonical(
      ProgramType::kSql, "SELECT COUNT(*) FROM w WHERE gold > '5'");
  EXPECT_NE(q.find("How many"), std::string::npos);
  EXPECT_NE(q.find("greater than 5"), std::string::npos);
}

TEST(SqlRealizerTest, AggregateQuestions) {
  EXPECT_EQ(Canonical(ProgramType::kSql, "SELECT SUM(gold) FROM w"),
            "What is the total gold?");
  EXPECT_EQ(Canonical(ProgramType::kSql, "SELECT AVG(gold) FROM w"),
            "What is the average gold?");
  EXPECT_EQ(Canonical(ProgramType::kSql, "SELECT MAX(gold) FROM w"),
            "What is the highest gold?");
  EXPECT_EQ(Canonical(ProgramType::kSql, "SELECT MIN(gold) FROM w"),
            "What is the lowest gold?");
}

TEST(SqlRealizerTest, DiffQuestionMentionsBothColumns) {
  std::string q = Canonical(
      ProgramType::kSql,
      "SELECT gold - silver FROM w WHERE nation = 'japan'");
  EXPECT_NE(q.find("difference"), std::string::npos);
  EXPECT_NE(q.find("gold"), std::string::npos);
  EXPECT_NE(q.find("silver"), std::string::npos);
  EXPECT_NE(q.find("japan"), std::string::npos);
}

TEST(SqlRealizerTest, CountDistinct) {
  std::string q = Canonical(ProgramType::kSql,
                            "SELECT COUNT(DISTINCT nation) FROM w");
  EXPECT_NE(q.find("different nation"), std::string::npos);
}

TEST(SqlRealizerTest, BoundsConditionsRealize) {
  std::string le = Canonical(
      ProgramType::kSql, "SELECT nation FROM w WHERE gold <= '5'");
  EXPECT_NE(le.find("at most 5"), std::string::npos);
  std::string ge = Canonical(
      ProgramType::kSql, "SELECT nation FROM w WHERE gold >= '5'");
  EXPECT_NE(ge.find("at least 5"), std::string::npos);
  std::string ne = Canonical(
      ProgramType::kSql, "SELECT nation FROM w WHERE gold != '5'");
  EXPECT_NE(ne.find("not 5"), std::string::npos);
}

TEST(SqlRealizerTest, MultiItemSelect) {
  std::string q = Canonical(ProgramType::kSql,
                            "SELECT gold, silver FROM w WHERE nation = "
                            "'china'");
  EXPECT_NE(q.find("gold"), std::string::npos);
  EXPECT_NE(q.find("silver"), std::string::npos);
}

TEST(SqlRealizerTest, AggregateWithWhereMentionsCondition) {
  std::string q = Canonical(
      ProgramType::kSql,
      "SELECT SUM(gold) FROM w WHERE continent = 'europe'");
  EXPECT_NE(q.find("total gold"), std::string::npos);
  EXPECT_NE(q.find("europe"), std::string::npos);
}

TEST(SqlRealizerTest, SuperlativeAscendingUsesLowest) {
  std::string q = Canonical(
      ProgramType::kSql, "SELECT nation FROM w ORDER BY gold ASC LIMIT 1");
  EXPECT_NE(q.find("lowest gold"), std::string::npos);
}

TEST(SqlRealizerTest, OrderWithoutLimitFallsBack) {
  std::string q = Canonical(ProgramType::kSql,
                            "SELECT nation FROM w ORDER BY gold DESC");
  EXPECT_NE(q.find("ordered by gold"), std::string::npos);
}

// ----------------------------------------------------------------- Logic

TEST(LogicRealizerTest, LookupClaim) {
  std::string c = Canonical(
      ProgramType::kLogicalForm,
      "eq { hop { filter_eq { all_rows ; nation ; china } ; gold } ; 8 }");
  EXPECT_EQ(c, "The gold of the row whose nation is china is 8.");
}

TEST(LogicRealizerTest, CountClaim) {
  std::string c = Canonical(
      ProgramType::kLogicalForm,
      "eq { count { filter_greater { all_rows ; gold ; 5 } } ; 2 }");
  EXPECT_EQ(c,
            "The number of rows whose gold is greater than 5 is 2.");
}

TEST(LogicRealizerTest, SuperlativeClaim) {
  std::string c = Canonical(
      ProgramType::kLogicalForm,
      "eq { hop { argmax { all_rows ; total } ; nation } ; united states }");
  EXPECT_EQ(c,
            "The nation of the row with the highest total is united states.");
}

TEST(LogicRealizerTest, OrdinalClaim) {
  std::string c = Canonical(
      ProgramType::kLogicalForm,
      "eq { hop { nth_argmax { all_rows ; total ; 2 } ; nation } ; china }");
  EXPECT_NE(c.find("2nd highest"), std::string::npos);
}

TEST(LogicRealizerTest, MajorityClaims) {
  std::string c = Canonical(ProgramType::kLogicalForm,
                            "most_eq { all_rows ; gold ; 5 }");
  EXPECT_EQ(c, "Most of the rows have a gold of 5.");
  std::string c2 = Canonical(ProgramType::kLogicalForm,
                             "all_greater { all_rows ; total ; 10 }");
  EXPECT_EQ(c2, "All of the rows have a total greater than 10.");
}

TEST(LogicRealizerTest, OnlyClaim) {
  std::string c = Canonical(
      ProgramType::kLogicalForm,
      "only { filter_greater { all_rows ; gold ; 8 } }");
  EXPECT_EQ(c, "There is only one row whose gold is greater than 8.");
}

TEST(LogicRealizerTest, AggregationClaim) {
  std::string c = Canonical(ProgramType::kLogicalForm,
                            "round_eq { avg { all_rows ; gold } ; 6 }");
  EXPECT_EQ(c, "The average gold is about 6.");
}

TEST(LogicRealizerTest, ComparativeClaim) {
  std::string c = Canonical(
      ProgramType::kLogicalForm,
      "greater { hop { filter_eq { all_rows ; nation ; china } ; gold } ; "
      "hop { filter_eq { all_rows ; nation ; japan } ; gold } }");
  EXPECT_EQ(c,
            "The gold of the row whose nation is china is greater than the "
            "gold of the row whose nation is japan.");
}

TEST(LogicRealizerTest, ConjunctionClaim) {
  std::string c = Canonical(
      ProgramType::kLogicalForm,
      "and { eq { max { all_rows ; gold } ; 10 } ; eq { min { all_rows ; "
      "gold } ; 2 } }");
  EXPECT_NE(c.find(", and "), std::string::npos);
}

TEST(LogicRealizerTest, RejectsNonClaimRoot) {
  Program p{ProgramType::kLogicalForm,
            "filter_eq { all_rows ; nation ; china }"};
  EXPECT_FALSE(DeterministicGenerator().GenerateCanonical(p).ok());
}

TEST(LogicRealizerTest, FilterVariantsRealize) {
  std::string c = Canonical(
      ProgramType::kLogicalForm,
      "eq { count { filter_less_eq { all_rows ; gold ; 5 } } ; 3 }");
  EXPECT_NE(c.find("at most 5"), std::string::npos);
  std::string c2 = Canonical(
      ProgramType::kLogicalForm,
      "eq { count { filter_greater_eq { all_rows ; gold ; 5 } } ; 3 }");
  EXPECT_NE(c2.find("at least 5"), std::string::npos);
  std::string c3 = Canonical(
      ProgramType::kLogicalForm,
      "eq { count { filter_not_eq { all_rows ; nation ; china } } ; 4 }");
  EXPECT_NE(c3.find("is not china"), std::string::npos);
  std::string c4 = Canonical(
      ProgramType::kLogicalForm,
      "eq { count { filter_all { all_rows ; gold } } ; 5 }");
  EXPECT_NE(c4.find("known gold"), std::string::npos);
}

TEST(LogicRealizerTest, NestedFilterChainsCompose) {
  std::string c = Canonical(
      ProgramType::kLogicalForm,
      "eq { count { filter_greater { filter_eq { all_rows ; continent ; "
      "europe } ; gold ; 5 } } ; 2 }");
  EXPECT_NE(c.find("europe"), std::string::npos);
  EXPECT_NE(c.find("greater than 5"), std::string::npos);
}

TEST(LogicRealizerTest, NotClaim) {
  std::string c = Canonical(ProgramType::kLogicalForm,
                            "not { eq { max { all_rows ; gold } ; 9 } }");
  EXPECT_NE(c.find("not the case"), std::string::npos);
}

TEST(LogicRealizerTest, DiffClaim) {
  std::string c = Canonical(
      ProgramType::kLogicalForm,
      "round_eq { diff { max { all_rows ; gold } ; min { all_rows ; gold } "
      "} ; 8 }");
  EXPECT_NE(c.find("difference between"), std::string::npos);
}

// ------------------------------------------------------------ Arithmetic

TEST(ArithRealizerTest, PercentageChangeIdiom) {
  std::string q = Canonical(
      ProgramType::kArithmetic,
      "subtract(2019 of revenue, 2018 of revenue), "
      "divide(#0, 2018 of revenue)");
  EXPECT_NE(q.find("percentage change"), std::string::npos);
  EXPECT_NE(q.find("revenue"), std::string::npos);
  EXPECT_NE(q.find("from 2018 to 2019"), std::string::npos);
}

TEST(ArithRealizerTest, ChangeIdiom) {
  std::string q = Canonical(ProgramType::kArithmetic,
                            "subtract(2019 of revenue, 2018 of revenue)");
  EXPECT_EQ(q, "What is the difference in the revenue from 2018 to 2019?");
}

TEST(ArithRealizerTest, AverageIdiom) {
  std::string q = Canonical(
      ProgramType::kArithmetic,
      "add(2019 of revenue, 2018 of revenue), divide(#0, const_2)");
  EXPECT_NE(q.find("average"), std::string::npos);
}

TEST(ArithRealizerTest, RatioAndComparison) {
  EXPECT_NE(Canonical(ProgramType::kArithmetic,
                      "divide(2019 of revenue, 2019 of cost of sales)")
                .find("ratio"),
            std::string::npos);
  std::string q = Canonical(ProgramType::kArithmetic,
                            "greater(2019 of revenue, 2018 of revenue)");
  EXPECT_NE(q.find("Was"), std::string::npos);
  EXPECT_NE(q.find("greater than"), std::string::npos);
}

TEST(ArithRealizerTest, TableAggregations) {
  EXPECT_NE(Canonical(ProgramType::kArithmetic, "table_sum(revenue)")
                .find("total revenue"),
            std::string::npos);
  EXPECT_NE(Canonical(ProgramType::kArithmetic, "table_max(revenue)")
                .find("highest value"),
            std::string::npos);
}

TEST(ArithRealizerTest, FallbackNarration) {
  std::string q = Canonical(ProgramType::kArithmetic,
                            "add(1, 2), multiply(#0, 3), exp(#1, 2)");
  EXPECT_NE(q.find("result of"), std::string::npos);
}

// ------------------------------------------------------------ Stochastic

TEST(NlGeneratorTest, StochasticGenerationIsDiverse) {
  NlGenerator gen;  // stochastic defaults
  Program p{ProgramType::kSql,
            "SELECT nation FROM w ORDER BY gold DESC LIMIT 1"};
  Rng rng(99);
  std::set<std::string> outputs;
  for (int i = 0; i < 60; ++i) {
    outputs.insert(gen.Generate(p, &rng).ValueOrDie());
  }
  EXPECT_GE(outputs.size(), 5u);  // multiple surface forms
}

TEST(NlGeneratorTest, StochasticPreservesKeyContent) {
  NlGenerator gen;
  Program p{ProgramType::kLogicalForm,
            "eq { hop { filter_eq { all_rows ; nation ; china } ; gold } ; "
            "8 }"};
  Rng rng(7);
  for (int i = 0; i < 40; ++i) {
    std::string s = gen.Generate(p, &rng).ValueOrDie();
    EXPECT_NE(s.find("china"), std::string::npos) << s;
    EXPECT_NE(s.find("8"), std::string::npos) << s;
  }
}

TEST(NlGeneratorTest, DeterministicIsStable) {
  NlGenerator gen = DeterministicGenerator();
  Program p{ProgramType::kSql, "SELECT SUM(gold) FROM w"};
  Rng rng(1);
  EXPECT_EQ(gen.Generate(p, &rng).ValueOrDie(),
            gen.Generate(p, &rng).ValueOrDie());
}

// ----------------------------------------------------------- Paraphraser

TEST(ParaphraserTest, ZeroNoiseIsIdentity) {
  ParaphraseConfig config;
  config.synonym_prob = 0.0;
  Paraphraser para(config, &Lexicon::Default());
  Rng rng(5);
  std::string s = "Which nation has the highest gold?";
  EXPECT_EQ(para.Apply(s, &rng), s);
}

TEST(ParaphraserTest, SynonymsPreserveStructure) {
  ParaphraseConfig config;
  config.synonym_prob = 1.0;
  Paraphraser para(config, &Lexicon::Default());
  Rng rng(5);
  std::string s = "Which nation has the highest gold?";
  std::string out = para.Apply(s, &rng);
  EXPECT_EQ(out.back(), '?');
  EXPECT_NE(out.find("nation"), std::string::npos);  // not in any group
  EXPECT_NE(out.find("gold"), std::string::npos);
}

TEST(ParaphraserTest, DropNoiseRemovesAtMostOneWord) {
  ParaphraseConfig config;
  config.synonym_prob = 0.0;
  config.drop_prob = 1.0;
  Paraphraser para(config, &Lexicon::Default());
  Rng rng(5);
  std::string s = "The gold of the row whose nation is china is 8.";
  std::string out = para.Apply(s, &rng);
  size_t words_in = SplitWhitespace(s).size();
  size_t words_out = SplitWhitespace(out).size();
  EXPECT_EQ(words_out, words_in - 1);
}

TEST(ParaphraserTest, CapitalizationPreserved) {
  ParaphraseConfig config;
  config.synonym_prob = 1.0;
  Paraphraser para(config, &Lexicon::Default());
  Rng rng(11);
  // "Most" starts the sentence and belongs to the highest/most group.
  for (int i = 0; i < 20; ++i) {
    std::string out = para.Apply("Most of the rows have a gold of 5.", &rng);
    EXPECT_TRUE(std::isupper(static_cast<unsigned char>(out[0]))) << out;
  }
}

}  // namespace
}  // namespace uctr::nlgen
