#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "obs/metrics.h"
#include "program/library.h"
#include "program/program.h"
#include "program/sampler.h"
#include "program/template.h"
#include "program/templatizer.h"
#include "tests/test_util.h"

namespace uctr {
namespace {

using testing::MakeFinanceTable;
using testing::MakeNationsTable;

// --------------------------------------------------------------- Program

TEST(ProgramTest, DispatchesByType) {
  Table t = MakeNationsTable();
  Program sql{ProgramType::kSql, "SELECT nation FROM w WHERE gold = 10"};
  EXPECT_EQ(sql.Execute(t)->scalar().ToDisplayString(), "united states");

  Program lf{ProgramType::kLogicalForm,
             "eq { max { all_rows ; gold } ; 10 }"};
  EXPECT_TRUE(lf.Execute(t)->scalar().boolean());

  Program ar{ProgramType::kArithmetic, "add(1, 2)"};
  EXPECT_DOUBLE_EQ(ar.Execute(t)->scalar().number(), 3.0);
}

TEST(ProgramTest, ValidateChecksSyntaxOnly) {
  Program good{ProgramType::kSql, "SELECT no_such_col FROM w"};
  EXPECT_TRUE(ParseProgram(good).ok());  // parses; execution would fail
  Program bad{ProgramType::kSql, "SELEC nation FROM w"};
  EXPECT_FALSE(ParseProgram(bad).ok());
}

// -------------------------------------------------------------- Template

TEST(TemplateTest, ParsesPlaceholders) {
  auto t = ProgramTemplate::Make(
               ProgramType::kSql,
               "SELECT [{c1}] FROM w WHERE [{c2:num}] > '{v1@c2}'", "span")
               .ValueOrDie();
  ASSERT_EQ(t.placeholders.size(), 3u);
  EXPECT_EQ(t.placeholders[0].kind, Placeholder::Kind::kColumn);
  EXPECT_FALSE(t.placeholders[0].has_type_constraint);
  EXPECT_TRUE(t.placeholders[1].has_type_constraint);
  EXPECT_EQ(t.placeholders[1].column_type, ColumnType::kNumber);
  EXPECT_EQ(t.placeholders[2].kind, Placeholder::Kind::kValue);
  EXPECT_EQ(t.placeholders[2].column_id, "c2");
}

TEST(TemplateTest, LogicBracesAreNotPlaceholders) {
  auto t = ProgramTemplate::Make(
               ProgramType::kLogicalForm,
               "eq { hop { filter_eq { all_rows ; {c1} ; {v1@c1} } ; {c2} } "
               "; {derive} }",
               "unique", "c2")
               .ValueOrDie();
  // Exactly c1, v1, c2, derive.
  ASSERT_EQ(t.placeholders.size(), 4u);
  EXPECT_TRUE(t.HasDerive());
}

TEST(TemplateTest, FillSubstitutesEverySlot) {
  auto t = ProgramTemplate::Make(ProgramType::kSql,
                                 "SELECT [{c1}] FROM w WHERE [{c2}] = "
                                 "'{v1@c2}'")
               .ValueOrDie();
  auto filled = t.Fill({{"c1", "nation"}, {"c2", "gold"}, {"v1", "10"}})
                    .ValueOrDie();
  EXPECT_EQ(filled, "SELECT [nation] FROM w WHERE [gold] = '10'");
  EXPECT_FALSE(t.Fill(std::map<std::string, std::string>{{"c1", "nation"}})
                   .ok());  // missing bindings
}

TEST(TemplateTest, RejectsUnknownValueColumn) {
  EXPECT_FALSE(ProgramTemplate::Make(ProgramType::kSql,
                                     "SELECT [{c1}] FROM w WHERE x = "
                                     "'{v1@c9}'")
                   .ok());
}

TEST(TemplateTest, DeduplicateDropsRepeats) {
  auto a = ProgramTemplate::Make(ProgramType::kSql, "SELECT [{c1}] FROM w")
               .ValueOrDie();
  auto dedup = DeduplicateTemplates({a, a, a});
  EXPECT_EQ(dedup.size(), 1u);
}

// Fill substitutes in one pass: a bound text that spells a placeholder is
// written as is, never read as that placeholder.
TEST(TemplateTest, FillNeverRescansBoundText) {
  auto t = ProgramTemplate::Make(
               ProgramType::kSql,
               "SELECT [{c1}] FROM w WHERE [{c2}] = '{v1@c2}'")
               .ValueOrDie();
  std::map<std::string, std::string> bindings = {
      {"c1", "{c2}"}, {"c2", "team"}, {"v1", "{v1@c2}"}};
  EXPECT_EQ(t.Fill(bindings).ValueOrDie(),
            "SELECT [{c2}] FROM w WHERE [team] = '{v1@c2}'");
}

// --------------------------------------------------------------- Library

TEST(LibraryTest, BuiltinTemplatesAreWellFormed) {
  TemplateLibrary lib = TemplateLibrary::Builtin();
  EXPECT_GE(lib.size(), 50u);
  EXPECT_GE(lib.OfType(ProgramType::kSql).size(), 15u);
  EXPECT_GE(lib.OfType(ProgramType::kLogicalForm).size(), 20u);
  EXPECT_GE(lib.OfType(ProgramType::kArithmetic).size(), 12u);
}

TEST(LibraryTest, CoversPaperReasoningTypes) {
  TemplateLibrary lib = TemplateLibrary::Builtin();
  for (const char* tag :
       {"count", "superlative", "comparative", "aggregation", "majority",
        "unique", "ordinal", "arithmetic", "span", "conjunction"}) {
    EXPECT_TRUE(std::any_of(lib.forms().begin(), lib.forms().end(),
                            [tag](const TemplateForm& form) {
                              return form.tmpl().reasoning_type == tag;
                            }))
        << tag;
  }
}

// --------------------------------------------------------------- Sampler

TEST(SamplerTest, SqlSamplingProducesExecutablePrograms) {
  Table t = MakeNationsTable();
  Rng rng(42);
  ProgramSampler sampler(&rng);
  TemplateLibrary lib = TemplateLibrary::Builtin();
  int successes = 0;
  for (const auto& tmpl : lib.OfType(ProgramType::kSql)) {
    for (int trial = 0; trial < 10; ++trial) {
      auto s = sampler.Sample(tmpl, t);
      if (s.ok()) {
        ++successes;
        EXPECT_FALSE(s->result.values.empty());
        EXPECT_TRUE(ParseProgram(s->program).ok()) << s->program.text;
      }
    }
  }
  EXPECT_GT(successes, 50);  // most random fills execute
}

TEST(SamplerTest, ArithSamplingOnFinanceTable) {
  Table t = MakeFinanceTable();
  Rng rng(7);
  ProgramSampler sampler(&rng);
  TemplateLibrary lib = TemplateLibrary::Builtin();
  int successes = 0;
  for (const auto& tmpl : lib.OfType(ProgramType::kArithmetic)) {
    for (int trial = 0; trial < 10; ++trial) {
      if (auto s = sampler.Sample(tmpl, t); s.ok()) {
        ++successes;
        EXPECT_TRUE(s->result.scalar().is_number() ||
                    s->result.scalar().is_bool());
      }
    }
  }
  EXPECT_GT(successes, 40);
}

TEST(SamplerTest, ClaimSamplingDerivesTrueClaims) {
  Table t = MakeNationsTable();
  Rng rng(11);
  ProgramSampler sampler(&rng);
  auto tmpl = ProgramTemplate::Make(
                  ProgramType::kLogicalForm,
                  "eq { hop { filter_eq { all_rows ; {c1:text} ; {v1@c1} } ; "
                  "{c2} } ; {derive} }",
                  "unique", "c2")
                  .ValueOrDie();
  TemplateForm form = TemplateForm::Make(tmpl).ValueOrDie();
  int trues = 0, total = 0;
  for (int i = 0; i < 30; ++i) {
    auto s = sampler.SampleClaim(form, t, /*target_true=*/true);
    if (!s.ok()) continue;
    ++total;
    if (s->result.scalar().boolean()) ++trues;
  }
  ASSERT_GT(total, 20);
  EXPECT_EQ(trues, total);  // derived claims are always supported
}

TEST(SamplerTest, ClaimSamplingCorruptsToFalse) {
  Table t = MakeNationsTable();
  Rng rng(13);
  ProgramSampler sampler(&rng);
  auto tmpl = ProgramTemplate::Make(
                  ProgramType::kLogicalForm,
                  "eq { count { filter_eq { all_rows ; {c1} ; {v1@c1} } } ; "
                  "{derive} }",
                  "count")
                  .ValueOrDie();
  TemplateForm form = TemplateForm::Make(tmpl).ValueOrDie();
  int falses = 0, total = 0;
  for (int i = 0; i < 30; ++i) {
    auto s = sampler.SampleClaim(form, t, /*target_true=*/false);
    if (!s.ok()) continue;
    ++total;
    if (!s->result.scalar().boolean()) ++falses;
  }
  ASSERT_GT(total, 20);
  EXPECT_EQ(falses, total);  // numeric corruption always flips counts
}

TEST(SamplerTest, StringDeriveCorruptionUsesDistractors) {
  Table t = MakeNationsTable();
  Rng rng(17);
  ProgramSampler sampler(&rng);
  auto tmpl = ProgramTemplate::Make(
                  ProgramType::kLogicalForm,
                  "eq { hop { argmax { all_rows ; {c1:num} } ; {c2:text} } ; "
                  "{derive} }",
                  "superlative", "c2")
                  .ValueOrDie();
  TemplateForm form = TemplateForm::Make(tmpl).ValueOrDie();
  int falses = 0, total = 0;
  for (int i = 0; i < 30; ++i) {
    auto s = sampler.SampleClaim(form, t, /*target_true=*/false);
    if (!s.ok()) continue;
    ++total;
    if (!s->result.scalar().boolean()) ++falses;
  }
  ASSERT_GT(total, 20);
  EXPECT_EQ(falses, total);
}

TEST(SamplerTest, RespectsTypeConstraints) {
  Table t = MakeNationsTable();
  Rng rng(19);
  ProgramSampler sampler(&rng);
  auto tmpl = ProgramTemplate::Make(ProgramType::kSql,
                                    "SELECT SUM([{c1:num}]) FROM w")
                  .ValueOrDie();
  TemplateForm form = TemplateForm::Make(tmpl).ValueOrDie();
  for (int i = 0; i < 20; ++i) {
    auto s = sampler.Sample(form, t);
    ASSERT_TRUE(s.ok());
    // Bound column must be one of the numeric ones.
    EXPECT_NE(s->texts[0], "nation");
  }
}

// The sampler lowers one plan per (template, column positions), and a
// {derive} claim one more for its sibling: other rows and values at the
// same columns reuse them.
TEST(SamplerTest, CompilesOncePerTemplateAndColumns) {
  Table t = Table::FromCsv("nation,gold\nchina,8\njapan,5\nfrance,2\n")
                .ValueOrDie();
  TemplateForm lookup =
      TemplateForm::Make(ProgramTemplate::Make(
                             ProgramType::kSql,
                             "SELECT [{c1}] FROM w WHERE [{c2}] = '{v1@c2}'")
                             .ValueOrDie())
          .ValueOrDie();
  TemplateForm count =
      TemplateForm::Make(
          ProgramTemplate::Make(ProgramType::kLogicalForm,
                                "eq { count { filter_eq { all_rows ; {c1} ; "
                                "{v1@c1} } } ; {derive} }")
              .ValueOrDie())
          .ValueOrDie();
  const obs::Counter* compiles =
      obs::DefaultRegistry().counter("plan_compiles_total");
  const uint64_t before = compiles->value();
  Rng rng(5);
  ProgramSampler sampler(&rng);
  size_t sampled = 0;
  for (int i = 0; i < 40; ++i) {
    sampled += sampler.Sample(lookup, t).ok();
    sampled += sampler.SampleClaim(count, t, i % 2 == 0).ok();
  }
  EXPECT_GT(sampled, 60u);
  // Two column orders for the lookup; two columns for the claim, each
  // with its sibling's plan.
  EXPECT_LE(compiles->value() - before, 6u);
}

TEST(SamplerTest, FailsOnEmptyTable) {
  auto empty = Table::FromCsv("a,b\n").ValueOrDie();
  Rng rng(1);
  ProgramSampler sampler(&rng);
  auto tmpl = ProgramTemplate::Make(ProgramType::kSql,
                                    "SELECT [{c1}] FROM w")
                  .ValueOrDie();
  EXPECT_FALSE(
      sampler.Sample(TemplateForm::Make(tmpl).ValueOrDie(), empty).ok());
}

// ----------------------------------------------------------- Templatizer

TEST(TemplatizerTest, AbstractsSqlToTemplate) {
  Table t = MakeNationsTable();
  auto tmpl = AbstractSql(
                  "SELECT nation FROM w WHERE gold = '10' ORDER BY silver "
                  "DESC LIMIT 1",
                  t)
                  .ValueOrDie();
  EXPECT_EQ(tmpl.type, ProgramType::kSql);
  EXPECT_NE(tmpl.pattern.find("{c1"), std::string::npos);
  EXPECT_NE(tmpl.pattern.find("{v1@"), std::string::npos);
  EXPECT_EQ(tmpl.reasoning_type, "superlative");
  // The abstracted template re-instantiates on the same table.
  Rng rng(3);
  ProgramSampler sampler(&rng);
  TemplateForm form = TemplateForm::Make(tmpl).ValueOrDie();
  bool any = false;
  for (int i = 0; i < 20 && !any; ++i) any = sampler.Sample(form, t).ok();
  EXPECT_TRUE(any);
}

TEST(TemplatizerTest, AbstractsLogicalFormWithDerive) {
  Table t = MakeNationsTable();
  auto tmpl = AbstractLogicalForm(
                  "eq { count { filter_eq { all_rows ; nation ; china } } ; "
                  "1 }",
                  t)
                  .ValueOrDie();
  EXPECT_TRUE(tmpl.HasDerive());
  EXPECT_EQ(tmpl.reasoning_type, "count");
  EXPECT_NE(tmpl.pattern.find("{v1@c1}"), std::string::npos);
}

TEST(TemplatizerTest, AbstractsArithmetic) {
  Table t = MakeFinanceTable();
  auto tmpl = AbstractArithmetic(
                  "subtract(2019 of revenue, 2018 of revenue), "
                  "divide(#0, 2018 of revenue)",
                  t)
                  .ValueOrDie();
  EXPECT_EQ(tmpl.type, ProgramType::kArithmetic);
  EXPECT_NE(tmpl.pattern.find("{c1:num} of {r1}"), std::string::npos);
  EXPECT_NE(tmpl.pattern.find("#0"), std::string::npos);
}

TEST(TemplatizerTest, CollectDeduplicates) {
  Table t = MakeNationsTable();
  Program p1{ProgramType::kSql, "SELECT nation FROM w WHERE gold = '10'"};
  Program p2{ProgramType::kSql, "SELECT nation FROM w WHERE silver = '3'"};
  auto templates = CollectTemplates({{p1, &t}, {p2, &t}});
  // Both abstract to the same pattern.
  EXPECT_EQ(templates.size(), 1u);
}

TEST(TemplatizerTest, SampledPlaceholdersTypeTagged) {
  Table t = MakeNationsTable();
  auto tmpl =
      AbstractSql("SELECT SUM(gold) FROM w", t).ValueOrDie();
  ASSERT_EQ(tmpl.placeholders.size(), 1u);
  EXPECT_TRUE(tmpl.placeholders[0].has_type_constraint);
  EXPECT_EQ(tmpl.placeholders[0].column_type, ColumnType::kNumber);
}

}  // namespace
}  // namespace uctr
