// Differential tests of the unified IR / bytecode VM — the only runtime
// execution path — against the scan-based family tree-walk executors:
// every parsed program must run byte-identically on both — same values,
// same evidence rows, same error Status — for every built-in template
// over randomized tables and for each walker error shape. Also covers the
// bytecode verifier's rejection cases, plan cache keying/invalidation,
// and the concurrent first-compile race.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "arith/executor.h"
#include "common/hash.h"
#include "ir/ir.h"
#include "ir/plan_cache.h"
#include "logic/executor.h"
#include "obs/metrics.h"
#include "program/library.h"
#include "program/sampler.h"
#include "program/template_form.h"
#include "sql/executor.h"
#include "store/codec.h"
#include "tests/test_util.h"

namespace uctr {
namespace {

// The reference: parse, then the family tree-walker's row scan.
Result<ExecResult> Walk(const Program& program, const Table& table) {
  switch (program.type) {
    case ProgramType::kSql:
      return sql::ExecuteQuery(program.text, table);
    case ProgramType::kLogicalForm:
      return logic::ExecuteLogicalForm(program.text, table);
    case ProgramType::kArithmetic:
      return arith::ExecuteExpression(program.text, table);
  }
  return Status::Internal("unknown program type");
}

// Asserts observable identity of two outcomes: success/failure, error
// code + message, value types and display strings, and evidence rows.
void ExpectSameOutcome(const std::string& text, const Result<ExecResult>& got,
                       const Result<ExecResult>& want) {
  ASSERT_EQ(got.ok(), want.ok())
      << text << "\n  vm:   "
      << (got.ok() ? "ok" : got.status().ToString()) << "\n  walk: "
      << (want.ok() ? "ok" : want.status().ToString());
  if (!got.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << text;
    EXPECT_EQ(got.status().message(), want.status().message()) << text;
    return;
  }
  const ExecResult& a = got.ValueOrDie();
  const ExecResult& b = want.ValueOrDie();
  ASSERT_EQ(a.values.size(), b.values.size()) << text;
  for (size_t i = 0; i < a.values.size(); ++i) {
    EXPECT_EQ(a.values[i].type(), b.values[i].type()) << text;
    EXPECT_EQ(a.values[i].ToDisplayString(), b.values[i].ToDisplayString())
        << text;
    // NaN equals nothing, itself included: compare its bits instead.
    bool both_nan = a.values[i].is_number() && b.values[i].is_number() &&
                    std::isnan(a.values[i].number()) &&
                    std::isnan(b.values[i].number());
    if (both_nan) {
      EXPECT_EQ(std::bit_cast<uint64_t>(a.values[i].number()),
                std::bit_cast<uint64_t>(b.values[i].number()))
          << text;
    } else {
      EXPECT_TRUE(a.values[i].Equals(b.values[i])) << text;
    }
  }
  EXPECT_EQ(a.evidence_rows, b.evidence_rows) << text;
}

// The runtime path (Program::Execute: plan cache, then the VM over the
// table index) must match the scan walker.
void ExpectIdentical(const Program& program, const Table& table,
                     ir::PlanCache* cache) {
  ExecOptions opts;
  opts.plan_cache = cache;
  ExpectSameOutcome(program.text, program.Execute(table, opts),
                    Walk(program, table));
}

// The raw compile + ExecutePlan path (no cache, no Program orchestration)
// must also match the walker: every parsed program compiles to a plan
// that verifies, and a program that fails to compile fails to parse, with
// the walker's own ParseError.
void ExpectDirectVmIdentical(const Program& program, const Table& table) {
  auto plan = ir::Compile(FamilyOf(program.type), program.text,
                          table.schema());
  if (!plan.ok()) {
    EXPECT_EQ(plan.status().code(), StatusCode::kParseError) << program.text;
    ExpectSameOutcome(program.text, plan.status(), Walk(program, table));
    return;
  }
  ASSERT_TRUE(ir::VerifyPlan(plan.ValueOrDie()).ok()) << program.text;
  ExpectSameOutcome(program.text, ir::ExecutePlan(plan.ValueOrDie(), table),
                    Walk(program, table));
}

// The template route — a TemplateForm's plan for the bound columns, run
// with the bound texts as slot values — must match the scan walker over
// the skeleton with those texts in its fields, and, where no text holds
// program syntax, the walker over the filled program text too.
void ExpectTemplateIdentical(const TemplateForm& form,
                             const SampledProgram& sampled,
                             const Table& table, ir::PlanCache* cache) {
  std::vector<std::string_view> texts(sampled.texts.begin(),
                                      sampled.texts.end());
  bool syntax = false;
  for (std::string_view text : texts) {
    syntax = syntax || uctr::testing::HasProgramSyntax(form.tmpl().type, text);
  }
  Result<ExecResult> got = form.Run(table, texts, *cache);
  ExpectSameOutcome(sampled.program.text, got, form.Walk(table, texts));
  if (!syntax) {
    ExpectSameOutcome(sampled.program.text, got,
                      Walk(sampled.program, table));
  }
}

// One instantiation of `form`: a claim when it has a {derive} slot.
Result<SampledProgram> SampleOnce(ProgramSampler* sampler,
                                  const TemplateForm& form, const Table& table,
                                  bool support) {
  return form.tmpl().HasDerive() ? sampler->SampleClaim(form, table, support)
                                 : sampler->Sample(form, table);
}

// Every built-in template, instantiated repeatedly on randomized tables,
// must execute identically on the VM and the scan walker. This sweeps the
// whole template library through the compiler.
class IrDifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  Rng rng_{GetParam()};
};

// Samples every built-in template once on `table` and checks each program
// on both runtime entry points; returns how many programs executed.
size_t SweepLibrary(const Table& table, bool support, ProgramSampler* sampler,
                    ir::PlanCache* cache) {
  static const TemplateLibrary library = TemplateLibrary::Builtin();
  size_t executed = 0;
  for (const TemplateForm& form : library.forms()) {
    Result<SampledProgram> sampled = SampleOnce(sampler, form, table, support);
    if (!sampled.ok()) continue;  // Binding failed on this table; skip.
    const Program& program = sampled.ValueOrDie().program;
    ExpectIdentical(program, table, cache);
    ExpectDirectVmIdentical(program, table);
    ExpectTemplateIdentical(form, sampled.ValueOrDie(), table, cache);
    ++executed;
  }
  return executed;
}

TEST_P(IrDifferentialTest, AllBuiltinTemplatesMatchTreeWalk) {
  ir::PlanCache cache(256, 4);
  ProgramSampler sampler(&rng_);
  size_t executed = 0;
  for (int round = 0; round < 3; ++round) {
    Table table = uctr::testing::RandomTable(&rng_);
    executed += SweepLibrary(table, round % 2 == 0, &sampler, &cache);
  }
  // The library must not silently stop sampling (e.g. every binding
  // failing): differential coverage requires real executions.
  EXPECT_GT(executed, 20u);
}

// The same sweep on tables whose evidence crosses 64-row words: one row
// short of a word, exactly one, one past, two words and a row, and the
// 1000 rows of a registered serving table.
TEST_P(IrDifferentialTest, AllBuiltinTemplatesMatchTreeWalkOnTallTables) {
  ir::PlanCache cache(256, 4);
  ProgramSampler sampler(&rng_);
  size_t executed = 0;
  bool support = true;
  for (size_t rows : {63, 64, 65, 129, 1000}) {
    Table table = uctr::testing::RandomTable(&rng_, rows);
    executed += SweepLibrary(table, support, &sampler, &cache);
    support = !support;
  }
  EXPECT_GT(executed, 20u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IrDifferentialTest,
                         ::testing::Values(1, 7, 42, 1234, 99991));

// The template route over the golden corpus: adversarial cells (nulls,
// nan and inf, currency and percent text, yes/no), the finance table's
// quoted and " of " names, and 1000 rows.
TEST(IrTemplatePlanTest, GoldenTablesMatchTreeWalk) {
  static const TemplateLibrary library = TemplateLibrary::Builtin();
  Rng table_rng(17);
  const auto tables = uctr::testing::GoldenTables(&table_rng);
  ir::PlanCache cache(256, 4);
  size_t executed = 0;
  for (size_t i = 0; i < tables.size(); ++i) {
    const Table& table = tables[i].second;
    for (size_t t = 0; t < library.forms().size(); ++t) {
      Rng rng((31ull << 32) | (i << 16) | t);
      ProgramSampler sampler(&rng);
      const TemplateForm& form = library.forms()[t];
      Result<SampledProgram> sampled =
          SampleOnce(&sampler, form, table, t % 2 == 0);
      if (!sampled.ok()) continue;
      ExpectTemplateIdentical(form, sampled.ValueOrDie(), table, &cache);
      ++executed;
    }
  }
  EXPECT_GT(executed, 500u);
}

// A template plan is keyed by the template and the column positions its
// slots resolve to: other literals, other rows and other column names at
// the same positions reuse it.
TEST(IrTemplatePlanTest, PlansAreSharedAcrossBindingsAtOnePosition) {
  auto tmpl = ProgramTemplate::Make(
                  ProgramType::kLogicalForm,
                  "eq { hop { filter_eq { all_rows ; {c1} ; {v1@c1} } ; {c2} "
                  "} ; {derive} }")
                  .ValueOrDie();
  TemplateForm form = TemplateForm::Make(tmpl).ValueOrDie();
  obs::MetricsRegistry metrics;
  ir::PlanCache cache(16, 1, &metrics);
  Table nations = uctr::testing::MakeNationsTable();
  Table renamed = Table::FromCsv(
                      "country,medals,x,y,z\nnarnia,3,1,1,1\noz,4,1,1,1\n",
                      "renamed")
                      .ValueOrDie();
  std::vector<std::string_view> china = {"nation", "china", "gold", "8"};
  std::vector<std::string_view> japan = {"nation", "japan", "gold", "4"};
  std::vector<std::string_view> oz = {"country", "oz", "medals", "4"};
  EXPECT_TRUE(form.Run(nations, china, cache)->scalar().boolean());
  EXPECT_FALSE(form.Run(nations, japan, cache)->scalar().boolean());
  EXPECT_TRUE(form.Run(renamed, oz, cache)->scalar().boolean());
  EXPECT_EQ(metrics.counter("plan_compiles_total")->value(), 1u);
  EXPECT_EQ(metrics.counter("plan_cache_hits_total")->value(), 2u);
  // Other positions lower another plan.
  std::vector<std::string_view> by_gold = {"gold", "8", "nation", "china"};
  EXPECT_TRUE(form.Run(nations, by_gold, cache)->scalar().boolean());
  EXPECT_EQ(metrics.counter("plan_compiles_total")->value(), 2u);
}

// ---------------------------------------------------------- golden digests
// The scan walkers' outcomes over a fixed corpus, folded into one pinned
// digest: whatever form a table takes in memory, its cells must execute
// exactly as they did when they were rows of Values.

void Fold(uint64_t* digest, std::string_view field) {
  *digest = hash::Fnv1a64(field, *digest);
  *digest = hash::Fnv1a64(std::string_view("\0", 1), *digest);
}

// One hash per sampled program: its template, table, text, and the
// walker's status or values (type, number bits, text) and evidence rows.
// The walker runs over the template's tree with the bound texts in it
// (TemplateForm::Walk): the text is only a rendering, and a value with
// program syntax does not parse back out of it.
// Each (table, template) case samples from its own Rng, seeded from 17,
// the table's position and the template index: the sampler executes
// programs to derive claims, so with one shared stream a single changed
// outcome would shift the sample of every later case.
std::vector<uint64_t> GoldenCaseHashes(std::vector<std::string>* labels) {
  static const TemplateLibrary library = TemplateLibrary::Builtin();
  Rng table_rng(17);
  const std::vector<std::pair<std::string, Table>> tables =
      uctr::testing::GoldenTables(&table_rng);
  std::vector<uint64_t> hashes;
  bool support = true;
  for (size_t i = 0; i < tables.size(); ++i) {
    const auto& [name, table] = tables[i];
    for (size_t t = 0; t < library.forms().size(); ++t) {
      Rng rng((17ull << 32) | (i << 16) | t);
      ProgramSampler sampler(&rng);
      const TemplateForm& form = library.forms()[t];
      Result<SampledProgram> sampled =
          SampleOnce(&sampler, form, table, support);
      if (!sampled.ok()) continue;
      const Program& program = sampled.ValueOrDie().program;
      std::vector<std::string_view> texts(sampled->texts.begin(),
                                          sampled->texts.end());
      Result<ExecResult> outcome = form.Walk(table, texts);
      uint64_t h = hash::kFnv64Basis;
      Fold(&h, std::to_string(t));
      Fold(&h, name);
      Fold(&h, program.text);
      Fold(&h, std::to_string(static_cast<int>(outcome.status().code())));
      Fold(&h, outcome.status().message());
      if (outcome.ok()) {
        for (const Value& v : outcome->values) {
          Fold(&h, ValueTypeToString(v.type()));
          Fold(&h, std::to_string(std::bit_cast<uint64_t>(v.number())));
          Fold(&h, v.text());
        }
        for (size_t r : outcome->evidence_rows) Fold(&h, std::to_string(r));
      }
      hashes.push_back(h);
      labels->push_back(name + " template " + std::to_string(t) + ": " +
                        program.text);
    }
    support = !support;
  }
  return hashes;
}

// The low 16 bits of every case hash, in corpus order, so a digest
// mismatch names the first case that changed. Binding values as their own
// text changed two cases, #58 and #74 (finance templates 0 and 17): the
// SQL literal stockholders' equity renders with its quote as is, no
// longer doubled; their outcomes did not move.
constexpr std::string_view kGoldenCaseTags =
    "0629b1e0fff0e4b15de9ce3187a6e9a9f056b19098065ea5f8a14d759d45f7e0"
    "d5b25b971b8d6659535bd20e63fc3518b78f8d0b412e528620bc0218b9de396d"
    "724e2fe5d130ffe9f5b6cfafa30b46ad1a22e9f626811f06008745f6dc7d8c59"
    "c7948c5d9f978c64dda6a95d31de29b17f76a1e8f3052f0d6fd46e849767d2a3"
    "619994a8b4d74170dd7ee19d5cf1027cb16a0ff2a456e0bda1bc1ef49f166f4d"
    "174f0d3ba310cb86c2a4a039b160869bcc721fd77015278b4743b7cfcc7370ff"
    "7c6bc1e951e31db670faa6b56c9506834fd61e481d371ab9c36019de256a13bc"
    "bf9a41da144233b853ce080b09d58873ae505d6de792a0a6148127e4f354745e"
    "5b9d56992156f387b73ac880f145a2b9bd78f1de12e8f0838f04fca6b198e8e5"
    "bfbefdb907d72101a039bd561cdba4d1beadee580c9d85a646360c0f2fbc1d5f"
    "9dd7be13223124fbb610fb5c0bc382ce63699f54b58ce06c601877da0da5264d"
    "7560da354a4a0c14095d617455adfab743118c6e8b09dd7e986cc4f495b6c922"
    "4684bbeb98d1e40db422b7943ffb35c6ddfbc7dfdc74470c83467c6b003a7052"
    "10ec2360274e9f3c4360b5b591c134bb53497356e86396cb2ea6cfb8aca79040"
    "845cdad3972c47c8b8665f26762c564ab25c65841678a6916d44de83216c17f0"
    "d08d2552a3dc7b258d213149f16c613ba12d30e9bee2e2e6a45f3c8d48b10f9c"
    "0e9e67daa247c575cbfac6a4c85586a15f5c738b6de5dc4c7a4c95f6e2dba42d"
    "e7d6c6112080a5ee855661f5e4d3a576faddbb694883e91de6c2fbb736c87982"
    "28420d5c16da44855c1c5fc64cb896fda3cad6a7973df239a565942c6d31256e"
    "1a160ec5b3a00850e4904dbb64b92e640ab9d812e720bbcaeef210eb7bbd2c0a"
    "bd9450bcbf13d691f33cd90d2c62f247571bbd63b9ab01f5e30d9000c30473cc"
    "2b69942cf55cbffad95d71f41145b394fbcdd111d1e300650225bc211a0f1a88"
    "1aaea9470ac3fb1ff9c60a472aa70cdf6e8161d34564d614b236ec9762994c71"
    "914a8a7be5d5a8b0d998230648e286c99ca8f3cd2bc57b4a5a299d655068b82a"
    "8acd5cca17db81dac0f4d768e91d29cca76490c2b60d5cd14ce2516266413723"
    "4596ece83f14e982e041951d0e59471bc2a48c3f15e451a420fa7deb3d2396f3"
    "80612b642537ec04bd8a0b5e4be9f3f70fa48834c7de75f126df4168736b5dec"
    "af20f8e2081d9c01daf3f59ad2604e2d0df9a47c0a1e60e1fd0386fbd675cc8d"
    "df0b97f55eab84422d742eb211dc0b5d2f245c9e15e926567184e43519871151"
    "0e8bee2a8c47ef897ce5f82fbb0732d5075e82d1ab4a0d17e1fcca4b5463d2fb"
    "651908068ca4fa8d86f67d0240b9b4c23739e100fea1071556966622d4daca84"
    "e11f62fc57280ace750c49cfa996b673c4681b257c32b8901c2664fcc2b9f927"
    "7ae25ad82d67516f0337a04e095e743cc1e4e8e549f026e1491594bdf7ed57e6"
    "9fe3f04ebf131b1700e31af5f414cade4d0a9d44b202d58fb45adc96f563bdc4"
    "a61d6c4841aa143a378ea6cb54a3c965e43aa276d34d0c05c2866ea9d8aec392"
    "3b49a66eb0daf27b19602d1f30cbae9c29879034a7c27888c71aaabb549ac5bd"
    "6e706320a74ff238b9a59de9602af0907b59140f28e609c417daf05dbb16b3bd"
    "b512f78c5c50011db30773ec49371f1d39da1b9dc2d4a1b82120259f63712571"
    "316c927251056fcccb94bd3ca5789c4247bbb62b945bc3932b050cda10dd71db"
    "8e148db28b68e12278c501c34761ca0725574d4d8e6dee4cdaca62d3c538b4f5"
    "c50e6caa7b74e9fa48b4ce4b7b28e2fa6e2791816220eef82861b974abd4bd0e"
    "4ae789d6e37b7de4120397ce8d8b35ac6db7273c2768c8f33311fa96fd844bf2"
    "87623ef498e6a02f1808d663ecc109231d25df8ac39e91d92770637a6a2269f0"
    "8529653e60f7ac0a22ca1552858011f5c4150c9b34204a222fcb967f2e66b4d9"
    "ad176b9c3f52c851835ffe812bc04370c306e2cb22587890d19e7a895eae83e8"
    "3d7f50193a9c7720df82d8d33f20c4488ce65dcd0e4c240abe782382cf70ff18"
    "3875e8d45b424e62383785ee6c202fc55ae2cf3f7c77b5d9877cd3279a587c5f"
    "1318f97b45767fbc559643d399ea226361c79a1674b9f469b0908e9a261ade86"
    "06bffc08cd0c733b1d567583b32d5688388c67c04bed3722a549c65526a8fdfc"
    "8db22d5b549f698845f10471ab6dc7be71285e6a221055843fa7f98d959f471b"
    "bb360de07c2bf15188a95060bacbe38976862089d53baad2b69bc80986a75ecd"
    "99b2a4be6de2f4bc5e6afc32ab2a499a2857255aa704d2f34d062d0f01676e50"
    "aaff6a009ec8bb2a00368be3a1d5d67d1582a959895556015b7606fd95e01e1b"
    "779f250445aa3ab1a996993cb4108f78250d8a29686ee89061ffb0f292e0e471"
    "cdc9d7c889ce82dab17cdec76eed0bd9942f1caa9de0e722468a3f209236a324"
    "da315f9cf08547e9e447d6bbeec9d847fb8d8bd2aed893b5b9b8e8d2678097da"
    "aed234d4b4ff77ed930cb5e0c7e2de58482c56d8773fc3893a09c8f6abafbf35"
    "f70572d6d0bc525f52e3fcc6c382af5bca3c647d6d67a87952063b0cbc2beb5f"
    "8084ca85b11e9b2b27d1a4a436cf56efb49388ba9299f0847f6b9ecfa7458895"
    "20f8742c016debaf29c6c5882f13977c3552fe3a80cbe29ad046c76a478b2dbe"
    "7a2842dd882aace4c69b5fbfed153120199e9d5d2debf6cd56a7036c5e4a52c1"
    "bf6f4ff299b21cf7d2c4656954fe3f6d39bfcf986019ed8da8af62a662ba9ad4"
    "c50f190755aa15fc71d0877654c536cdc7d5d2851a7d7fd885b13d6ee98026da"
    "c18e2a0fb7594eae91f58b57c705b09d8ff3563a15aef69679e1b1ffc8773a87"
    "fd4d4f773d583fa92e9f";

TEST(GoldenTest, WalkerExecutionDigestIsPinned) {
  std::vector<std::string> labels;
  std::vector<uint64_t> hashes = GoldenCaseHashes(&labels);
  ASSERT_GT(hashes.size(), 500u);
  uint64_t digest = hash::kFnv64Basis;
  std::string tags;
  for (uint64_t h : hashes) {
    Fold(&digest, std::to_string(h));
    char tag[5];
    std::snprintf(tag, sizeof(tag), "%04x", static_cast<unsigned>(h & 0xffff));
    tags += tag;
  }
  size_t same = 0;
  while (same < hashes.size() && 4 * same + 4 <= kGoldenCaseTags.size() &&
         tags.compare(4 * same, 4, kGoldenCaseTags.substr(4 * same, 4)) == 0) {
    ++same;
  }
  EXPECT_EQ(tags, kGoldenCaseTags)
      << "first differing case #" << same << ": "
      << (same < labels.size() ? labels[same] : "(past the end)");
  EXPECT_EQ(digest, 0xb026071ff35fd963ull);
}

// Each corpus table's CSV rendering and codec fingerprint. The -0 table's
// fingerprint is left out: its cell's sign is stored exactly.
TEST(GoldenTest, TableDigestIsPinned) {
  Rng rng(17);
  uint64_t digest = hash::kFnv64Basis;
  for (const auto& [name, table] : uctr::testing::GoldenTables(&rng)) {
    Fold(&digest, name);
    Fold(&digest, table.ToCsv());
    if (name == "negative-zero") continue;
    Fold(&digest, store::Codec::Fingerprint(store::Codec::Encode(
                      store::ColumnarTable::FromTable(table))));
  }
  EXPECT_EQ(digest, 0x3bae25892d6628d8ull);
}

// Fixed programs covering each family's edge cases, including ones whose
// *walker* fails: the VM must reproduce the exact error Status too, which
// for errors found without reading cells means a kFail at the walker's
// point of evaluation.
TEST(IrFixedProgramTest, SqlProgramsMatch) {
  Table t = uctr::testing::MakeNationsTable();
  ir::PlanCache cache(64, 1);
  for (const char* text : {
           "SELECT [nation] FROM w",
           "SELECT [nation] FROM w WHERE [gold] > '5'",
           "SELECT COUNT(*) FROM w WHERE [gold] > '5'",
           "SELECT MAX([total]) FROM w",
           "SELECT MIN([silver]) FROM w WHERE [bronze] < '9'",
           "SELECT SUM([gold]) FROM w",
           "SELECT AVG([total]) FROM w WHERE [gold] >= '5'",
           "SELECT [nation] FROM w ORDER BY [total] DESC LIMIT 1",
           "SELECT [nation], [gold] FROM w ORDER BY [gold] ASC",
           "SELECT COUNT(DISTINCT [gold]) FROM w",
           // No matching rows: walker returns an empty-result error.
           "SELECT [nation] FROM w WHERE [gold] > '99'",
           // Unknown column: both paths must fail identically.
           "SELECT [unobtainium] FROM w",
           // Plain column after an aggregate, and before one.
           "SELECT COUNT(*), [nation] FROM w",
           "SELECT [nation], COUNT(*) FROM w",
           // An aggregate's TypeError comes before the mixing error.
           "SELECT SUM([nation]), [gold] FROM w",
           // A WHERE column resolves only once a row reaches it: no row
           // has gold 99, so [bogus] is never resolved and COUNT is 0.
           "SELECT COUNT(*) FROM w WHERE [gold] = '99' AND [bogus] = '1'",
           "SELECT [nation] FROM w WHERE [gold] > '5' AND [bogus] = '1'",
           "SELECT [nation] FROM w WHERE [gold] = '99' AND [bogus] = '1'",
           // ORDER BY resolves its column even over no rows.
           "SELECT [nation] FROM w WHERE [gold] = '99' ORDER BY [bogus]",
           // A projection column resolves per row, item by item: row 0's
           // earlier items run (and may fail) first.
           "SELECT [nation], [bogus] FROM w",
           "SELECT [gold] + [nation], [bogus] FROM w",
           "SELECT [gold] - [silver], [gold] + [bogus] FROM w",
           "SELECT [nation], [bogus] FROM w WHERE [gold] = '99'",
       }) {
    Program p{ProgramType::kSql, text};
    ExpectIdentical(p, t, &cache);
    ExpectDirectVmIdentical(p, t);
  }
}

TEST(IrFixedProgramTest, LogicProgramsMatch) {
  Table t = uctr::testing::MakeNationsTable();
  ir::PlanCache cache(64, 1);
  for (const char* text : {
           "eq { hop { filter_eq { all_rows ; nation ; china } ; gold } ; 8 }",
           "eq { count { filter_greater { all_rows ; gold ; 5 } } ; 2 }",
           "eq { hop { argmax { all_rows ; total } ; nation } ; "
           "united states }",
           "eq { hop { nth_argmin { all_rows ; gold ; 2 } ; nation } ; "
           "japan }",
           "round_eq { sum { all_rows ; gold } ; 30 }",
           "round_eq { avg { all_rows ; silver } ; 6.8 }",
           "greater { hop { filter_eq { all_rows ; nation ; china } ; gold } "
           "; hop { filter_eq { all_rows ; nation ; france } ; gold } }",
           "most_greater { all_rows ; total ; 10 }",
           "all_greater { all_rows ; total ; 10 }",
           "only { filter_eq { all_rows ; gold ; 10 } }",
           "and { eq { count { all_rows } ; 5 } ; most_eq { all_rows ; "
           "bronze ; 8 } }",
           "not { eq { count { all_rows } ; 4 } }",
           "max { all_rows ; total }",
           "filter_eq { all_rows ; nation ; japan }",
           // Empty view: hop / majority walker errors must be reproduced.
           "hop { filter_eq { all_rows ; nation ; atlantis } ; gold }",
           "most_eq { filter_eq { all_rows ; nation ; atlantis } ; gold ; "
           "1 }",
           // NaN / oversized ordinals: both paths must reject (the NaN
           // case used to read rows[-1] in the walker — found by fuzzing).
           "eq { hop { nth_argmax { all_rows ; gold ; nan } ; nation } ; "
           "china }",
           "eq { hop { nth_argmax { all_rows ; gold ; 1e300 } ; nation } ; "
           "china }",
           // diff over text cells: ToNumber failure surfaces identically.
           "eq { diff { hop { filter_eq { all_rows ; nation ; china } ; "
           "nation } ; 3 } ; 1 }",
           // Arity, operand kind, operator name and column errors.
           "hop { all_rows }",
           "count { 5 }",
           "eq { all_rows ; 5 }",
           "bogus_op { all_rows ; x }",
           "hop { all_rows ; count { all_rows } }",
           "filter_bogus { all_rows ; gold ; 1 }",
           "most_bogus { all_rows ; gold ; 1 }",
           "max { all_rows ; bogus }",
           "count { filter_eq { all_rows ; bogus ; 1 } }",
           // The walker's evaluation order reaches the empty hop first.
           "eq { hop { filter_eq { all_rows ; nation ; atlantis } ; gold } ; "
           "hop { all_rows } }",
       }) {
    Program p{ProgramType::kLogicalForm, text};
    ExpectIdentical(p, t, &cache);
    ExpectDirectVmIdentical(p, t);
  }
}

TEST(IrFixedProgramTest, ArithProgramsMatch) {
  Table t = uctr::testing::MakeFinanceTable();
  ir::PlanCache cache(64, 1);
  for (const char* text : {
           "subtract(1200.5, 1000)",
           "divide(subtract([2019 of revenue], [2018 of revenue]), "
           "[2018 of revenue])",
           "add([2019 of gross profit], [2018 of gross profit])",
           "table_max(2019)",
           "table_sum(2018)",
           "table_average(2019)",
           "greater([2019 of revenue], [2018 of revenue])",
           "exp(2, 10)",
           "divide(1, 0)",  // Division by zero: identical error.
           "[2019 of revenue]",
           // Unknown cell ref: identical error.
           "subtract([2019 of warp drive], 1)",
           // Non-numeric text operand, arity, and a runtime error that
           // comes before a later step's static one.
           "add(hello, 1)",
           "add(1, hello)",
           "divide(1, 0), add(hello, 1)",
           "add(1, 2, 3)",
           "table_max(2019, 2018)",
       }) {
    Program p{ProgramType::kArithmetic, text};
    ExpectIdentical(p, t, &cache);
    ExpectDirectVmIdentical(p, t);
  }

  // A column series over 130 rows, so its evidence spans three 64-row
  // words; every seventh cell is null and stays out of the evidence.
  std::vector<std::vector<std::string>> cells;
  for (int r = 0; r < 130; ++r) {
    cells.push_back({"item " + std::to_string(r),
                     r % 7 == 3 ? "n/a" : std::to_string(3 * r + 1)});
  }
  Table tall = Table::FromStrings({"item", "amount"}, cells).ValueOrDie();
  for (const char* text : {"table_sum(amount)", "table_average(amount)"}) {
    Program p{ProgramType::kArithmetic, text};
    ExpectIdentical(p, tall, &cache);
    ExpectDirectVmIdentical(p, tall);
    auto r = p.Execute(tall);
    ASSERT_TRUE(r.ok()) << text;
    EXPECT_EQ(r->evidence_rows.size(), 111u) << text;
  }
}

// The same plan (compiled once against the schema) must serve a table
// with identical shape but different cell contents — plans are
// value-independent.
TEST(IrPlanTest, PlanIsValueIndependent) {
  Table t1 = uctr::testing::MakeNationsTable();
  Table t2 = Table::FromCsv(
                 "nation,gold,silver,bronze,total\n"
                 "narnia,1,2,3,6\n"
                 "oz,4,5,6,15\n",
                 "medals2")
                 .ValueOrDie();
  ASSERT_EQ(t1.schema().Fingerprint(), t2.schema().Fingerprint());
  auto plan = ir::Compile(ir::Family::kSql, "SELECT SUM([gold]) FROM w",
                          t1.schema());
  ASSERT_TRUE(plan.ok());
  auto r1 = ir::ExecutePlan(plan.ValueOrDie(), t1);
  auto r2 = ir::ExecutePlan(plan.ValueOrDie(), t2);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.ValueOrDie().ToDisplayString(), "30");
  EXPECT_EQ(r2.ValueOrDie().ToDisplayString(), "5");
}

// The one rule for a plan fitting a table: every column it reads exists.
// A plan reading only leading columns runs on any table that has them.
TEST(IrPlanTest, PlanReadingAMissingColumnIsRejected) {
  Table nations = uctr::testing::MakeNationsTable();
  Table finance = uctr::testing::MakeFinanceTable();
  auto wide = ir::Compile(ir::Family::kSql, "SELECT SUM([total]) FROM w",
                          nations.schema());
  ASSERT_TRUE(wide.ok());
  EXPECT_EQ(wide->num_columns, 5u);
  auto r = ir::ExecutePlan(wide.ValueOrDie(), finance);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  auto narrow = ir::Compile(ir::Family::kSql, "SELECT COUNT(*) FROM w",
                            nations.schema());
  ASSERT_TRUE(narrow.ok());
  EXPECT_EQ(narrow->num_columns, 0u);
  auto n = ir::ExecutePlan(narrow.ValueOrDie(), finance);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n->ToDisplayString(), "4");
}

// Hand-built malformed plans: the verifier must reject each one (these
// can never come out of Compile; VerifyPlan is what stands between a
// hand-built plan and the VM).
TEST(IrVerifierTest, RejectsMalformedPlans) {
  // A minimal valid logic plan: count(all_rows) returned as a scalar.
  ir::Plan valid;
  valid.family = ir::Family::kLogic;
  valid.num_regs = 2;
  valid.num_columns = 5;
  valid.code = {
      {static_cast<uint16_t>(ir::Op::kAllRows), 0, 0, 0, 0, 0},
      {static_cast<uint16_t>(ir::Op::kCount), 1, 0, 0, 0, 0},
      {static_cast<uint16_t>(ir::Op::kReturnLogic), 0, 1, 0, 0, 0},
  };
  ASSERT_TRUE(ir::VerifyPlan(valid).ok());

  {  // Empty code.
    ir::Plan p = valid;
    p.code.clear();
    EXPECT_FALSE(ir::VerifyPlan(p).ok());
  }
  {  // Return is not the last instruction.
    ir::Plan p = valid;
    std::swap(p.code[1], p.code[2]);
    EXPECT_FALSE(ir::VerifyPlan(p).ok());
  }
  {  // Wrong-family return opcode.
    ir::Plan p = valid;
    p.code[2].op = static_cast<uint16_t>(ir::Op::kReturnSql);
    EXPECT_FALSE(ir::VerifyPlan(p).ok());
  }
  {  // Wrong-family body opcode (sql filter inside a logic plan).
    ir::Plan p = valid;
    p.code[1].op = static_cast<uint16_t>(ir::Op::kSqlFilter);
    EXPECT_FALSE(ir::VerifyPlan(p).ok());
  }
  {  // Register out of bounds.
    ir::Plan p = valid;
    p.code[1].a = 7;
    EXPECT_FALSE(ir::VerifyPlan(p).ok());
  }
  {  // Read of an uninitialized register.
    ir::Plan p = valid;
    p.code[1].a = 1;
    EXPECT_FALSE(ir::VerifyPlan(p).ok());
  }
  {  // Type confusion: counting a scalar register.
    ir::Plan p = valid;
    p.num_regs = 3;
    p.pool = {Value::Number(1)};
    p.code = {
        {static_cast<uint16_t>(ir::Op::kLoadConst), 0, 0, 0, 0, 0},
        {static_cast<uint16_t>(ir::Op::kCount), 1, 0, 0, 0, 0},
        {static_cast<uint16_t>(ir::Op::kReturnLogic), 0, 1, 0, 0, 0},
    };
    EXPECT_FALSE(ir::VerifyPlan(p).ok());
  }
  {  // Column index out of bounds.
    ir::Plan p = valid;
    p.num_regs = 3;
    p.code = {
        {static_cast<uint16_t>(ir::Op::kAllRows), 0, 0, 0, 0, 0},
        {static_cast<uint16_t>(ir::Op::kFilterAll), 1, 0, 0, 99, 0},
        {static_cast<uint16_t>(ir::Op::kCount), 2, 1, 0, 0, 0},
        {static_cast<uint16_t>(ir::Op::kReturnLogic), 0, 2, 0, 0, 0},
    };
    EXPECT_FALSE(ir::VerifyPlan(p).ok());
  }
  {  // Pool index out of bounds.
    ir::Plan p = valid;
    p.num_regs = 3;
    p.pool.clear();
    p.code = {
        {static_cast<uint16_t>(ir::Op::kLoadConst), 0, 0, 0, 3, 0},
        {static_cast<uint16_t>(ir::Op::kAllRows), 1, 0, 0, 0, 0},
        {static_cast<uint16_t>(ir::Op::kReturnLogic), 0, 1, 0, 1, 0},
    };
    EXPECT_FALSE(ir::VerifyPlan(p).ok());
  }
  {  // Packed comparison flag out of range.
    ir::Plan p = valid;
    p.num_regs = 4;
    p.pool = {Value::Number(1), Value::Number(2)};
    p.code = {
        {static_cast<uint16_t>(ir::Op::kLoadConst), 0, 0, 0, 0, 0},
        {static_cast<uint16_t>(ir::Op::kLoadConst), 1, 0, 0, 1, 0},
        {static_cast<uint16_t>(ir::Op::kBoolCmp), 2, 0, 1, 0, 9},
        {static_cast<uint16_t>(ir::Op::kReturnLogic), 0, 2, 0, 0, 0},
    };
    EXPECT_FALSE(ir::VerifyPlan(p).ok());
  }
  {  // Missing terminator entirely.
    ir::Plan p = valid;
    p.code.pop_back();
    EXPECT_FALSE(ir::VerifyPlan(p).ok());
  }
  const auto fail = static_cast<uint16_t>(ir::Op::kFail);
  const uint32_t not_found = static_cast<uint32_t>(StatusCode::kNotFound);
  const uint32_t when_rows = 1u << 8;
  // kFail carries a pooled message, a status code and, when conditional,
  // a row-view register: count(all_rows), failing first when the view is
  // non-empty.
  ir::Plan with_fail;
  with_fail.family = ir::Family::kLogic;
  with_fail.num_regs = 2;
  with_fail.num_columns = 5;
  with_fail.pool = {Value::String("no column named 'x'")};
  with_fail.code = {
      {static_cast<uint16_t>(ir::Op::kAllRows), 0, 0, 0, 0, 0},
      {fail, 0, 0, 0, 0, not_found | when_rows},
      {static_cast<uint16_t>(ir::Op::kCount), 1, 0, 0, 0, 0},
      {static_cast<uint16_t>(ir::Op::kReturnLogic), 0, 1, 0, 0, 0},
  };
  ASSERT_TRUE(ir::VerifyPlan(with_fail).ok());
  {  // An unconditional kFail ends a plan on its own.
    ir::Plan p = with_fail;
    p.code = {{fail, 0, 0, 0, 0, not_found}};
    EXPECT_TRUE(ir::VerifyPlan(p).ok());
  }
  {  // Message pool index out of range.
    ir::Plan p = with_fail;
    p.code[1].imm = 1;
    EXPECT_FALSE(ir::VerifyPlan(p).ok());
  }
  {  // Status code OK.
    ir::Plan p = with_fail;
    p.code[1].imm2 = static_cast<uint32_t>(StatusCode::kOk) | when_rows;
    EXPECT_FALSE(ir::VerifyPlan(p).ok());
  }
  {  // Status code out of range.
    ir::Plan p = with_fail;
    p.code[1].imm2 =
        (static_cast<uint32_t>(StatusCode::kDeadlineExceeded) + 1) |
        when_rows;
    EXPECT_FALSE(ir::VerifyPlan(p).ok());
  }
  {  // Unknown flag bits.
    ir::Plan p = with_fail;
    p.code[1].imm2 |= 1u << 9;
    EXPECT_FALSE(ir::VerifyPlan(p).ok());
  }
  {  // Condition register holds a scalar, not a row view.
    ir::Plan p = with_fail;
    p.code[1].a = 1;
    p.code.insert(p.code.begin() + 1,
                  {static_cast<uint16_t>(ir::Op::kLoadConst), 1, 0, 0, 0, 0});
    EXPECT_FALSE(ir::VerifyPlan(p).ok());
  }
  {  // Unconditional kFail before the end of the code.
    ir::Plan p = with_fail;
    p.code[1].imm2 = not_found;
    EXPECT_FALSE(ir::VerifyPlan(p).ok());
  }
}

TEST(PlanCacheTest, HitAndMiss) {
  obs::MetricsRegistry metrics;
  ir::PlanCache cache(8, 2, &metrics);
  auto plan = std::make_shared<const ir::Plan>();

  EXPECT_EQ(cache.Get(1, 2), nullptr);
  cache.Put(1, 2, plan);
  EXPECT_EQ(cache.Get(1, 2).get(), plan.get());
  // Same program, other schema: a distinct key.
  EXPECT_EQ(cache.Get(1, 3), nullptr);
  EXPECT_EQ(cache.size(), 1u);

  EXPECT_EQ(metrics.counter("plan_cache_hits_total")->value(), 1u);
  EXPECT_EQ(metrics.counter("plan_cache_misses_total")->value(), 2u);
}

TEST(PlanCacheTest, EvictsLeastRecentlyUsed) {
  obs::MetricsRegistry metrics;
  ir::PlanCache cache(2, 1, &metrics);
  auto plan = std::make_shared<const ir::Plan>();
  cache.Put(1, 1, plan);
  cache.Put(2, 2, plan);
  ASSERT_NE(cache.Get(1, 1), nullptr);  // 1 is now most recent.
  cache.Put(3, 3, plan);                // Evicts 2.
  EXPECT_NE(cache.Get(1, 1), nullptr);
  EXPECT_EQ(cache.Get(2, 2), nullptr);
  EXPECT_NE(cache.Get(3, 3), nullptr);
  EXPECT_EQ(metrics.counter("plan_cache_evictions_total")->value(), 1u);
}

// A schema change (renamed column) must change the fingerprint and force
// a recompile; a pure cell-content change must not.
TEST(PlanCacheTest, SchemaChangeInvalidates) {
  Table t1 = uctr::testing::MakeNationsTable();
  Table renamed = Table::FromCsv(
                      "country,gold,silver,bronze,total\n"
                      "united states,10,12,8,30\n",
                      "medals")
                      .ValueOrDie();
  Table same_shape = Table::FromCsv(
                         "nation,gold,silver,bronze,total\n"
                         "narnia,1,2,3,6\n",
                         "medals")
                         .ValueOrDie();
  uint64_t fp1 = t1.schema().Fingerprint();
  EXPECT_NE(fp1, renamed.schema().Fingerprint());
  EXPECT_EQ(fp1, same_shape.schema().Fingerprint());
  // Pinned: the plan-cache key values.
  EXPECT_EQ(fp1, 0xf6c479e011a3d2dcull);
  EXPECT_EQ(ir::ProgramFingerprint(ir::Family::kSql,
                                   "SELECT SUM([gold]) FROM w"),
            0xc0c1b35e89cfe758ull);

  obs::MetricsRegistry metrics;
  ir::PlanCache cache(16, 1, &metrics);
  Program p{ProgramType::kSql, "SELECT SUM([gold]) FROM w"};
  ExecOptions opts;
  opts.plan_cache = &cache;

  ASSERT_TRUE(p.Execute(t1, opts).ok());
  EXPECT_EQ(cache.size(), 1u);
  // Same schema, different cells: reuses the entry.
  ASSERT_TRUE(p.Execute(same_shape, opts).ok());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(metrics.counter("plan_compiles_total")->value(), 1u);
  // Renamed column: new schema fingerprint, new compile.
  ASSERT_TRUE(p.Execute(renamed, opts).ok());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(metrics.counter("plan_compiles_total")->value(), 2u);
}

TEST(PlanCacheTest, FailingProgramCachesItsFailPlan) {
  Table t = uctr::testing::MakeNationsTable();
  obs::MetricsRegistry metrics;
  ir::PlanCache cache(16, 1, &metrics);
  ExecOptions opts;
  opts.plan_cache = &cache;
  // Unknown column: the plan is a kFail carrying the walker's NotFound.
  Program p{ProgramType::kSql, "SELECT [unobtainium] FROM w"};
  auto r1 = p.Execute(t, opts);
  auto r2 = p.Execute(t, opts);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status(), r2.status());
  EXPECT_EQ(r1.status().code(), StatusCode::kNotFound);
  // One compile, then a hit on the cached kFail plan.
  EXPECT_EQ(metrics.counter("plan_compiles_total")->value(), 1u);
  EXPECT_EQ(metrics.counter("plan_cache_hits_total")->value(), 1u);
}

// Many threads race the first compile of the same programs through one
// shared cache. The race is benign by design (deterministic plans; the
// losing Put refreshes the entry) — this must be TSan-clean and every
// thread must observe walker-identical results.
TEST(PlanCacheTest, ConcurrentFirstCompileIsRaceFree) {
  Table table = uctr::testing::MakeNationsTable();
  const std::vector<Program> programs = {
      {ProgramType::kSql, "SELECT SUM([gold]) FROM w"},
      {ProgramType::kSql, "SELECT [nation] FROM w ORDER BY [total] DESC"},
      {ProgramType::kLogicalForm,
       "eq { hop { argmax { all_rows ; gold } ; nation } ; united states }"},
      {ProgramType::kLogicalForm, "most_greater { all_rows ; total ; 10 }"},
      {ProgramType::kArithmetic, "divide([2019 of x], 2)"},  // Fails at run.
  };
  // Walker-computed ground truth, single-threaded.
  std::vector<std::string> expected;
  for (const Program& p : programs) {
    auto r = Walk(p, table);
    expected.push_back(r.ok() ? r.ValueOrDie().ToDisplayString()
                              : r.status().ToString());
  }

  ir::PlanCache cache(64, 4);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      ExecOptions opts;
      opts.plan_cache = &cache;
      for (int iter = 0; iter < 50; ++iter) {
        for (size_t i = 0; i < programs.size(); ++i) {
          auto r = programs[i].Execute(table, opts);
          std::string got = r.ok() ? r.ValueOrDie().ToDisplayString()
                                   : r.status().ToString();
          if (got != expected[i]) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace uctr
