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
#include "sql/executor.h"
#include "store/codec.h"
#include "tests/test_util.h"

namespace uctr {
namespace {

ir::Family FamilyOf(ProgramType type) {
  switch (type) {
    case ProgramType::kSql:
      return ir::Family::kSql;
    case ProgramType::kLogicalForm:
      return ir::Family::kLogic;
    case ProgramType::kArithmetic:
      return ir::Family::kArith;
  }
  return ir::Family::kSql;
}

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
    EXPECT_TRUE(a.values[i].Equals(b.values[i])) << text;
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

bool HasDerive(const ProgramTemplate& tmpl) {
  for (const Placeholder& p : tmpl.placeholders) {
    if (p.kind == Placeholder::Kind::kDerive) return true;
  }
  return false;
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
  for (const ProgramTemplate& tmpl : library.templates()) {
    Result<SampledProgram> sampled =
        HasDerive(tmpl) ? sampler->SampleClaim(tmpl, table, support)
                        : sampler->Sample(tmpl, table);
    if (!sampled.ok()) continue;  // Binding failed on this table; skip.
    const Program& program = sampled.ValueOrDie().program;
    ExpectIdentical(program, table, cache);
    ExpectDirectVmIdentical(program, table);
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

// ---------------------------------------------------------- golden digests
// The scan walkers' outcomes over a fixed corpus, folded into one pinned
// digest: whatever form a table takes in memory, its cells must execute
// exactly as they did when they were rows of Values.

void Fold(uint64_t* digest, std::string_view field) {
  *digest = hash::Fnv1a64(field, *digest);
  *digest = hash::Fnv1a64(std::string_view("\0", 1), *digest);
}

// A table whose columns hold the cell shapes executors treat specially:
// nulls, a near-equal chain, nan and inf, text beside numbers, currency
// and percent surface text, and yes/no bools.
Table AdversarialTable(size_t rows) {
  std::vector<std::vector<std::string>> cells;
  for (size_t r = 0; r < rows; ++r) {
    const std::string n = std::to_string(r);
    cells.push_back({
        r == 3 ? "n/a" : "item " + n,
        r % 4 == 1 ? "$1,234.5" : "$" + std::to_string(100 * r + 5),
        std::to_string(r * 7 % 40) + "%",
        r % 9 == 4   ? "nan"
        : r % 9 == 6 ? "inf"
        : r % 9 == 7 ? "-inf"
                     : "1.00000" + std::to_string(r % 10),
        r % 5 == 2 ? "" : (r % 2 == 0 ? "yes" : "no"),
        r % 3 == 0 ? "unknown" : std::to_string(r * 11 % 17),
        r % 4 == 0 ? std::to_string(r) : "-",
    });
  }
  return Table::FromStrings(
             {"name", "amount", "share", "ratio", "flag", "mixed", "sparse"},
             cells, "adversarial")
      .ValueOrDie();
}

// The golden corpus: the fixtures, random tables of 3-10 rows and of 63,
// 64, 65, 129 and 1000 rows, two adversarial tables (one crossing a
// 64-row word) and, last, a table with one integer -0 cell.
std::vector<std::pair<std::string, Table>> GoldenTables(Rng* rng) {
  std::vector<std::pair<std::string, Table>> tables;
  tables.emplace_back("nations", uctr::testing::MakeNationsTable());
  tables.emplace_back("finance", uctr::testing::MakeFinanceTable());
  for (size_t rows : {3, 4, 5, 6, 7, 8, 9, 10, 63, 64, 65, 129, 1000}) {
    tables.emplace_back("random-" + std::to_string(rows),
                        uctr::testing::RandomTable(rng, rows));
  }
  tables.emplace_back("adversarial-9", AdversarialTable(9));
  tables.emplace_back("adversarial-70", AdversarialTable(70));
  tables.emplace_back(
      "negative-zero",
      Table::FromCsv("name,b,c\nx,-0,3\ny,5,-2\nz,7,4\n", "nz").ValueOrDie());
  return tables;
}

// One hash per sampled program: its template, table, text, and the
// walker's status or values (type, number bits, text) and evidence rows.
std::vector<uint64_t> GoldenCaseHashes(std::vector<std::string>* labels) {
  static const TemplateLibrary library = TemplateLibrary::Builtin();
  Rng rng(17);
  ProgramSampler sampler(&rng);
  std::vector<uint64_t> hashes;
  bool support = true;
  for (const auto& [name, table] : GoldenTables(&rng)) {
    for (size_t t = 0; t < library.templates().size(); ++t) {
      const ProgramTemplate& tmpl = library.templates()[t];
      Result<SampledProgram> sampled =
          HasDerive(tmpl) ? sampler.SampleClaim(tmpl, table, support)
                          : sampler.Sample(tmpl, table);
      if (!sampled.ok()) continue;
      const Program& program = sampled.ValueOrDie().program;
      Result<ExecResult> outcome = Walk(program, table);
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
// mismatch names the first case that changed.
constexpr std::string_view kGoldenCaseTags =
    "3b92fff09749ad936a28e6f0481966718e21980659bbe8a18c110f8cc7cad469"
    "43225a70214c6360e943d20e0b01466025e6d3fb978d1e1fb0530218a2ac084b"
    "6bb682c7e34eda1ef1e385a261ffad45e16c04b78fd16825b37e0fd019f6d833"
    "51d219e2a5b23f561cf5d76a561e7954db3188a5e4cb6303ca7c9754148d8aa7"
    "5824b4d7abd78760848fab19741bcf9615fad305f3c9aec146bf2aa159848922"
    "43ade7900f9589605c0ca12523f88ba8a4107022d21f4494b20a40f077933555"
    "c1e93101c4826e3929f2f3b2d451f5a7b7aa966af14be60ae9cbe56913bc6232"
    "db89078bae1d596fc04c5b20b194b7d1783c5f40b4f89237f354dc59fa6ec344"
    "df41bff2714bec0460048c1d6560ac64f96e229564c841618c4dc64df0082101"
    "2788cf549dfba00a118441b12048710a463685142a2b24b38d1e469fb97eab50"
    "4ffd84a56e50248051309f54fa2b3a54e7955e5cdca4a1eb0d01ececde4e0c14"
    "060b8f0b55adfab792e134783f50358e227fa0bb9357517c1594828de7f49afc"
    "b794339978d57f143ce6cc02a385b22bcfed0cd8297d1504749df20ed9101ade"
    "3321787b12231eac3d3f1fcc2ba4c5d18d989964f206c4e1bb1d3c5647c8e125"
    "d464762c05fbda063444015a6d7c6945048d216c17f0d08d3d137f0e983ebcc0"
    "bc2656c6a8bf919ae3810c1bd7579a6189b0bd51d81667da47f365f3016c31bb"
    "c85586a10a6d244f83ad55a00a9a6a46a5da97f6e7d614368ca8e5c34b08901d"
    "1d309222e46cbb6955cec876133e0bb9dc70ddd49a2e2d5067e1e9d094e6f8f5"
    "51ed4a52dd40f1a96c33f239456e942c08747b4e2e8200594321ea99822dce05"
    "c6efc7e1313be720158925c57ddb0aed11782a23415f4a3d9063b4bcdce9a09e"
    "4d596ccca0fb08a1e871e7a61bb55a384f8733bafff65b2732ebe4f5332a6172"
    "b394fbcdca21d1e3f6f51a3bfbd40b85394b08f2be4c4ff4f9c60a47e1800cdf"
    "4a1ff36041a136daa96e0ee721a1871f290a26a8fd352301d998229141224fac"
    "351b5fc22bc56a6e824f7b8965ddcbb9d561d34416da3bd546ae068ccc55bea7"
    "57566e455d62c6620859bcb1e675f4af7afc90693f14c01db6ef8eaade0171f7"
    "4018538d3baf51a4e20b7deb3d23dc11806113ad95eb2e72ff3ed7e191b7d41a"
    "d8684713e5f09ddcec0cbd4136c7dc0a57f384032516b75ca7aba4474759382f"
    "a7af67cf8989272e4cf8b415b16467d0f73e41c5c2d4e39c1ff4f9bb2b44d8f0"
    "f55474af35da1c68b2cbe435d033977256b074c377b92124cfd00cf0d21e88b5"
    "4b7fcb72755f75032a7a5b39a9dd89cc1230a19e4152f0a6a1cf4059cb4c81d8"
    "373941133f54b83d5670dd1f011b3b18b85514e2a748d0e77be19c7e94bca4fa"
    "8ad220999e5a6f3c4f3b0e66fd9004b09f08149df8909cc5d751b43dd0ca743c"
    "5fa7e8e5046349151f247ecb5a9b0c53ab40bf131b1700e31af582abdfe24d0a"
    "6d423c4113eca97d2703d26706ee698830c3a96d58904fc5e37b4af0b8cec014"
    "280902459af44d9b499e293bd02d463dd1eba627b7639f23c018c40c39da037b"
    "b7159bdd7adaeaffaabb68f904b0ae817b8232638adfddf00544190675ea7a05"
    "4f6e4a4909c417da025e66dc429eb5942e8be75a81a8a163b9ffa44ef4031e5e"
    "586f72d002ce552d09da20ca6ac57b15d6c6510575b69fc803da783ab28d0ede"
    "0ce180d0692b367e40673e55787999c8d9ccbf2c2a3d116585aa9ff50ed5a4bc"
    "a407d026ab6eb955c56abaff365b49bb3441927b8d6ab520eff550e21e1615b9"
    "9181690b9dd58eeadaf7df3d56e0974af0a9debb87809dc2b6cd36271aa7c578"
    "7e5af66dbf0f54ce19c3bd0b7fc59b9583081d8ed044bc718516eef5b386531b"
    "18b7c3330d045c45940a5c8f5e95be7f22ef2a4b9a9df4acb16c08d074c694fa"
    "566fb3d72b5233d9d1bd1ad25052cb2882d94392c8514a40c9c2b3e6300a3bc6"
    "5f4cd1d1716a840f178dd60083e8cb9f50193a9ca80f7e164db95a4cf3a6d29d"
    "e5cf9c293a9ee802a216175dd6b2c2b56552a792ae1120a5cf60241d9305b212"
    "453b416b738f352ecea319bfd54a0b2b1f4a1203655b226b465bd9db7442bd5a"
    "9a165bdcc97c34435df95e624ebf53f12f29fb5b5c7007236241e8cd70f58f72"
    "4a2959985b1c5dc6c31dc886cda558fe4d29a7729104b00b426969244e1a5a16"
    "73758f26eeb3ef65bbd21dbfdebc5c40399639f4c9b3d52a26337d75f97ead57"
    "b37c16d93dcd5d6d536e8b42bf8a7a507e629b705e6a242294789948d747842a"
    "7fc0dfc021d5d26355d7af568a15d1615225b8de4bb58be3a1d5cd88a2e4006d"
    "06a5b8edc81e4e19d2f2bdffb9d888780582e63e647cbcd6c24ceee072cdac43"
    "39016c53f59d2977951fa01e5cce12d190fcb954fc442e2b3b50556784ec9380"
    "81cce72213a16831e3b1573a02cf962ccaecf357f106dd389698d2b72172d434"
    "d31f4e8837745c5756d7d3baff75215f6c0e7efc25b556b4a69860a0521f35e0"
    "74dbe9e9c3895cfdc8f61f0e331e6fbdd259de3252e35e06499a2609c3dc0ca2"
    "252b13dc89a92b9436d42099a7d6343d3b6a5d939b2bb840a4dee9dfb14f38f3"
    "38b0dae6b8414c0029a78af82861931f5453568f3feafdc085aa5e9699631a52"
    "8ad70a99ae17fbbcda3b4bead3e208943fefb1e73795ac1bcf9ff33186f9a90b"
    "84a6aa9dc19afc58d379d33175c4b94bb270fa2fda3c824320817f6615ef3bc4"
    "3f6d77645ab468425c9d8ea48ab739f662a6651b8e52e117643251e415fc31b6"
    "8f9f0a7e479344519a2a9565e59de3f357c36f53e256c18e2a0fcc18dcb02740"
    "3f4415abfa249c69d56cdfcb7ebb54ead6453f8b80d075f28234";

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
  EXPECT_EQ(digest, 0x39c999ee4dedd94full);
}

// Each corpus table's CSV rendering and codec fingerprint. The -0 table's
// fingerprint is left out: its cell's sign is stored exactly.
TEST(GoldenTest, TableDigestIsPinned) {
  Rng rng(17);
  uint64_t digest = hash::kFnv64Basis;
  for (const auto& [name, table] : GoldenTables(&rng)) {
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
  ASSERT_EQ(ir::SchemaFingerprint(t1.schema()),
            ir::SchemaFingerprint(t2.schema()));
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

TEST(IrPlanTest, SchemaMismatchIsRejectedAtExecution) {
  Table nations = uctr::testing::MakeNationsTable();
  Table finance = uctr::testing::MakeFinanceTable();
  auto plan = ir::Compile(ir::Family::kSql, "SELECT COUNT(*) FROM w",
                          nations.schema());
  ASSERT_TRUE(plan.ok());
  auto r = ir::ExecutePlan(plan.ValueOrDie(), finance);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
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
  uint64_t fp1 = ir::SchemaFingerprint(t1.schema());
  EXPECT_NE(fp1, ir::SchemaFingerprint(renamed.schema()));
  EXPECT_EQ(fp1, ir::SchemaFingerprint(same_shape.schema()));
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
