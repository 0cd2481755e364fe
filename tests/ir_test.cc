// Differential tests of the unified IR / bytecode VM against the family
// tree-walk executors: on the compiled subset the two paths must be
// byte-identical — same values, same evidence rows, same error Status —
// for every built-in template over randomized tables. Also covers the
// bytecode verifier's rejection cases, plan cache keying/invalidation,
// and the concurrent first-compile race.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ir/ir.h"
#include "ir/plan_cache.h"
#include "obs/metrics.h"
#include "program/library.h"
#include "program/sampler.h"
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

// Executes `program` down both paths and asserts observable identity:
// success/failure, error code + message, value types and display strings,
// and evidence rows. Exercised with the index both on and off.
void ExpectIdentical(const Program& program, const Table& table,
                     ir::PlanCache* cache) {
  for (bool use_index : {true, false}) {
    ExecOptions vm;
    vm.use_vm = true;
    vm.use_index = use_index;
    vm.plan_cache = cache;
    ExecOptions walk = vm;
    walk.use_vm = false;

    auto got = program.Execute(table, vm);
    auto want = program.Execute(table, walk);
    ASSERT_EQ(got.ok(), want.ok())
        << program.text << " (use_index=" << use_index << ")\n  vm:   "
        << (got.ok() ? "ok" : got.status().ToString()) << "\n  walk: "
        << (want.ok() ? "ok" : want.status().ToString());
    if (!got.ok()) {
      EXPECT_EQ(got.status().code(), want.status().code()) << program.text;
      EXPECT_EQ(got.status().message(), want.status().message())
          << program.text;
      continue;
    }
    const ExecResult& a = got.ValueOrDie();
    const ExecResult& b = want.ValueOrDie();
    ASSERT_EQ(a.values.size(), b.values.size()) << program.text;
    for (size_t i = 0; i < a.values.size(); ++i) {
      EXPECT_EQ(a.values[i].type(), b.values[i].type()) << program.text;
      EXPECT_EQ(a.values[i].ToDisplayString(), b.values[i].ToDisplayString())
          << program.text;
      EXPECT_TRUE(a.values[i].Equals(b.values[i])) << program.text;
    }
    EXPECT_EQ(a.evidence_rows, b.evidence_rows) << program.text;
  }
}

// When the program lowers, the raw compile + ExecutePlan path (no cache,
// no Program orchestration) must also match the walker.
void ExpectDirectVmIdentical(const Program& program, const Table& table) {
  auto plan = ir::Compile(FamilyOf(program.type), program.text,
                          table.schema());
  if (!plan.ok()) return;  // Rejected = walker-only; covered elsewhere.
  ASSERT_TRUE(ir::VerifyPlan(plan.ValueOrDie()).ok()) << program.text;
  auto got = ir::ExecutePlan(plan.ValueOrDie(), table);
  ExecOptions walk;
  walk.use_vm = false;
  auto want = program.Execute(table, walk);
  ASSERT_EQ(got.ok(), want.ok()) << program.text;
  if (!got.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << program.text;
    EXPECT_EQ(got.status().message(), want.status().message())
        << program.text;
    return;
  }
  EXPECT_EQ(got.ValueOrDie().ToDisplayString(),
            want.ValueOrDie().ToDisplayString())
      << program.text;
  EXPECT_EQ(got.ValueOrDie().evidence_rows, want.ValueOrDie().evidence_rows)
      << program.text;
}

bool HasDerive(const ProgramTemplate& tmpl) {
  for (const Placeholder& p : tmpl.placeholders) {
    if (p.kind == Placeholder::Kind::kDerive) return true;
  }
  return false;
}

// Every built-in template, instantiated repeatedly on randomized tables,
// must execute identically down both paths. This sweeps the whole
// template library through the compiler: templates the lowering rejects
// exercise the fallback, templates it accepts exercise the VM.
class IrDifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  Rng rng_{GetParam()};
};

TEST_P(IrDifferentialTest, AllBuiltinTemplatesMatchTreeWalk) {
  TemplateLibrary library = TemplateLibrary::Builtin();
  ir::PlanCache cache(256, 4);
  ProgramSampler sampler(&rng_);
  size_t executed = 0;
  for (int round = 0; round < 3; ++round) {
    Table table = uctr::testing::RandomTable(&rng_);
    for (const ProgramTemplate& tmpl : library.templates()) {
      Result<SampledProgram> sampled =
          HasDerive(tmpl) ? sampler.SampleClaim(tmpl, table, round % 2 == 0)
                          : sampler.Sample(tmpl, table);
      if (!sampled.ok()) continue;  // Binding failed on this table; skip.
      const Program& program = sampled.ValueOrDie().program;
      ExpectIdentical(program, table, &cache);
      ExpectDirectVmIdentical(program, table);
      ++executed;
    }
  }
  // The library must not silently stop sampling (e.g. every template
  // rejected): differential coverage requires real executions.
  EXPECT_GT(executed, 20u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IrDifferentialTest,
                         ::testing::Values(1, 7, 42, 1234, 99991));

// Fixed programs covering each family's edge cases, including ones whose
// *walker* fails: the VM must reproduce the exact error Status too.
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
       }) {
    Program p{ProgramType::kArithmetic, text};
    ExpectIdentical(p, t, &cache);
    ExpectDirectVmIdentical(p, t);
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
}

TEST(PlanCacheTest, HitMissAndNegativeEntries) {
  obs::MetricsRegistry metrics;
  ir::PlanCache cache(8, 2, &metrics);
  auto plan = std::make_shared<const ir::Plan>();

  EXPECT_FALSE(cache.Get(1, 2).has_value());
  cache.Put(1, 2, plan);
  auto hit = cache.Get(1, 2);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->get(), plan.get());

  // Negative entry: present, but null — "known unsupported".
  cache.Put(3, 4, nullptr);
  auto negative = cache.Get(3, 4);
  ASSERT_TRUE(negative.has_value());
  EXPECT_EQ(negative->get(), nullptr);
  EXPECT_EQ(cache.size(), 2u);

  EXPECT_EQ(metrics.counter("plan_cache_hits_total")->value(), 2u);
  EXPECT_EQ(metrics.counter("plan_cache_misses_total")->value(), 1u);
}

TEST(PlanCacheTest, EvictsLeastRecentlyUsed) {
  obs::MetricsRegistry metrics;
  ir::PlanCache cache(2, 1, &metrics);
  auto plan = std::make_shared<const ir::Plan>();
  cache.Put(1, 1, plan);
  cache.Put(2, 2, plan);
  ASSERT_TRUE(cache.Get(1, 1).has_value());  // 1 is now most recent.
  cache.Put(3, 3, plan);                     // Evicts 2.
  EXPECT_TRUE(cache.Get(1, 1).has_value());
  EXPECT_FALSE(cache.Get(2, 2).has_value());
  EXPECT_TRUE(cache.Get(3, 3).has_value());
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

TEST(PlanCacheTest, UnsupportedProgramCachesNegativeEntry) {
  Table t = uctr::testing::MakeNationsTable();
  obs::MetricsRegistry metrics;
  ir::PlanCache cache(16, 1, &metrics);
  ExecOptions opts;
  opts.plan_cache = &cache;
  // Unknown column: the lowering rejects, the walker is authoritative.
  Program p{ProgramType::kSql, "SELECT [unobtainium] FROM w"};
  auto r1 = p.Execute(t, opts);
  auto r2 = p.Execute(t, opts);
  EXPECT_EQ(r1.ok(), r2.ok());
  // One compile attempt, then the negative entry short-circuits.
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
    ExecOptions walk;
    walk.use_vm = false;
    auto r = p.Execute(table, walk);
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
