// Tests of the typed columnar table store: per-column encoding decisions,
// exact round-trip fidelity, the versioned binary codec's corruption
// handling, content fingerprint stability, the content-addressed registry
// (dedup, LRU byte-budget eviction, borrow lifetimes, counters), and the
// put_table / table_ref wire protocol end to end through serve::Server.

#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "program/program.h"
#include "serve/engine.h"
#include "serve/server.h"
#include "store/codec.h"
#include "store/columnar.h"
#include "store/registry.h"
#include "tests/test_util.h"

namespace uctr::store {
namespace {

using serve::EngineConfig;
using serve::InferenceEngine;
using serve::Server;
using serve::ServerConfig;
using testing::MakeFinanceTable;
using testing::MakeNationsTable;
using testing::RandomTable;

// Cell-exact equality: type, numeric value (its bits, so the sign of zero
// too), surface text, schema, and the rendered CSV all have to match for
// serving to be byte-identical.
void ExpectTablesIdentical(const Table& a, const Table& b) {
  EXPECT_EQ(a.name(), b.name());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_columns(), b.num_columns());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    EXPECT_EQ(a.schema().column(c).name, b.schema().column(c).name);
    EXPECT_EQ(a.schema().column(c).type, b.schema().column(c).type);
  }
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      const Value& va = a.cell(r, c);
      const Value& vb = b.cell(r, c);
      ASSERT_EQ(va.type(), vb.type()) << "cell (" << r << "," << c << ")";
      EXPECT_EQ(va.text(), vb.text()) << "cell (" << r << "," << c << ")";
      if (va.is_number()) {
        EXPECT_EQ(std::bit_cast<uint64_t>(va.number()),
                  std::bit_cast<uint64_t>(vb.number()))
            << "cell (" << r << "," << c << ")";
      }
      if (va.is_bool()) {
        EXPECT_EQ(va.boolean(), vb.boolean())
            << "cell (" << r << "," << c << ")";
      }
    }
  }
  EXPECT_EQ(a.ToCsv(), b.ToCsv());
}

// ---------------------------------------------------------- ColumnarTable

TEST(ColumnarTest, PicksInt64ForIntegralNumericColumns) {
  ColumnarTable ct = ColumnarTable::FromTable(MakeNationsTable());
  ASSERT_EQ(ct.num_columns(), 5u);
  EXPECT_EQ(ct.column(0).encoding, ColumnEncoding::kString);  // nation
  for (size_t c = 1; c < 5; ++c) {
    EXPECT_EQ(ct.column(c).encoding, ColumnEncoding::kInt64)
        << ct.schema().column(c).name;
  }
  // CSV-parsed numbers keep their surface text ("10") so ToCsv is exact.
  ASSERT_FALSE(ct.column(1).text_ids.empty());
  EXPECT_EQ(ct.pool().at(ct.column(1).text_ids[0]), "10");
  EXPECT_EQ(ct.column(1).ints[0], int64_t{10});
}

TEST(ColumnarTest, KeepsNumericSurfaceText) {
  // "$1,200.5" parses to 1200.5 but must render back as "$1,200.5".
  ColumnarTable ct = ColumnarTable::FromTable(MakeFinanceTable());
  const TypedColumn& y2019 = ct.column(1);
  EXPECT_EQ(y2019.encoding, ColumnEncoding::kDouble);  // 400.5 not integral
  ASSERT_FALSE(y2019.text_ids.empty());
  EXPECT_EQ(ct.pool().at(y2019.text_ids[0]), "$1,200.5");
  // 2018 holds 1000.0 / 700 / 300 / 2000 — integral, but with text.
  const TypedColumn& y2018 = ct.column(2);
  EXPECT_EQ(y2018.encoding, ColumnEncoding::kInt64);
  ASSERT_FALSE(y2018.text_ids.empty());
  EXPECT_EQ(ct.pool().at(y2018.text_ids[0]), "$1,000.0");
}

TEST(ColumnarTest, PicksBoolAndMixedAndHandlesNulls) {
  Table t = Table::FromCsv(
                "flag,grade,note\n"
                "true,5,-\n"
                "no,ok,n/a\n"
                "yes,-,-\n",
                "odd")
                .ValueOrDie();
  ColumnarTable ct = ColumnarTable::FromTable(t);
  EXPECT_EQ(ct.column(0).encoding, ColumnEncoding::kBool);
  EXPECT_EQ(ct.column(1).encoding, ColumnEncoding::kMixed);  // 5 vs "ok"
  // All-null column: nothing contradicts string.
  EXPECT_EQ(ct.column(2).encoding, ColumnEncoding::kString);
  EXPECT_TRUE(ct.column(1).is_null(2));
  EXPECT_TRUE(ct.column(2).is_null(0));
  EXPECT_EQ(ct.CellValue(0, 0).boolean(), true);
  EXPECT_EQ(ct.CellValue(1, 0).boolean(), false);
  EXPECT_TRUE(ct.CellValue(0, 2).is_null());
}

// What serving reads back from the store: the table's columns through
// the codec and into a new Table.
Table ThroughCodec(const Table& t) {
  Result<ColumnarTable> decoded =
      Codec::Decode(Codec::Encode(ColumnarTable::FromTable(t)));
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  return decoded.ok() ? Table(std::move(*decoded)) : Table();
}

TEST(ColumnarTest, RoundTripIsCellExact) {
  // An integer column holding -0 is stored as double, keeping the sign.
  Table negative_zero =
      Table::FromCsv("name,b\nx,-0\ny,5\n", "nz").ValueOrDie();
  EXPECT_EQ(negative_zero.columns().column(1).encoding,
            ColumnEncoding::kDouble);
  for (const Table& t :
       {MakeNationsTable(), MakeFinanceTable(), negative_zero}) {
    ExpectTablesIdentical(t, ThroughCodec(t));
  }
}

TEST(ColumnarTest, RoundTripsRandomTables) {
  Rng rng(0xC01u);
  for (int i = 0; i < 20; ++i) {
    Table t = RandomTable(&rng);
    ExpectTablesIdentical(t, ThroughCodec(t));
  }
}

TEST(ColumnarTest, RoundTripsEmptyAndHeaderOnlyTables) {
  Table t = Table::FromCsv("a,b\n", "empty").ValueOrDie();
  Table back = ThroughCodec(t);
  EXPECT_EQ(back.num_rows(), 0u);
  EXPECT_EQ(back.num_columns(), 2u);
  ExpectTablesIdentical(t, back);
}

TEST(ColumnarTest, ApproxBytesGrowsWithData) {
  Rng rng(7u);
  size_t small = ColumnarTable::FromTable(RandomTable(&rng, 4, 2))
                     .ApproxBytes();
  size_t large = ColumnarTable::FromTable(RandomTable(&rng, 400, 4))
                     .ApproxBytes();
  EXPECT_GT(small, 0u);
  EXPECT_GT(large, small * 10);
}

// ------------------------------------------------------------------ Codec

TEST(CodecTest, EncodeDecodeRoundTrips) {
  for (const Table& t : {MakeNationsTable(), MakeFinanceTable()}) {
    ExpectTablesIdentical(t, ThroughCodec(t));
  }
}

TEST(CodecTest, EncodingIsCanonical) {
  // Re-encoding a decoded table reproduces the exact bytes, and so does
  // re-building a table from its cells — the property that makes content
  // fingerprints stable across put/get/put.
  std::string bytes =
      Codec::Encode(ColumnarTable::FromTable(MakeFinanceTable()));
  Table back(Codec::Decode(bytes).ValueOrDie());
  std::string again = Codec::Encode(ColumnarTable::FromTable(back));
  EXPECT_EQ(bytes, again);
  EXPECT_EQ(Codec::Fingerprint(bytes), Codec::Fingerprint(again));
  Table rebuilt = back.WithoutRow(back.num_rows());
  EXPECT_EQ(Codec::Encode(ColumnarTable::FromTable(rebuilt)), bytes);
}

// A decoded table answers exactly as the inline table it was encoded
// from, down to the sign of a zero.
TEST(CodecTest, DecodedTableAnswersLikeTheInlineOne) {
  Table inline_table =
      Table::FromCsv("name,b\nx,-0\ny,5\n", "nz").ValueOrDie();
  Table decoded = ThroughCodec(inline_table);
  Program program{ProgramType::kArithmetic, "multiply(b of x, 5)"};
  Result<ExecResult> want = program.Execute(inline_table);
  Result<ExecResult> got = program.Execute(decoded);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(want->ToDisplayString(), "-0");
  EXPECT_EQ(got->ToDisplayString(), want->ToDisplayString());
  EXPECT_EQ(std::bit_cast<uint64_t>(got->scalar().number()),
            std::bit_cast<uint64_t>(want->scalar().number()));
}

TEST(CodecTest, FingerprintIsContentAddressed) {
  std::string a = Codec::Encode(ColumnarTable::FromTable(MakeNationsTable()));
  std::string b = Codec::Encode(ColumnarTable::FromTable(MakeFinanceTable()));
  EXPECT_EQ(Codec::Fingerprint(a).size(), 16u);
  EXPECT_NE(Codec::Fingerprint(a), Codec::Fingerprint(b));
  EXPECT_EQ(Codec::Fingerprint(a), Codec::Fingerprint(a));
  // Pinned: fingerprints are persisted table refs and checksums frame
  // every WAL record, so their values must never drift.
  EXPECT_EQ(Codec::Fingerprint(a), "997073832c14549b");
  std::string anchor = Codec::Encode(ColumnarTable::FromTable(
      Table::FromCsv("nation,gold\nchina,8\njapan,5\n").ValueOrDie()));
  EXPECT_EQ(Codec::Fingerprint(anchor), "7362816b0740a60c");
  EXPECT_EQ(Codec::Checksum64("uctr"), 0x453e9d61125e44f5ull);
}

TEST(CodecTest, EveryTruncationFailsCleanly) {
  std::string bytes = Codec::Encode(ColumnarTable::FromTable(
      MakeFinanceTable()));
  for (size_t len = 0; len < bytes.size(); ++len) {
    Result<ColumnarTable> decoded =
        Codec::Decode(std::string_view(bytes).substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "truncation to " << len << " bytes";
  }
}

TEST(CodecTest, EverySingleBitFlipFailsCleanly) {
  // The header fields are individually validated and the payload is
  // checksummed with FNV-1a (each step is injective), so any single-bit
  // corruption must yield an error Status, never a bogus table.
  std::string bytes = Codec::Encode(ColumnarTable::FromTable(
      MakeNationsTable()));
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ (1 << (i % 8)));
    Result<ColumnarTable> decoded = Codec::Decode(corrupt);
    EXPECT_FALSE(decoded.ok()) << "bit flip at byte " << i;
  }
}

TEST(CodecTest, TrailingGarbageIsRejected) {
  std::string bytes = Codec::Encode(ColumnarTable::FromTable(
      MakeNationsTable()));
  EXPECT_FALSE(Codec::Decode(bytes + "x").ok());
  EXPECT_FALSE(Codec::Decode(bytes + std::string(64, '\0')).ok());
}

TEST(CodecTest, VersionSkewIsReportedAsSuch) {
  std::string bytes = Codec::Encode(ColumnarTable::FromTable(
      MakeNationsTable()));
  bytes[4] = 2;  // u32 version little-endian low byte
  Result<ColumnarTable> decoded = Codec::Decode(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().ToString().find("version skew"),
            std::string::npos)
      << decoded.status().ToString();
}

TEST(CodecTest, GarbageInputsNeverCrash) {
  Rng rng(0xBADu);
  for (int i = 0; i < 200; ++i) {
    size_t len = static_cast<size_t>(rng.UniformInt(0, 256));
    std::string garbage;
    garbage.reserve(len);
    for (size_t j = 0; j < len; ++j) {
      garbage.push_back(static_cast<char>(rng.UniformInt(0, 255)));
    }
    Result<ColumnarTable> decoded = Codec::Decode(garbage);
    if (decoded.ok()) {
      // Astronomically unlikely, but if it parses it must be usable.
      Table table(std::move(*decoded));
      table.WarmIndex();
      EXPECT_FALSE(table.ToCsv().empty());
    }
  }
}

// --------------------------------------------------------- TableRegistry

// What a registry charges for holding `table`.
size_t RegistryCharge(const Table& table) {
  obs::MetricsRegistry metrics;
  TableRegistry probe(RegistryConfig{}, &metrics);
  return probe.Put(table)->bytes;
}

TEST(RegistryTest, PutThenGetReturnsWarmTable) {
  obs::MetricsRegistry metrics;
  TableRegistry registry(RegistryConfig{}, &metrics);
  Result<PutResult> put = registry.Put(MakeNationsTable());
  ASSERT_TRUE(put.ok());
  EXPECT_TRUE(put->inserted);
  EXPECT_EQ(put->fingerprint.size(), 16u);
  EXPECT_GT(put->bytes, 0u);

  std::shared_ptr<const Table> table = registry.Get(put->fingerprint);
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->name(), "medals");
  EXPECT_EQ(table->num_rows(), 5u);
  EXPECT_EQ(registry.hits(), 1u);
  EXPECT_EQ(registry.table_count(), 1u);
  EXPECT_GE(registry.bytes(), put->bytes);
}

TEST(RegistryTest, IdenticalContentDedups) {
  obs::MetricsRegistry metrics;
  TableRegistry registry(RegistryConfig{}, &metrics);
  Result<PutResult> first = registry.Put(MakeNationsTable());
  Result<PutResult> second = registry.Put(MakeNationsTable());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->fingerprint, second->fingerprint);
  EXPECT_TRUE(first->inserted);
  EXPECT_FALSE(second->inserted);
  EXPECT_EQ(registry.table_count(), 1u);
  EXPECT_EQ(registry.puts(), 2u);
}

TEST(RegistryTest, MissesAreCountedAndReturnNull) {
  obs::MetricsRegistry metrics;
  TableRegistry registry(RegistryConfig{}, &metrics);
  EXPECT_EQ(registry.Get("0123456789abcdef"), nullptr);
  EXPECT_EQ(registry.Get("not-even-hex"), nullptr);
  EXPECT_EQ(registry.misses(), 2u);
}

TEST(RegistryTest, ByteBudgetEvictsColdEntries) {
  Rng rng(0x11u);
  Table first = RandomTable(&rng, 40, 3);
  size_t one_table = RegistryCharge(first);
  RegistryConfig config;
  config.num_shards = 1;
  config.capacity_bytes = one_table * 3;
  obs::MetricsRegistry metrics;
  TableRegistry registry(config, &metrics);

  std::string first_fp = registry.Put(std::move(first))->fingerprint;
  std::vector<std::string> fps;
  for (int i = 0; i < 8; ++i) {
    fps.push_back(registry.Put(RandomTable(&rng, 40, 3))->fingerprint);
  }
  EXPECT_GT(registry.evictions(), 0u);
  EXPECT_LE(registry.bytes(), config.capacity_bytes + one_table);
  EXPECT_EQ(registry.Get(first_fp), nullptr) << "cold entry must be gone";
  EXPECT_NE(registry.Get(fps.back()), nullptr) << "hot entry must survive";
}

// The registry charges what it holds: the typed columns and the warmed
// index, whose sorted permutations alone take 8 bytes per row per column.
TEST(RegistryTest, ChargesColumnsAndWarmedIndex) {
  Rng rng(0x33u);
  Table t = RandomTable(&rng, 1000, 4);
  const size_t columns = ColumnarTable::FromTable(t).ApproxBytes();
  obs::MetricsRegistry metrics;
  TableRegistry registry(RegistryConfig{}, &metrics);
  Result<PutResult> put = registry.Put(t);
  ASSERT_TRUE(put.ok());
  EXPECT_GE(put->bytes,
            columns + t.num_rows() * t.num_columns() * sizeof(size_t));
  EXPECT_EQ(registry.bytes(), put->bytes);
}

TEST(RegistryTest, OversizedTableIsAdmittedAlone) {
  RegistryConfig config;
  config.num_shards = 1;
  config.capacity_bytes = 1;  // smaller than any table
  TableRegistry registry(config);
  Result<PutResult> put = registry.Put(MakeNationsTable());
  ASSERT_TRUE(put.ok());
  EXPECT_TRUE(put->inserted);
  EXPECT_NE(registry.Get(put->fingerprint), nullptr)
      << "the newest entry is never evicted by its own insertion";
}

TEST(RegistryTest, BorrowedTableSurvivesEviction) {
  Rng rng(0x22u);
  RegistryConfig config;
  config.num_shards = 1;
  config.capacity_bytes = RegistryCharge(MakeNationsTable()) + 1;
  TableRegistry registry(config);
  std::string fp = registry.Put(MakeNationsTable())->fingerprint;
  std::shared_ptr<const Table> borrowed = registry.Get(fp);
  ASSERT_NE(borrowed, nullptr);

  for (int i = 0; i < 4; ++i) registry.Put(RandomTable(&rng, 60, 3));
  EXPECT_EQ(registry.Get(fp), nullptr) << "entry evicted from the registry";
  // The in-flight borrow still reads the full table safely.
  EXPECT_EQ(borrowed->num_rows(), 5u);
  EXPECT_EQ(borrowed->cell(0, 0).text(), "united states");
}

TEST(RegistryTest, ConcurrentPutGetIsCoherent) {
  obs::MetricsRegistry metrics;
  TableRegistry registry(RegistryConfig{}, &metrics);
  std::string nations_fp =
      Codec::Fingerprint(Codec::Encode(ColumnarTable::FromTable(
          MakeNationsTable())));
  std::vector<std::thread> threads;
  std::atomic<int> null_hits{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&registry, &null_hits, nations_fp, t] {
      for (int i = 0; i < 25; ++i) {
        if ((i + t) % 2 == 0) {
          ASSERT_TRUE(registry.Put(MakeNationsTable()).ok());
        } else if (auto table = registry.Get(nations_fp)) {
          ASSERT_EQ(table->num_rows(), 5u);
        } else {
          null_hits.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.table_count(), 1u);
  EXPECT_EQ(registry.puts(), 50u);
  EXPECT_NE(registry.Get(nations_fp), nullptr);
}

// ------------------------------------------------- Serving wire protocol

const char* kMedalsCsv =
    "nation,gold,silver,bronze,total\n"
    "united states,10,12,8,30\n"
    "china,8,6,10,24\n"
    "japan,5,9,4,18\n";

const char* kFinanceCsv =
    "item,2019,2018\n"
    "revenue,\"$2,350.4\",\"$2,014.9\"\n"
    "net income,\"$310.5\",\"$225.1\"\n";

std::string JsonEscapeNewlines(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '\n') {
      out += "\\n";
    } else if (c == '"') {
      out += "\\\"";
    } else {
      out += c;
    }
  }
  return out;
}

std::string PutTableRequest(uint64_t id, const std::string& csv) {
  return "{\"id\":" + std::to_string(id) +
         ",\"op\":\"put_table\",\"table\":\"" + JsonEscapeNewlines(csv) +
         "\"}";
}

std::string RefRequest(uint64_t id, const std::string& op,
                       const std::string& ref, const std::string& query) {
  return "{\"id\":" + std::to_string(id) + ",\"op\":\"" + op +
         "\",\"table_ref\":\"" + ref + "\",\"query\":\"" + query + "\"}";
}

std::string InlineRequest(uint64_t id, const std::string& op,
                          const std::string& csv, const std::string& query) {
  return "{\"id\":" + std::to_string(id) + ",\"op\":\"" + op +
         "\",\"table\":\"" + JsonEscapeNewlines(csv) + "\",\"query\":\"" +
         query + "\"}";
}

std::string ExtractFingerprint(const std::string& response) {
  size_t pos = response.find("\"fingerprint\":\"");
  if (pos == std::string::npos) return "";
  pos += 15;
  return response.substr(pos, 16);
}

const InferenceEngine& SharedEngine() {
  static const InferenceEngine engine = [] {
    EngineConfig config;
    return InferenceEngine::Create(config, "", "").ValueOrDie();
  }();
  return engine;
}

TEST(ServerStoreTest, PutTableReturnsContentFingerprint) {
  ServerConfig config;
  config.scheduler.num_workers = 1;
  obs::MetricsRegistry metrics;
  config.metrics = &metrics;
  Server server(&SharedEngine(), config);
  std::string response = server.HandleLine(PutTableRequest(1, kMedalsCsv));
  EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos)
      << response;
  std::string fp = ExtractFingerprint(response);
  ASSERT_EQ(fp.size(), 16u) << response;
  // Content-addressed: the same table registers to the same fingerprint.
  EXPECT_EQ(ExtractFingerprint(
                server.HandleLine(PutTableRequest(2, kMedalsCsv))),
            fp);
  EXPECT_EQ(server.registry()->table_count(), 1u);
}

TEST(ServerStoreTest, TableRefServesByteIdenticalAnswers) {
  ServerConfig config;
  config.scheduler.num_workers = 2;
  obs::MetricsRegistry metrics;
  config.metrics = &metrics;
  Server server(&SharedEngine(), config);

  std::string medals_fp =
      ExtractFingerprint(server.HandleLine(PutTableRequest(1, kMedalsCsv)));
  std::string finance_fp =
      ExtractFingerprint(server.HandleLine(PutTableRequest(2, kFinanceCsv)));
  ASSERT_EQ(medals_fp.size(), 16u);
  ASSERT_EQ(finance_fp.size(), 16u);

  const std::string claim =
      "The gold of the row whose nation is japan is 5.";
  const std::string question = "Which item has the highest 2019?";

  // Same id on both paths: the responses must be byte-identical.
  std::string ref_verify =
      server.HandleLine(RefRequest(7, "verify", medals_fp, claim));
  std::string inline_verify =
      server.HandleLine(InlineRequest(7, "verify", kMedalsCsv, claim));
  EXPECT_EQ(ref_verify, inline_verify);
  EXPECT_NE(ref_verify.find("\"label\":"), std::string::npos) << ref_verify;
  EXPECT_EQ(ref_verify.find("degraded"), std::string::npos)
      << "a registry hit is the healthy path, not a fallback";

  std::string ref_answer =
      server.HandleLine(RefRequest(8, "answer", finance_fp, question));
  std::string inline_answer =
      server.HandleLine(InlineRequest(8, "answer", kFinanceCsv, question));
  EXPECT_EQ(ref_answer, inline_answer);

  EXPECT_EQ(metrics.counter("store_hits_total")->value(), 2u);
}

// A registered table is parsed and warmed once, at put_table: every
// cache-missing inline request records one table-parse and one
// index-warm span, and table_ref requests record none. A count, not a
// timing.
TEST(ServerStoreTest, TableRefRequestsSkipParseAndWarm) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  ServerConfig config;
  config.scheduler.num_workers = 2;
  obs::MetricsRegistry metrics;
  config.metrics = &metrics;
  config.tracer = &tracer;
  Server server(&SharedEngine(), config);
  // Spans close as their job returns, so count only after a Drain.
  auto spans = [&](const std::string& name) {
    server.Drain();
    size_t count = 0;
    for (const obs::TraceEvent& event : tracer.Snapshot()) {
      if (event.name == name) ++count;
    }
    return count;
  };

  // Distinct claims, so no request is a result-cache hit.
  constexpr size_t kRequests = 8;
  auto claim = [](size_t i) {
    return "The gold of the row whose nation is japan is " +
           std::to_string(i) + ".";
  };
  std::vector<std::string> inline_responses;
  for (size_t i = 0; i < kRequests; ++i) {
    inline_responses.push_back(server.HandleLine(
        InlineRequest(i + 1, "verify", kMedalsCsv, claim(i))));
  }
  EXPECT_EQ(spans("serve.request"), kRequests);
  EXPECT_EQ(spans("serve.table_parse"), kRequests);
  EXPECT_EQ(spans("serve.index_warm"), kRequests);

  std::string fp =
      ExtractFingerprint(server.HandleLine(PutTableRequest(0, kMedalsCsv)));
  ASSERT_EQ(fp.size(), 16u);
  server.Drain();
  tracer.Clear();
  std::vector<std::string> ref_responses;
  for (size_t i = 0; i < kRequests; ++i) {
    ref_responses.push_back(
        server.HandleLine(RefRequest(i + 1, "verify", fp, claim(i))));
  }
  EXPECT_EQ(spans("serve.request"), kRequests);
  EXPECT_EQ(spans("serve.table_parse"), 0u);
  EXPECT_EQ(spans("serve.index_warm"), 0u);
  EXPECT_EQ(ref_responses, inline_responses);
}

TEST(ServerStoreTest, RegistryMissFallsBackToInlineDegraded) {
  ServerConfig config;
  config.scheduler.num_workers = 1;
  obs::MetricsRegistry metrics;
  config.metrics = &metrics;
  Server server(&SharedEngine(), config);
  const std::string claim =
      "The gold of the row whose nation is japan is 5.";

  // Unregistered ref + inline table: inline path answers, marked degraded.
  std::string fallback = server.HandleLine(
      "{\"id\":3,\"op\":\"verify\",\"table_ref\":\"ffffffffffffffff\","
      "\"table\":\"" +
      JsonEscapeNewlines(kMedalsCsv) + "\",\"query\":\"" + claim + "\"}");
  EXPECT_NE(fallback.find("\"status\":\"ok\""), std::string::npos)
      << fallback;
  EXPECT_NE(fallback.find("\"degraded\":true"), std::string::npos)
      << fallback;
  std::string healthy =
      server.HandleLine(InlineRequest(3, "verify", kMedalsCsv, claim));
  // Identical answer bytes modulo the degraded marker.
  EXPECT_EQ(fallback.find("\"label\":\"Supported\"") != std::string::npos,
            healthy.find("\"label\":\"Supported\"") != std::string::npos);
  EXPECT_EQ(metrics.counter("degraded_store_fallback_total")->value(), 1u);

  // Unregistered ref without an inline table: a NotFound-style error.
  std::string miss = server.HandleLine(
      RefRequest(4, "verify", "ffffffffffffffff", claim));
  EXPECT_NE(miss.find("\"status\":\"error\""), std::string::npos) << miss;
  EXPECT_NE(miss.find("not registered"), std::string::npos) << miss;
}

TEST(ServerStoreTest, InlineTableSpelledLikeARefCannotPoisonIt) {
  // One client sends an inline table whose CSV text is another client's
  // table ref. Its answer must not be served to later table_ref requests.
  ServerConfig config;
  config.scheduler.num_workers = 1;
  obs::MetricsRegistry metrics;
  config.metrics = &metrics;
  Server server(&SharedEngine(), config);
  const std::string csv = "nation,gold\nchina,8\njapan,5\n";
  const std::string question =
      "What was the gold of the row whose nation is china?";
  std::string ref =
      ExtractFingerprint(server.HandleLine(PutTableRequest(1, csv)));
  ASSERT_EQ(ref, "7362816b0740a60c");

  // The ref as inline CSV parses to a header-only table with no answer.
  std::string poison =
      server.HandleLine(InlineRequest(2, "answer", ref, question));
  EXPECT_NE(poison.find("\"answer\":\"\""), std::string::npos) << poison;

  std::string by_ref =
      server.HandleLine(RefRequest(3, "answer", ref, question));
  EXPECT_NE(by_ref.find("\"answer\":\"8\""), std::string::npos) << by_ref;
  EXPECT_EQ(by_ref,
            server.HandleLine(InlineRequest(3, "answer", csv, question)));
}

TEST(ServerStoreTest, StatsExposeRegistryCounters) {
  ServerConfig config;
  config.scheduler.num_workers = 1;
  obs::MetricsRegistry metrics;
  config.metrics = &metrics;
  Server server(&SharedEngine(), config);
  std::string fp =
      ExtractFingerprint(server.HandleLine(PutTableRequest(1, kMedalsCsv)));
  server.HandleLine(RefRequest(
      2, "verify", fp, "The gold of the row whose nation is japan is 5."));
  server.HandleLine(RefRequest(3, "verify", "0000000000000000", "x"));

  std::string stats = server.HandleLine("{\"id\":9,\"op\":\"stats\"}");
  EXPECT_NE(stats.find("\"store_puts_total\":1"), std::string::npos)
      << stats;
  EXPECT_NE(stats.find("\"store_hits_total\":1"), std::string::npos)
      << stats;
  EXPECT_NE(stats.find("\"store_misses_total\":1"), std::string::npos)
      << stats;
  EXPECT_NE(stats.find("\"store_evictions_total\":0"), std::string::npos)
      << stats;
  EXPECT_NE(stats.find("\"store_tables\":1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"store_bytes\":"), std::string::npos) << stats;
}

TEST(ServerStoreTest, StoreGetFaultDegradesToInlineFallback) {
  ServerConfig config;
  config.scheduler.num_workers = 1;
  obs::MetricsRegistry metrics;
  config.metrics = &metrics;
  Server server(&SharedEngine(), config);
  const std::string claim =
      "The gold of the row whose nation is japan is 5.";
  std::string fp =
      ExtractFingerprint(server.HandleLine(PutTableRequest(1, kMedalsCsv)));

  ASSERT_TRUE(
      fault::FaultInjector::Global().ArmSpec("serve.store_get=error").ok());
  std::string response = server.HandleLine(
      "{\"id\":2,\"op\":\"verify\",\"table_ref\":\"" + fp +
      "\",\"table\":\"" + JsonEscapeNewlines(kMedalsCsv) +
      "\",\"query\":\"" + claim + "\"}");
  fault::FaultInjector::Global().Disarm();
  EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos)
      << response;
  EXPECT_NE(response.find("\"degraded\":true"), std::string::npos)
      << response;
}

TEST(ServerStoreTest, StorePutFaultFailsTheRegistration) {
  ServerConfig config;
  config.scheduler.num_workers = 1;
  obs::MetricsRegistry metrics;
  config.metrics = &metrics;
  Server server(&SharedEngine(), config);
  ASSERT_TRUE(
      fault::FaultInjector::Global().ArmSpec("serve.store_put=error").ok());
  std::string response = server.HandleLine(PutTableRequest(1, kMedalsCsv));
  fault::FaultInjector::Global().Disarm();
  EXPECT_NE(response.find("\"status\":\"error\""), std::string::npos)
      << response;
  EXPECT_NE(response.find("store:"), std::string::npos) << response;
  EXPECT_EQ(server.registry()->table_count(), 0u);
}

TEST(ServerStoreTest, PutTableRejectsMissingOrBadTables) {
  ServerConfig config;
  config.scheduler.num_workers = 1;
  Server server(&SharedEngine(), config);
  EXPECT_NE(server.HandleLine("{\"id\":1,\"op\":\"put_table\"}")
                .find("\"status\":\"error\""),
            std::string::npos);
  EXPECT_NE(server
                .HandleLine("{\"id\":2,\"op\":\"put_table\","
                            "\"table\":\"a,b\\n1\\n\"}")
                .find("\"status\":\"error\""),
            std::string::npos)
      << "ragged CSV must fail registration";
}

// ------------------------------------------------ Engine borrow semantics

TEST(EngineBorrowTest, BorrowedAndMovedTablesAgree) {
  const InferenceEngine& engine = SharedEngine();
  const std::string claim =
      "The gold of the row whose nation is japan is 5.";
  Table medals = MakeNationsTable();
  medals.WarmIndex();
  std::string borrowed = engine.Verify(medals, claim, {});  // lvalue borrow
  Table moved = MakeNationsTable();
  moved.WarmIndex();
  std::string via_move = engine.Verify(std::move(moved), claim, {});
  EXPECT_EQ(borrowed, via_move);

  Table finance = MakeFinanceTable();
  const std::string question = "Which item has the highest 2019?";
  EXPECT_EQ(engine.Answer(finance, question, {}),
            engine.Answer(MakeFinanceTable(), question, {}));
}

TEST(EngineBorrowTest, ConcurrentBorrowsOfOneTableAreConsistent) {
  const InferenceEngine& engine = SharedEngine();
  Table medals = MakeNationsTable();
  medals.WarmIndex();
  const std::string claim =
      "The gold of the row whose nation is japan is 5.";
  std::string expected = engine.Verify(medals, claim, {});
  std::vector<std::thread> threads;
  std::vector<std::string> results(8);
  for (size_t t = 0; t < results.size(); ++t) {
    threads.emplace_back([&engine, &medals, &claim, &results, t] {
      results[t] = engine.Verify(medals, claim, {});
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& r : results) EXPECT_EQ(r, expected);
}

}  // namespace
}  // namespace uctr::store
