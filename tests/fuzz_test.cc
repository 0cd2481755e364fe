// Failure-injection / fuzz-style tests: every parser and executor must
// return an error Status (never crash, hang, or corrupt memory) on
// arbitrary malformed input, including adversarially nested programs.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "arith/executor.h"
#include "arith/parser.h"
#include "gen/serialize.h"
#include "logic/executor.h"
#include "logic/parser.h"
#include "net/frame.h"
#include "program/template.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "store/codec.h"
#include "store/columnar.h"
#include "store/wal.h"
#include "table/table.h"
#include "tests/test_util.h"

namespace uctr {
namespace {

/// Random byte soup biased toward the grammar's special characters so the
/// fuzz inputs reach deep parser states.
std::string RandomGarbage(Rng* rng, size_t max_len) {
  static const char kAlphabet[] =
      "{};,()[]'\"<>=!#@. abcdefgSELECT FROM WHERE eq hop count all_rows "
      "filter_ subtract divide 0123456789-";
  size_t len = rng->Index(max_len) + 1;
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(kAlphabet[rng->Index(sizeof(kAlphabet) - 1)]);
  }
  return out;
}

class FuzzTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  Rng rng_{GetParam() * 7919 + 17};
};

TEST_P(FuzzTest, SqlParserNeverCrashes) {
  Table t = testing::MakeNationsTable();
  for (int i = 0; i < 300; ++i) {
    std::string input = RandomGarbage(&rng_, 120);
    auto parsed = sql::Parse(input);
    if (parsed.ok()) {
      // Whatever parsed must also execute or fail cleanly.
      (void)sql::Execute(parsed.ValueOrDie(), t);
    }
  }
}

TEST_P(FuzzTest, LogicParserNeverCrashes) {
  Table t = testing::MakeNationsTable();
  for (int i = 0; i < 300; ++i) {
    std::string input = RandomGarbage(&rng_, 120);
    auto parsed = logic::Parse(input);
    if (parsed.ok()) {
      (void)logic::Execute(*parsed.ValueOrDie(), t);
    }
  }
}

TEST_P(FuzzTest, ArithParserNeverCrashes) {
  Table t = testing::MakeNationsTable();
  for (int i = 0; i < 300; ++i) {
    std::string input = RandomGarbage(&rng_, 120);
    auto parsed = arith::Parse(input);
    if (parsed.ok()) {
      (void)arith::Execute(parsed.ValueOrDie(), t);
    }
  }
}

TEST_P(FuzzTest, CsvParserNeverCrashes) {
  for (int i = 0; i < 300; ++i) {
    (void)Table::FromCsv(RandomGarbage(&rng_, 200));
  }
}

TEST_P(FuzzTest, JsonReaderNeverCrashes) {
  for (int i = 0; i < 300; ++i) {
    (void)SampleFromJson(RandomGarbage(&rng_, 200));
  }
}

TEST_P(FuzzTest, TemplatePatternsNeverCrash) {
  for (int i = 0; i < 200; ++i) {
    (void)ProgramTemplate::Make(ProgramType::kLogicalForm,
                                RandomGarbage(&rng_, 120));
  }
}

TEST_P(FuzzTest, FrameDecoderNeverCrashes) {
  // Random byte soup fed in random-size chunks: the decoder may poison or
  // produce frames, but must never crash, hang, or over-buffer.
  for (int round = 0; round < 50; ++round) {
    net::FrameDecoder decoder(4096);
    std::string stream = RandomGarbage(&rng_, 2000);
    size_t off = 0;
    std::string payload;
    while (off < stream.size()) {
      size_t chunk = rng_.Index(64) + 1;
      if (chunk > stream.size() - off) chunk = stream.size() - off;
      (void)decoder.Feed(stream.data() + off, chunk);
      off += chunk;
      while (decoder.Next(&payload)) {
        EXPECT_LE(payload.size(), 4096u);
      }
    }
  }
}

TEST_P(FuzzTest, FrameRoundTripSurvivesTornDelivery) {
  // Encode real frames, deliver them torn at random boundaries, and
  // require every payload back intact and in order.
  for (int round = 0; round < 20; ++round) {
    std::vector<std::string> payloads;
    std::string stream;
    size_t count = rng_.Index(20) + 1;
    for (size_t i = 0; i < count; ++i) {
      payloads.push_back(RandomGarbage(&rng_, 300));
      stream += net::EncodeFrame(payloads.back()).ValueOrDie();
    }
    net::FrameDecoder decoder;
    size_t off = 0, popped = 0;
    std::string payload;
    while (off < stream.size()) {
      size_t chunk = rng_.Index(97) + 1;
      if (chunk > stream.size() - off) chunk = stream.size() - off;
      ASSERT_TRUE(decoder.Feed(stream.data() + off, chunk).ok());
      off += chunk;
      while (decoder.Next(&payload)) {
        ASSERT_LT(popped, payloads.size());
        EXPECT_EQ(payload, payloads[popped]);
        ++popped;
      }
    }
    EXPECT_EQ(popped, payloads.size());
    EXPECT_EQ(decoder.buffered_bytes(), 0u);
  }
}

TEST_P(FuzzTest, TableCodecNeverCrashesOnGarbage) {
  // Random byte soup through the table codec: decode must return an error
  // Status (or, vanishingly unlikely, a usable table), never crash.
  for (int i = 0; i < 300; ++i) {
    auto decoded = store::Codec::Decode(RandomGarbage(&rng_, 400));
    if (decoded.ok()) (void)decoded->ToTable();
  }
}

TEST_P(FuzzTest, TableCodecSurvivesTornFrameDelivery) {
  // A registered table shipped as a framed payload, delivered torn at
  // random boundaries: reassembly must reproduce the exact codec bytes,
  // so the fingerprint — and therefore the registry identity — is stable
  // across the wire.
  std::string encoded = store::Codec::Encode(
      store::ColumnarTable::FromTable(testing::MakeFinanceTable()));
  std::string fingerprint = store::Codec::Fingerprint(encoded);
  for (int round = 0; round < 20; ++round) {
    std::string stream = net::EncodeFrame(encoded).ValueOrDie();
    net::FrameDecoder decoder;
    size_t off = 0;
    std::string payload, reassembled;
    while (off < stream.size()) {
      size_t chunk = rng_.Index(97) + 1;
      if (chunk > stream.size() - off) chunk = stream.size() - off;
      ASSERT_TRUE(decoder.Feed(stream.data() + off, chunk).ok());
      off += chunk;
      while (decoder.Next(&payload)) reassembled = payload;
    }
    ASSERT_EQ(reassembled, encoded);
    EXPECT_EQ(store::Codec::Fingerprint(reassembled), fingerprint);
    ASSERT_TRUE(store::Codec::Decode(reassembled).ok());
  }
}

TEST_P(FuzzTest, TableCodecRejectsBitFlippedFrames) {
  // Corruption introduced mid-flight must surface as a decode error, not
  // a silently different table.
  std::string encoded = store::Codec::Encode(
      store::ColumnarTable::FromTable(testing::MakeNationsTable()));
  for (int i = 0; i < 100; ++i) {
    std::string corrupt = encoded;
    size_t byte = rng_.Index(corrupt.size());
    corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1u << rng_.Index(8)));
    EXPECT_FALSE(store::Codec::Decode(corrupt).ok())
        << "bit flip at byte " << byte;
  }
}

// ---- WAL recovery (store::Wal::Scan / TruncateTo) ----
//
// The durable store's crash-recovery loop runs Scan over whatever bytes a
// dead process left behind. The matrix below feeds it byte soup, torn
// logs, and bit-flipped logs: Scan must never crash, never deliver a
// payload that was not appended (the checksum gate), and always leave a
// TruncateTo-repairable file behind.

/// Writes `bytes` to a per-seed scratch path and returns the path.
std::string WriteWalScratch(uint64_t seed, const std::string& bytes) {
  std::string path = (std::filesystem::temp_directory_path() /
                      ("uctr_fuzz_wal_" + std::to_string(seed) + "_" +
                       std::to_string(::getpid()) + ".log"))
                         .string();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  return path;
}

TEST_P(FuzzTest, WalScanNeverCrashesOnGarbage) {
  for (int i = 0; i < 50; ++i) {
    std::string path =
        WriteWalScratch(GetParam(), RandomGarbage(&rng_, 4096));
    size_t records = 0;
    auto valid =
        store::Wal::Scan(path, [&](uint64_t, std::string) { ++records; });
    ASSERT_TRUE(valid.ok());
    // Garbage almost never frames a valid record; whatever the scan
    // declares valid must be truncatable and then scan cleanly.
    ASSERT_TRUE(store::Wal::TruncateTo(path, *valid).ok());
    auto again =
        store::Wal::Scan(path, [&](uint64_t, std::string) {});
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*again, *valid);
    std::filesystem::remove(path);
  }
}

TEST_P(FuzzTest, WalScanSurvivesTornAndBitFlippedLogs) {
  // A healthy multi-record log, then random damage: any delivered payload
  // must be one of the appended ones (checksums catch the flips), and the
  // repaired file must append + rescan cleanly — the exact sequence
  // DurableStore::Recover performs after a crash.
  std::vector<std::string> payloads;
  std::string log;
  for (int i = 0; i < 6; ++i) {
    payloads.push_back(RandomGarbage(&rng_, 200));
    log += store::Wal::EncodeRecord(payloads.back());
  }
  for (int round = 0; round < 40; ++round) {
    std::string damaged = log.substr(0, rng_.Index(log.size() + 1));
    if (!damaged.empty() && rng_.Index(2) == 0) {
      size_t byte = rng_.Index(damaged.size());
      damaged[byte] =
          static_cast<char>(damaged[byte] ^ (1u << rng_.Index(8)));
    }
    std::string path = WriteWalScratch(GetParam(), damaged);
    std::vector<std::string> delivered;
    auto valid = store::Wal::Scan(path, [&](uint64_t, std::string payload) {
      delivered.push_back(std::move(payload));
    });
    ASSERT_TRUE(valid.ok());
    EXPECT_LE(*valid, damaged.size());
    for (const std::string& payload : delivered) {
      EXPECT_NE(std::find(payloads.begin(), payloads.end(), payload),
                payloads.end())
          << "scan fabricated a payload that was never appended";
    }
    ASSERT_TRUE(store::Wal::TruncateTo(path, *valid).ok());
    {
      store::Wal::Options options;
      options.fsync = store::FsyncMode::kNever;
      store::Wal wal = store::Wal::Open(path, options).ValueOrDie();
      ASSERT_TRUE(wal.Append("post-repair").ok());
    }
    size_t after = 0;
    std::string last;
    auto revalid =
        store::Wal::Scan(path, [&](uint64_t, std::string payload) {
          ++after;
          last = std::move(payload);
        });
    ASSERT_TRUE(revalid.ok());
    EXPECT_EQ(last, "post-repair");  // the new record lands intact
    std::filesystem::remove(path);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range<uint64_t>(0, 8));

// --------------------------------------------------- adversarial nesting

TEST(AdversarialTest, DeeplyNestedLogicalFormRejected) {
  std::string bomb;
  for (int i = 0; i < 100000; ++i) bomb += "a { ";
  auto r = logic::Parse(bomb);
  EXPECT_FALSE(r.ok());  // depth guard, not a stack overflow
}

TEST(AdversarialTest, DeeplyNestedJsonRejected) {
  std::string bomb(100000, '[');
  EXPECT_FALSE(SampleFromJson(bomb).ok());
}

TEST(AdversarialTest, HugeFlatLogicalFormStillParses) {
  // Breadth (many siblings) is fine; only depth is bounded.
  std::string wide = "and { eq { 1 ; 1 } ; eq { 1 ; 1 } }";
  EXPECT_TRUE(logic::Parse(wide).ok());
  std::string deep_ok = "eq { count { filter_eq { filter_greater { "
                        "filter_less { all_rows ; a ; 1 } ; b ; 2 } ; c ; 3 "
                        "} } ; 4 }";
  EXPECT_TRUE(logic::Parse(deep_ok).ok());
}

TEST(AdversarialTest, SqlWithManyConditionsParses) {
  std::string query = "SELECT nation FROM w WHERE gold = '1'";
  for (int i = 0; i < 500; ++i) query += " AND gold = '1'";
  EXPECT_TRUE(sql::Parse(query).ok());  // WHERE is iterative, not recursive
}

TEST(AdversarialTest, ArithWithManySteps) {
  std::string program = "add(1, 2)";
  for (int i = 0; i < 500; ++i) {
    program += ", add(#" + std::to_string(i) + ", 1)";
  }
  auto parsed = arith::Parse(program);
  ASSERT_TRUE(parsed.ok());
  Table t = testing::MakeNationsTable();
  EXPECT_DOUBLE_EQ(arith::Execute(parsed.ValueOrDie(), t)->scalar().number(),
                   503.0);
}

}  // namespace
}  // namespace uctr
