// Tests of the networked serving front end: the length-prefixed frame
// codec under every fragmentation pattern, the epoll event loop, and
// loopback TCP suites pinning the transport contracts — per-connection
// response ordering under concurrency, byte-identity with stdio mode,
// watermark pause/resume, slow-reader shedding, graceful drain with
// requests in flight, and fault-spec'd accept/read failures.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.h"
#include "net/client.h"
#include "net/event_loop.h"
#include "net/frame.h"
#include "net/server.h"
#include "net/socket_util.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "serve/server.h"

namespace uctr::net {
namespace {

// --------------------------------------------------------------- frames

TEST(FrameTest, EncodeDecodeRoundTrip) {
  auto frame = EncodeFrame("{\"op\":\"ping\"}");
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->size(), kFrameHeaderBytes + 13);

  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(*frame).ok());
  std::string payload;
  ASSERT_TRUE(decoder.Next(&payload));
  EXPECT_EQ(payload, "{\"op\":\"ping\"}");
  EXPECT_FALSE(decoder.Next(&payload));
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(FrameTest, EncodeRejectsEmptyAndOversizedPayloads) {
  EXPECT_FALSE(EncodeFrame("").ok());
  EXPECT_TRUE(EncodeFrame("x", 1).ok());
  EXPECT_FALSE(EncodeFrame("xy", 1).ok());
}

TEST(FrameTest, DecodesByteByByteDelivery) {
  // The pathological fragmentation: every byte in its own read.
  std::string frame = EncodeFrame("hello frames").ValueOrDie();
  FrameDecoder decoder;
  std::string payload;
  for (size_t i = 0; i + 1 < frame.size(); ++i) {
    ASSERT_TRUE(decoder.Feed(frame.data() + i, 1).ok());
    EXPECT_FALSE(decoder.Next(&payload)) << "frame complete too early at " << i;
  }
  ASSERT_TRUE(decoder.Feed(frame.data() + frame.size() - 1, 1).ok());
  ASSERT_TRUE(decoder.Next(&payload));
  EXPECT_EQ(payload, "hello frames");
}

TEST(FrameTest, DecodesCoalescedFrames) {
  // Three frames in a single Feed pop in order.
  std::string stream = EncodeFrame("one").ValueOrDie() +
                       EncodeFrame("two").ValueOrDie() +
                       EncodeFrame("three").ValueOrDie();
  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(stream).ok());
  std::string payload;
  ASSERT_TRUE(decoder.Next(&payload));
  EXPECT_EQ(payload, "one");
  ASSERT_TRUE(decoder.Next(&payload));
  EXPECT_EQ(payload, "two");
  ASSERT_TRUE(decoder.Next(&payload));
  EXPECT_EQ(payload, "three");
  EXPECT_FALSE(decoder.Next(&payload));
}

TEST(FrameTest, TornWriteAcrossHeaderBoundary) {
  // A write torn inside the 4-byte header must reassemble.
  std::string frame = EncodeFrame("torn-header").ValueOrDie();
  FrameDecoder decoder;
  std::string payload;
  ASSERT_TRUE(decoder.Feed(frame.substr(0, 2)).ok());
  EXPECT_FALSE(decoder.Next(&payload));
  ASSERT_TRUE(decoder.Feed(frame.substr(2, 5)).ok());
  EXPECT_FALSE(decoder.Next(&payload));
  ASSERT_TRUE(decoder.Feed(frame.substr(7)).ok());
  ASSERT_TRUE(decoder.Next(&payload));
  EXPECT_EQ(payload, "torn-header");
}

TEST(FrameTest, ZeroLengthFramePoisonsDecoder) {
  FrameDecoder decoder;
  const char zero_header[4] = {0, 0, 0, 0};
  Status s = decoder.Feed(zero_header, 4);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(decoder.poisoned());
  // Sticky: later feeds keep failing, Next yields nothing.
  EXPECT_FALSE(decoder.Feed("abcd", 4).ok());
  std::string payload;
  EXPECT_FALSE(decoder.Next(&payload));
}

TEST(FrameTest, OversizedFrameRejectedFromHeaderAlone) {
  // max 16 bytes; header declares 17. No payload byte is ever fed — the
  // decoder must reject hostile lengths before buffering anything.
  FrameDecoder decoder(16);
  const char header[4] = {0, 0, 0, 17};
  EXPECT_FALSE(decoder.Feed(header, 4).ok());
  EXPECT_TRUE(decoder.poisoned());
  EXPECT_FALSE(EncodeFrame(std::string(17, 'x'), 16).ok())
      << "encoder must enforce the same limit";
}

TEST(FrameTest, PoisonBehindCompleteFramesSurfacesAfterDrain) {
  // A good frame and a poisoning zero header coalesced into one Feed: the
  // good frame still decodes, then the poison surfaces.
  std::string stream = EncodeFrame("good").ValueOrDie();
  stream.append(4, '\0');
  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(stream).ok());
  std::string payload;
  ASSERT_TRUE(decoder.Next(&payload));
  EXPECT_EQ(payload, "good");
  EXPECT_TRUE(decoder.poisoned());
  EXPECT_FALSE(decoder.Next(&payload));
}

TEST(FrameTest, LongStreamCompactsWithoutCorruption) {
  // Enough sequential frames to trigger internal buffer compaction; every
  // payload must come through intact and in order.
  FrameDecoder decoder;
  std::string payload;
  for (int i = 0; i < 500; ++i) {
    std::string body = "payload-" + std::to_string(i) + std::string(64, 'x');
    ASSERT_TRUE(decoder.Feed(EncodeFrame(body).ValueOrDie()).ok());
    ASSERT_TRUE(decoder.Next(&payload));
    EXPECT_EQ(payload, body);
  }
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

// ----------------------------------------------------------- event loop

TEST(EventLoopTest, PostedTasksRunOnLoopThread) {
  EventLoop loop;
  ASSERT_TRUE(loop.Init().ok());
  std::thread::id loop_thread;
  std::vector<int> order;
  loop.Post([&] {
    loop_thread = std::this_thread::get_id();
    order.push_back(1);
  });
  loop.Post([&] { order.push_back(2); });
  loop.Post([&loop] { loop.Stop(); });
  std::thread runner([&loop] { loop.Run(); });
  runner.join();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_NE(loop_thread, std::this_thread::get_id());
}

TEST(EventLoopTest, TickObservesExternalFlagAndStops) {
  EventLoop loop;
  ASSERT_TRUE(loop.Init().ok());
  std::atomic<bool> flag{false};
  loop.set_tick([&] {
    if (flag.load()) loop.Stop();
  });
  std::thread runner([&loop] { loop.Run(); });
  flag.store(true);
  loop.Post([] {});  // wake the loop so the tick fires now
  runner.join();
  SUCCEED();
}

// ---------------------------------------------------------- socket util

TEST(SocketUtilTest, ParseHostPort) {
  auto good = ParseHostPort("127.0.0.1:8080");
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->host, "127.0.0.1");
  EXPECT_EQ(good->port, 8080);
  EXPECT_EQ(ParseHostPort("localhost:0").ValueOrDie().port, 0);
  EXPECT_FALSE(ParseHostPort("no-port").ok());
  EXPECT_FALSE(ParseHostPort(":80").ok());
  EXPECT_FALSE(ParseHostPort("host:").ok());
  EXPECT_FALSE(ParseHostPort("host:99999").ok());
  EXPECT_FALSE(ParseHostPort("host:12x4").ok());
}

TEST(SocketUtilTest, ParseHostPortListNeedsExplicitPorts) {
  auto list = ParseHostPortList("127.0.0.1:7501,,localhost:7502,");
  ASSERT_TRUE(list.ok()) << list.status().ToString();
  ASSERT_EQ(list->size(), 2u);
  EXPECT_EQ((*list)[0].host, "127.0.0.1");
  EXPECT_EQ((*list)[0].port, 7501);
  EXPECT_EQ((*list)[1].host, "localhost");
  EXPECT_EQ((*list)[1].port, 7502);
  EXPECT_EQ(ParseHostPortList("h:1").ValueOrDie().size(), 1u);
  EXPECT_FALSE(ParseHostPortList("").ok());
  EXPECT_FALSE(ParseHostPortList(",").ok());
  EXPECT_FALSE(ParseHostPortList("h:1,h:0").ok()) << "port 0 cannot be dialed";
  EXPECT_FALSE(ParseHostPortList("h:1,no-port").ok());
}

// ------------------------------------------------------ loopback suites

constexpr char kMedalsCsv[] =
    "nation,gold,silver,bronze,total\n"
    "united states,10,12,8,30\n"
    "china,8,6,10,24\n"
    "japan,5,9,4,18\n";

std::string JsonEscapeNewlines(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string VerifyRequest(uint64_t id, const std::string& claim) {
  return "{\"id\":" + std::to_string(id) + ",\"op\":\"verify\",\"table\":\"" +
         JsonEscapeNewlines(kMedalsCsv) + "\",\"query\":\"" + claim + "\"}";
}

const serve::InferenceEngine& SharedEngine() {
  static const serve::InferenceEngine engine = [] {
    serve::EngineConfig config;
    return serve::InferenceEngine::Create(config, "", "").ValueOrDie();
  }();
  return engine;
}

/// Starts a serve::Server + net::Server pair on an ephemeral loopback
/// port, runs the loop on a background thread, and tears both down (in
/// dependency order) with the armed fault injector cleared.
class LoopbackTest : public ::testing::Test {
 protected:
  void StartServer(serve::ServerConfig server_config = {},
                   NetServerConfig net_config = {}) {
    server_config.metrics = &metrics_;
    net_config.metrics = &metrics_;
    net_config.host = "127.0.0.1";
    net_config.port = 0;
    backend_ =
        std::make_unique<serve::Server>(&SharedEngine(), server_config);
    net_ = std::make_unique<Server>(backend_.get(), net_config);
    ASSERT_TRUE(net_->Start().ok());
    ASSERT_NE(net_->port(), 0) << "ephemeral port must be resolved";
    loop_thread_ = std::thread([this] { net_->Run(); });
  }

  void TearDown() override {
    fault::FaultInjector::Global().Disarm();
    if (net_ != nullptr) net_->Shutdown();
    if (loop_thread_.joinable()) loop_thread_.join();
    net_.reset();
    backend_.reset();
  }

  Client MustConnect() {
    auto client = Client::Connect("127.0.0.1", net_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).ValueOrDie();
  }

  uint64_t CounterValue(const std::string& name) {
    return metrics_.counter(name)->value();
  }

  obs::MetricsRegistry metrics_;
  std::unique_ptr<serve::Server> backend_;
  std::unique_ptr<Server> net_;
  std::thread loop_thread_;
};

TEST_F(LoopbackTest, SingleClientRoundTrip) {
  StartServer();
  Client client = MustConnect();
  auto response = client.Call(
      VerifyRequest(7, "The gold of the row whose nation is japan is 5."));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_NE(response->find("\"id\":7"), std::string::npos) << *response;
  EXPECT_NE(response->find("\"status\":\"ok\""), std::string::npos)
      << *response;
  EXPECT_NE(response->find("\"label\":"), std::string::npos) << *response;
}

TEST_F(LoopbackTest, HealthOpAnswersLiveOverTcp) {
  StartServer();
  Client client = MustConnect();
  auto response = client.Call("{\"id\":1,\"op\":\"health\"}");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(
      response->rfind("{\"id\":1,\"status\":\"ok\",\"health\":\"live\"", 0), 0u)
      << *response;
  EXPECT_NE(response->find("\"queue_depth\":"), std::string::npos)
      << *response;
}

TEST_F(LoopbackTest, PipelinedResponsesKeepRequestOrder) {
  serve::ServerConfig server_config;
  server_config.scheduler.num_workers = 4;  // real interleaving
  StartServer(server_config);
  Client client = MustConnect();
  constexpr int kCount = 64;
  for (int i = 0; i < kCount; ++i) {
    // Alternate two claims so both cache paths (miss, hit) interleave.
    ASSERT_TRUE(client
                    .Send(VerifyRequest(
                        static_cast<uint64_t>(i + 1),
                        i % 2 == 0
                            ? "The gold of the row whose nation is japan is 5."
                            : "The total of the row whose nation is china is "
                              "24."))
                    .ok());
  }
  for (int i = 0; i < kCount; ++i) {
    auto response = client.RecvTimeout(10000);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_NE(response->find("\"id\":" + std::to_string(i + 1) + ","),
              std::string::npos)
        << "response " << i << " out of order: " << *response;
  }
}

TEST_F(LoopbackTest, ThirtyTwoConcurrentConnectionsNoLossNoReorder) {
  serve::ServerConfig server_config;
  server_config.scheduler.num_workers = 4;
  // Every request must come back "ok", so the scheduler queue must hold
  // the full burst — backpressure rejections have their own tests.
  server_config.scheduler.queue_capacity = 4096;
  StartServer(server_config);
  constexpr int kClients = 32;
  constexpr int kPerClient = 20;
  std::atomic<int> ok_responses{0};
  std::atomic<int> order_violations{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = Client::Connect("127.0.0.1", net_->port());
      if (!client.ok()) return;
      for (int i = 0; i < kPerClient; ++i) {
        uint64_t id = static_cast<uint64_t>(c * 1000 + i);
        if (!client
                 ->Send(VerifyRequest(
                     id, "The gold of the row whose nation is japan is 5."))
                 .ok()) {
          return;
        }
      }
      for (int i = 0; i < kPerClient; ++i) {
        uint64_t id = static_cast<uint64_t>(c * 1000 + i);
        auto response = client->RecvTimeout(20000);
        if (!response.ok()) return;
        if (response->find("\"id\":" + std::to_string(id) + ",") ==
            std::string::npos) {
          order_violations.fetch_add(1);
          return;
        }
        if (response->find("\"status\":\"ok\"") != std::string::npos) {
          ok_responses.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(order_violations.load(), 0);
  EXPECT_EQ(ok_responses.load(), kClients * kPerClient)
      << "every request must get exactly one in-order ok response";
  EXPECT_GE(CounterValue("net_connections_accepted_total"),
            static_cast<uint64_t>(kClients));
}

TEST_F(LoopbackTest, TcpResponsesAreByteIdenticalToStdioMode) {
  StartServer();
  // An independent serve::Server (fresh cache, own metrics) stands in for
  // stdio mode: HandleLine is exactly what the stdin loop calls.
  obs::MetricsRegistry stdio_metrics;
  serve::ServerConfig stdio_config;
  stdio_config.metrics = &stdio_metrics;
  // Health reports the instance's real worker count, so the comparison
  // instance must match the TCP server's configuration exactly.
  stdio_config.scheduler.num_workers = 4;
  serve::Server stdio(&SharedEngine(), stdio_config);

  std::vector<std::string> requests = {
      VerifyRequest(1, "The gold of the row whose nation is japan is 5."),
      VerifyRequest(2, "The total of the row whose nation is china is 99."),
      "{\"id\":3,\"op\":\"ping\"}",
      // health is deliberately absent: it now reports a live load
      // snapshot (queue depth / in-flight), which legitimately differs
      // between two instances at different moments. Its transport
      // behavior is covered by HealthOpAnswersLiveOverTcp.
      "not json at all",
      "{\"id\":5,\"op\":\"fly\"}",
      VerifyRequest(1, "The gold of the row whose nation is japan is 5."),
  };
  Client client = MustConnect();
  for (const std::string& request : requests) {
    auto tcp = client.Call(request);
    ASSERT_TRUE(tcp.ok()) << tcp.status().ToString();
    EXPECT_EQ(*tcp, stdio.HandleLine(request))
        << "transport must not change the response for: " << request;
  }
}

TEST_F(LoopbackTest, WatermarkPausesAndResumesReading) {
  // Stall the backend so dispatched frames stay in flight, overflowing
  // the pipeline limit; reading must pause, then resume once released.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  serve::ServerConfig server_config;
  server_config.scheduler.num_workers = 2;
  server_config.pre_execute_hook = [&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };
  NetServerConfig net_config;
  net_config.max_pipeline_depth = 4;
  StartServer(server_config, net_config);

  Client client = MustConnect();
  constexpr int kFirst = 8, kSecond = 8;
  for (int i = 0; i < kFirst; ++i) {
    ASSERT_TRUE(
        client
            .Send(VerifyRequest(
                static_cast<uint64_t>(i + 1),
                "The gold of the row whose nation is japan is " +
                    std::to_string(i) + "."))
            .ok());
  }
  // Wait until the stalled dispatches push in_flight past the limit and
  // the pause is registered.
  for (int spin = 0; spin < 500; ++spin) {
    if (CounterValue("net_read_paused_total") > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(CounterValue("net_read_paused_total"), 1u);
  // More requests land in the kernel buffer while reading is paused.
  for (int i = 0; i < kSecond; ++i) {
    ASSERT_TRUE(
        client
            .Send(VerifyRequest(
                static_cast<uint64_t>(kFirst + i + 1),
                "The gold of the row whose nation is japan is " +
                    std::to_string(kFirst + i) + "."))
            .ok());
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  for (int i = 0; i < kFirst + kSecond; ++i) {
    auto response = client.RecvTimeout(20000);
    ASSERT_TRUE(response.ok())
        << "response " << i << ": " << response.status().ToString();
    EXPECT_NE(response->find("\"id\":" + std::to_string(i + 1) + ","),
              std::string::npos)
        << *response;
  }
  EXPECT_GE(CounterValue("net_read_resumed_total"), 1u);
}

TEST_F(LoopbackTest, SlowReaderIsShedNotBufferedForever) {
  NetServerConfig net_config;
  net_config.so_sndbuf = 4096;
  net_config.write_high_watermark = 2048;
  net_config.write_low_watermark = 512;
  net_config.write_shed_bytes = 16384;
  StartServer({}, net_config);

  // A raw socket with a tiny receive buffer (set before connect so the
  // window is negotiated small) that sends a flood and never reads.
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  int rcvbuf = 4096;
  setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(net_->port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                    sizeof(addr)),
            0);
  std::string request =
      VerifyRequest(1, "The gold of the row whose nation is japan is 5.");
  std::string frame = EncodeFrame(request).ValueOrDie();
  bool peer_closed = false;
  for (int i = 0; i < 4000 && !peer_closed; ++i) {
    size_t off = 0;
    while (off < frame.size()) {
      ssize_t n = send(fd, frame.data() + off, frame.size() - off,
                       MSG_NOSIGNAL);
      if (n <= 0) {  // EPIPE/ECONNRESET: the server shed us
        peer_closed = true;
        break;
      }
      off += static_cast<size_t>(n);
    }
  }
  for (int spin = 0; spin < 1000; ++spin) {
    if (CounterValue("net_connections_shed_total") > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(CounterValue("net_connections_shed_total"), 1u)
      << "a client that never reads its responses must be shed";
  close(fd);

  // The server is still healthy for well-behaved clients afterwards.
  Client client = MustConnect();
  auto response = client.Call("{\"id\":2,\"op\":\"ping\"}");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_NE(response->find("\"status\":\"ok\""), std::string::npos);
}

TEST_F(LoopbackTest, ShutdownDrainsInFlightRequestsBeforeClosing) {
  // Stall the backend, fire Shutdown with requests in flight, then
  // release: every response must still arrive, then a clean EOF.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  serve::ServerConfig server_config;
  server_config.scheduler.num_workers = 2;
  server_config.pre_execute_hook = [&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };
  StartServer(server_config);

  Client client = MustConnect();
  constexpr int kCount = 5;
  for (int i = 0; i < kCount; ++i) {
    ASSERT_TRUE(
        client
            .Send(VerifyRequest(
                static_cast<uint64_t>(i + 1),
                "The gold of the row whose nation is japan is " +
                    std::to_string(i) + "."))
            .ok());
  }
  // Let the loop dispatch them, then start the drain while they're stuck.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  net_->Shutdown();
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  for (int i = 0; i < kCount; ++i) {
    auto response = client.RecvTimeout(20000);
    ASSERT_TRUE(response.ok())
        << "drain dropped response " << i << ": "
        << response.status().ToString();
    EXPECT_NE(response->find("\"id\":" + std::to_string(i + 1) + ","),
              std::string::npos)
        << *response;
  }
  auto eof = client.RecvTimeout(20000);
  EXPECT_FALSE(eof.ok()) << "connection must close after the drain";
  loop_thread_.join();  // Run() must return on its own
  EXPECT_EQ(net_->active_connections(), 0u);
}

TEST_F(LoopbackTest, ShutdownFlagTriggersDrainLikeSigterm) {
  // The CLI wires its signal-handler flag here; setting it must end Run().
  static std::atomic<bool> flag;
  flag.store(false);
  StartServer();
  net_->set_shutdown_flag(&flag);
  Client client = MustConnect();
  ASSERT_TRUE(client.Call("{\"id\":1,\"op\":\"ping\"}").ok());
  flag.store(true);
  loop_thread_.join();  // the 100 ms tick observes the flag
  SUCCEED();
}

TEST_F(LoopbackTest, HalfCloseFlushesPendingResponsesThenCloses) {
  StartServer();
  Client client = MustConnect();
  constexpr int kCount = 3;
  for (int i = 0; i < kCount; ++i) {
    ASSERT_TRUE(
        client
            .Send(VerifyRequest(
                static_cast<uint64_t>(i + 1),
                "The gold of the row whose nation is japan is 5."))
            .ok());
  }
  client.ShutdownWrite();  // EOF to the server; responses still owed
  for (int i = 0; i < kCount; ++i) {
    auto response = client.RecvTimeout(10000);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_NE(response->find("\"id\":" + std::to_string(i + 1) + ","),
              std::string::npos);
  }
  auto eof = client.RecvTimeout(10000);
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), StatusCode::kUnavailable)
      << "close must land between frames, not mid-frame: "
      << eof.status().ToString();
}

TEST_F(LoopbackTest, ProtocolViolationClosesConnection) {
  StartServer();
  int fd = ConnectTcp("127.0.0.1", net_->port()).ValueOrDie();
  const char zero_header[4] = {0, 0, 0, 0};
  ASSERT_EQ(send(fd, zero_header, 4, MSG_NOSIGNAL), 4);
  char buf[16];
  EXPECT_EQ(read(fd, buf, sizeof(buf)), 0) << "server must close on poison";
  close(fd);
  EXPECT_GE(CounterValue("net_protocol_errors_total"), 1u);
}

TEST_F(LoopbackTest, OversizedFrameFromClientClosesConnection) {
  NetServerConfig net_config;
  net_config.max_frame_bytes = 1024;  // server-side limit only
  StartServer({}, net_config);
  int fd = ConnectTcp("127.0.0.1", net_->port()).ValueOrDie();
  // Encode under the client's (default, larger) limit.
  std::string frame = EncodeFrame(std::string(2048, 'x')).ValueOrDie();
  size_t off = 0;
  while (off < frame.size()) {
    ssize_t n = send(fd, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (n <= 0) break;  // server may already have closed on the header
    off += static_cast<size_t>(n);
  }
  char buf[16];
  EXPECT_EQ(read(fd, buf, sizeof(buf)), 0);
  close(fd);
  EXPECT_GE(CounterValue("net_protocol_errors_total"), 1u);
}

TEST_F(LoopbackTest, MaxConnectionsRefusesTheOverflow) {
  NetServerConfig net_config;
  net_config.max_connections = 1;
  StartServer({}, net_config);
  Client first = MustConnect();
  ASSERT_TRUE(first.Call("{\"id\":1,\"op\":\"ping\"}").ok());
  // The second connect succeeds at TCP level (the kernel completes the
  // handshake) but the server closes it without serving a frame.
  auto second = Client::Connect("127.0.0.1", net_->port());
  ASSERT_TRUE(second.ok());
  (void)second->Send("{\"id\":2,\"op\":\"ping\"}");
  EXPECT_FALSE(second->RecvTimeout(10000).ok());
  EXPECT_GE(CounterValue("net_connections_refused_total"), 1u);
  // The admitted connection is unaffected.
  EXPECT_TRUE(first.Call("{\"id\":3,\"op\":\"ping\"}").ok());
}

TEST_F(LoopbackTest, AcceptFaultRefusesConnectionsNotTheServer) {
  StartServer();
  Client before = MustConnect();
  ASSERT_TRUE(before.Call("{\"id\":1,\"op\":\"ping\"}").ok());
  ASSERT_TRUE(
      fault::FaultInjector::Global().ArmSpec("net.accept=error:p=1").ok());
  auto faulted = Client::Connect("127.0.0.1", net_->port());
  ASSERT_TRUE(faulted.ok());  // handshake done by the kernel
  (void)faulted->Send("{\"id\":2,\"op\":\"ping\"}");
  EXPECT_FALSE(faulted->RecvTimeout(10000).ok())
      << "a faulted accept must drop the connection";
  EXPECT_GE(CounterValue("net_connections_refused_total"), 1u);
  fault::FaultInjector::Global().Disarm();
  // Existing connections rode out the fault; new ones work again.
  EXPECT_TRUE(before.Call("{\"id\":3,\"op\":\"ping\"}").ok());
  Client after = MustConnect();
  EXPECT_TRUE(after.Call("{\"id\":4,\"op\":\"ping\"}").ok());
}

TEST_F(LoopbackTest, ReadFaultClosesOnlyTheStruckConnection) {
  StartServer();
  Client victim = MustConnect();
  ASSERT_TRUE(victim.Call("{\"id\":1,\"op\":\"ping\"}").ok());
  ASSERT_TRUE(
      fault::FaultInjector::Global().ArmSpec("net.read=error:n=1").ok());
  (void)victim.Send("{\"id\":2,\"op\":\"ping\"}");
  EXPECT_FALSE(victim.RecvTimeout(10000).ok())
      << "the struck connection must be closed";
  fault::FaultInjector::Global().Disarm();
  Client fresh = MustConnect();
  EXPECT_TRUE(fresh.Call("{\"id\":3,\"op\":\"ping\"}").ok());
}

// ------------------------------------------- client timeout regressions

/// A raw loopback listener that accepts connections but never writes —
/// the stall shape RecvTimeout exists for.
int MakeSilentListener(uint16_t* port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  EXPECT_EQ(::listen(fd, 4), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  *port = ntohs(addr.sin_port);
  return fd;
}

extern "C" void NoopSignalHandler(int) {}

TEST(ClientTimeoutTest, RecvTimeoutHoldsUnderSignalStorm) {
  // Regression: RecvTimeout recomputed its remaining budget by clamping
  // a negative `left` to 0 and polling again; once the deadline passed, a
  // stream of signals (each EINTR-ing the zero-timeout poll) could keep
  // the loop spinning forever. The deadline must bound the call no matter
  // how often signals land.
  uint16_t port = 0;
  int listener = MakeSilentListener(&port);
  auto client = Client::Connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok());

  struct sigaction action = {};
  struct sigaction saved = {};
  action.sa_handler = NoopSignalHandler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // deliberately no SA_RESTART — poll sees EINTR
  ASSERT_EQ(sigaction(SIGUSR1, &action, &saved), 0);

  std::atomic<bool> storming{true};
  pthread_t target = pthread_self();
  std::thread storm([&] {
    while (storming.load()) {
      pthread_kill(target, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  auto started = std::chrono::steady_clock::now();
  auto response = client->RecvTimeout(150);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - started)
                     .count();
  storming.store(false);
  storm.join();
  sigaction(SIGUSR1, &saved, nullptr);
  ::close(listener);

  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded)
      << response.status().ToString();
  EXPECT_LT(elapsed, 2000) << "signal storm must not extend the timeout";
}

TEST(ClientTimeoutTest, RecvTimeoutNotExtendedByTrickledPartialFrame) {
  // Regression: a peer feeding one byte per wakeup kept poll() readable
  // on every iteration, and each read reset the loop without ever
  // checking the deadline — the effective timeout was "as long as bytes
  // keep arriving". Partial-frame progress must not extend the budget.
  uint16_t port = 0;
  int listener = MakeSilentListener(&port);
  auto client = Client::Connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok());
  int conn = ::accept(listener, nullptr, nullptr);
  ASSERT_GE(conn, 0);

  std::atomic<bool> trickling{true};
  std::thread trickler([&] {
    // A valid header declaring a 1 MiB payload, then payload bytes one
    // at a time, fast enough that the fd is readable on nearly every
    // poll.
    const char header[4] = {0, 0x10, 0, 0};
    (void)::send(conn, header, sizeof(header), MSG_NOSIGNAL);
    while (trickling.load()) {
      (void)::send(conn, "x", 1, MSG_NOSIGNAL);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  auto started = std::chrono::steady_clock::now();
  auto response = client->RecvTimeout(200);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - started)
                     .count();
  trickling.store(false);
  trickler.join();
  ::close(conn);
  ::close(listener);

  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded)
      << response.status().ToString();
  EXPECT_LT(elapsed, 1500) << "trickled bytes must not extend the timeout";
}

TEST(FrameTest, EncodeRejectsPayloadsBeyondHeaderWidth) {
  // A payload whose size cannot fit the 4-byte length header must be
  // rejected even when max_frame_bytes allows it — truncating size_t
  // into the u32 header would silently frame the first (size mod 2^32)
  // bytes. The string_view below fabricates the size without backing
  // memory; EncodeFrame must reject on size alone, before touching data.
  char byte = 'x';
  std::string_view huge(&byte, static_cast<size_t>(UINT32_MAX) + 2);
  auto frame = EncodeFrame(huge, SIZE_MAX);
  ASSERT_FALSE(frame.ok());
  EXPECT_NE(frame.status().ToString().find("32-bit"), std::string::npos)
      << frame.status().ToString();
}

}  // namespace
}  // namespace uctr::net
