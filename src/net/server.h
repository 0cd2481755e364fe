#ifndef UCTR_NET_SERVER_H_
#define UCTR_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>

#include "net/event_loop.h"
#include "net/frame.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/backend.h"

namespace uctr::net {

/// \brief Transport knobs for the TCP front end.
struct NetServerConfig {
  /// Bind address. Port 0 binds an ephemeral port; Start() resolves it
  /// (see Server::port()).
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  size_t max_connections = 1024;
  size_t max_frame_bytes = kDefaultMaxFrameBytes;

  /// Per-connection write-queue watermarks. Above `high` the connection
  /// stops being read (EPOLLIN off — responses for frames already
  /// dispatched keep flowing, new requests wait in the kernel buffer);
  /// below `low` reading resumes. Above `shed` the connection is closed
  /// outright: a client that stops reading its responses is shed rather
  /// than allowed to pin response memory — serving workers are never
  /// blocked by a slow client either way (writes are queued, workers
  /// hand off and return).
  size_t write_high_watermark = 1u << 20;   // 1 MiB
  size_t write_low_watermark = 256u << 10;  // 256 KiB
  size_t write_shed_bytes = 8u << 20;       // 8 MiB

  /// Frames dispatched but not yet answered, per connection; reading
  /// pauses above this (resumes at half), bounding per-connection memory
  /// even when responses are small but slow.
  size_t max_pipeline_depth = 256;

  /// Graceful drain gives in-flight requests and unflushed responses
  /// this long before force-closing the remaining connections.
  int drain_timeout_ms = 10000;

  /// SO_SNDBUF for accepted sockets; 0 keeps the kernel default. Tests
  /// shrink this so watermark/shed behavior triggers deterministically
  /// without megabytes of traffic.
  int so_sndbuf = 0;

  /// Metrics sink; null = the process-wide obs::DefaultRegistry().
  obs::MetricsRegistry* metrics = nullptr;
  /// Trace sink; null = obs::Tracer::Default().
  obs::Tracer* tracer = nullptr;
};

/// \brief The epoll TCP front end: accepts connections, decodes
/// length-prefixed frames (see net/frame.h), dispatches each payload to a
/// serve::LineBackend — the local worker pool (serve::Server) or the
/// shard router (net::Router) — and writes framed responses back — per
/// connection, in the order the requests arrived on that connection,
/// regardless of how workers interleave.
///
/// Threading model: all connection state lives on the thread inside
/// Run(). Worker completion callbacks cross back via EventLoop::Post, so
/// connection state machines need no locks and a worker never blocks on
/// a client socket. Shutdown() is safe from any thread.
///
/// Connection state machine (per connection):
///
///   reading --high watermark / pipeline full--> paused
///   paused  --low watermark & pipeline drains--> reading
///   reading/paused --peer EOF--> half-closed (finish responses, close)
///   any     --write queue > shed limit--> shed (closed immediately)
///   any     --protocol error / read-write error / fault--> closed
///   any     --drain--> draining (no new reads; close when idle)
///
/// Fault points: `net.accept`, `net.read`, `net.write` (an injected
/// error closes that connection; latency stalls the loop tick) — armed
/// via --fault-spec like every other site.
class Server {
 public:
  /// \param backend not owned; must outlive the net::Server. The
  /// destructor drains it so no completion callback can outlive this
  /// transport.
  Server(serve::LineBackend* backend, NetServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// \brief Creates, binds, and registers the listener. On success
  /// port() returns the actual bound port (resolves port 0).
  Status Start();

  uint16_t port() const { return bound_port_; }

  /// \brief Serves on the calling thread until a graceful drain
  /// completes (Shutdown(), the shutdown flag, or drain timeout).
  void Run();

  /// \brief Initiates graceful drain from any thread: stop accepting,
  /// mark the backend draining (health probes answer "draining"), finish
  /// in-flight requests, flush every write queue, then Run() returns.
  /// Idempotent.
  void Shutdown();

  /// \brief Polled once per loop tick; when set, triggers Shutdown().
  /// Wire this to InstallShutdownHandlers() so SIGTERM starts the drain.
  void set_shutdown_flag(const std::atomic<bool>* flag) {
    shutdown_flag_ = flag;
  }

  /// \brief Live connections (loop thread, or after Run() returns).
  size_t active_connections() const { return connections_.size(); }

  EventLoop* loop() { return &loop_; }

 private:
  struct Connection;

  void OnAcceptReady();
  void OnConnectionEvent(const std::shared_ptr<Connection>& conn,
                         uint32_t events);
  void ReadFromConnection(const std::shared_ptr<Connection>& conn);
  void DispatchFrame(const std::shared_ptr<Connection>& conn,
                     std::string payload);
  void OnResponse(const std::shared_ptr<Connection>& conn, uint64_t sequence,
                  std::string response_line);
  /// Moves the contiguous completed-response prefix into the write queue
  /// as frames, then updates watermark state.
  void FlushCompleted(const std::shared_ptr<Connection>& conn);
  void TryWrite(const std::shared_ptr<Connection>& conn);
  void UpdateReadInterest(const std::shared_ptr<Connection>& conn);
  void CloseConnection(const std::shared_ptr<Connection>& conn,
                       const char* reason);
  void BeginDrain();
  void Tick();
  void CheckDrainComplete();

  serve::LineBackend* backend_;
  NetServerConfig config_;
  obs::MetricsRegistry* metrics_;
  obs::Tracer* tracer_;
  EventLoop loop_;
  int listen_fd_ = -1;
  uint16_t bound_port_ = 0;
  uint64_t next_conn_id_ = 1;
  std::unordered_map<uint64_t, std::shared_ptr<Connection>> connections_;
  /// Requests dispatched to the backend and not yet answered, across all
  /// connections — counts completions whose connection died too, so the
  /// drain barrier is exact.
  size_t in_flight_total_ = 0;
  bool draining_ = false;
  std::chrono::steady_clock::time_point drain_deadline_{};
  std::atomic<bool> shutdown_requested_{false};
  const std::atomic<bool>* shutdown_flag_ = nullptr;

  obs::Counter* accepted_total_;
  obs::Counter* closed_total_;
  obs::Counter* refused_total_;
  obs::Counter* shed_total_;
  obs::Counter* frames_in_total_;
  obs::Counter* frames_out_total_;
  obs::Counter* bytes_in_total_;
  obs::Counter* bytes_out_total_;
  obs::Counter* protocol_errors_total_;
  obs::Counter* read_paused_total_;
  obs::Counter* read_resumed_total_;
  obs::Histogram* frame_us_;
};

/// \brief Installs SIGINT/SIGTERM handlers (no SA_RESTART, so a blocked
/// read fails with EINTR) that set the returned flag. It is a lock-free
/// atomic: safe to store from a handler and to load on another thread,
/// which a `volatile sig_atomic_t` is not.
const std::atomic<bool>& InstallShutdownHandlers();

}  // namespace uctr::net

#endif  // UCTR_NET_SERVER_H_
