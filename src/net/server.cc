#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "net/socket_util.h"

namespace uctr::net {

namespace {

using Clock = std::chrono::steady_clock;

/// Pending-connection queue length passed to listen(2).
constexpr int kListenBacklog = 128;

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

std::atomic<bool> g_shutdown_requested{false};
static_assert(std::atomic<bool>::is_always_lock_free,
              "the shutdown flag is stored from a signal handler");

extern "C" void HandleShutdownSignal(int) {
  g_shutdown_requested.store(true, std::memory_order_relaxed);
}

}  // namespace

const std::atomic<bool>& InstallShutdownHandlers() {
  struct sigaction action = {};
  action.sa_handler = HandleShutdownSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // deliberately no SA_RESTART
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
  return g_shutdown_requested;
}

/// \brief Per-connection state. Owned by the loop thread exclusively:
/// worker completions re-enter through EventLoop::Post, so no field here
/// needs a lock.
struct Server::Connection {
  Connection(int fd_in, uint64_t id_in, size_t max_frame_bytes)
      : fd(fd_in), id(id_in), decoder(max_frame_bytes) {}

  int fd;
  uint64_t id;
  FrameDecoder decoder;

  /// Response ordering: frames get dense per-connection sequence numbers
  /// at dispatch; completions park in `completed` until the contiguous
  /// prefix can be framed into the write queue — so responses leave in
  /// request order no matter how workers interleave.
  uint64_t next_assign = 0;
  uint64_t next_flush = 0;
  std::map<uint64_t, std::string> completed;
  size_t in_flight = 0;

  /// Coalesced write queue: [write_off, write_buf.size()) is unsent.
  std::string write_buf;
  size_t write_off = 0;

  uint32_t interest = 0;   ///< Current epoll mask.
  bool paused = false;     ///< Reading suspended (watermark / pipeline).
  bool peer_eof = false;   ///< Half-closed: no more requests will arrive.
  bool draining = false;   ///< Server drain: stop reading, finish, close.
  bool closed = false;

  size_t write_bytes() const { return write_buf.size() - write_off; }
  bool idle() const {
    return in_flight == 0 && completed.empty() && write_bytes() == 0;
  }
};

Server::Server(serve::LineBackend* backend, NetServerConfig config)
    : backend_(backend),
      config_(config),
      metrics_(config.metrics != nullptr ? config.metrics
                                         : &obs::DefaultRegistry()),
      tracer_(config.tracer != nullptr ? config.tracer
                                       : &obs::Tracer::Default()),
      accepted_total_(metrics_->counter("net_connections_accepted_total")),
      closed_total_(metrics_->counter("net_connections_closed_total")),
      refused_total_(metrics_->counter("net_connections_refused_total")),
      shed_total_(metrics_->counter("net_connections_shed_total")),
      frames_in_total_(metrics_->counter("net_frames_in_total")),
      frames_out_total_(metrics_->counter("net_frames_out_total")),
      bytes_in_total_(metrics_->counter("net_bytes_in_total")),
      bytes_out_total_(metrics_->counter("net_bytes_out_total")),
      protocol_errors_total_(metrics_->counter("net_protocol_errors_total")),
      read_paused_total_(metrics_->counter("net_read_paused_total")),
      read_resumed_total_(metrics_->counter("net_read_resumed_total")),
      frame_us_(metrics_->histogram("latency_net_frame_us")) {
  loop_.set_tick([this] { Tick(); });
}

Server::~Server() {
  // Outstanding backend jobs hold completion closures that Post into this
  // object; drain them before any member dies. (A graceful Run() exit has
  // already done this — the drain barrier waits for every dispatched
  // request — so this only blocks after an abnormal stop.)
  backend_->Drain();
  for (auto& [id, conn] : connections_) {
    if (!conn->closed) close(conn->fd);
  }
  connections_.clear();
  if (listen_fd_ >= 0) close(listen_fd_);
}

Status Server::Start() {
  UCTR_RETURN_NOT_OK(loop_.Init());
  std::string ip;
  UCTR_ASSIGN_OR_RETURN(ip, ResolveIPv4(config_.host));
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return ErrnoStatus("socket");
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  inet_pton(AF_INET, ip.c_str(), &addr.sin_addr);
  if (bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
           sizeof(addr)) != 0) {
    Status s = ErrnoStatus("bind " + ip + ":" + std::to_string(config_.port));
    close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (listen(listen_fd_, kListenBacklog) != 0) {
    Status s = ErrnoStatus("listen");
    close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                  &len) == 0) {
    bound_port_ = ntohs(addr.sin_port);
  }
  return loop_.Add(listen_fd_, EPOLLIN, [this](uint32_t) { OnAcceptReady(); });
}

void Server::Run() { loop_.Run(); }

void Server::Shutdown() {
  shutdown_requested_.store(true, std::memory_order_release);
  // Wake the loop so the tick observes the request now, not a wait later.
  loop_.Post([] {});
}

void Server::Tick() {
  if (shutdown_flag_ != nullptr &&
      shutdown_flag_->load(std::memory_order_relaxed)) {
    shutdown_requested_.store(true, std::memory_order_release);
  }
  if (shutdown_requested_.load(std::memory_order_acquire) && !draining_) {
    BeginDrain();
  }
  if (draining_ && Clock::now() >= drain_deadline_) {
    // Clients that never read their responses (or a wedged backend) must
    // not hold the drain hostage: force-close what remains and stop. The
    // destructor's backend drain still waits out any running jobs.
    std::vector<std::shared_ptr<Connection>> remaining;
    remaining.reserve(connections_.size());
    for (auto& [id, conn] : connections_) remaining.push_back(conn);
    for (auto& conn : remaining) CloseConnection(conn, "drain_timeout");
    loop_.Stop();
  }
}

void Server::BeginDrain() {
  draining_ = true;
  backend_->set_draining(true);
  drain_deadline_ =
      Clock::now() + std::chrono::milliseconds(config_.drain_timeout_ms);
  if (listen_fd_ >= 0) {
    loop_.Remove(listen_fd_);
    close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::shared_ptr<Connection>> conns;
  conns.reserve(connections_.size());
  for (auto& [id, conn] : connections_) conns.push_back(conn);
  for (auto& conn : conns) {
    conn->draining = true;
    if (conn->idle()) {
      CloseConnection(conn, "drain");
    } else {
      UpdateReadInterest(conn);  // stops reading; writes keep flowing
    }
  }
  CheckDrainComplete();
}

void Server::CheckDrainComplete() {
  if (draining_ && connections_.empty() && in_flight_total_ == 0) {
    loop_.Stop();
  }
}

void Server::OnAcceptReady() {
  while (true) {
    int fd = accept4(listen_fd_, nullptr, nullptr,
                     SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN or a transient accept error: wait for epoll
    }
    obs::Span span = tracer_->StartSpan("net.accept");
    Status fault = UCTR_FAULT_POINT("net.accept");
    if (!fault.ok() || draining_ ||
        connections_.size() >= config_.max_connections) {
      // A faulted front door behaves like an overloaded one: the
      // connection is dropped before any frame is read.
      span.AddAttr("refused", fault.ok() ? "capacity" : "fault");
      refused_total_->Increment();
      close(fd);
      continue;
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (config_.so_sndbuf > 0) {
      setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &config_.so_sndbuf,
                 sizeof(config_.so_sndbuf));
    }
    auto conn = std::make_shared<Connection>(fd, next_conn_id_++,
                                             config_.max_frame_bytes);
    conn->interest = EPOLLIN;
    Status added = loop_.Add(fd, EPOLLIN, [this, conn](uint32_t events) {
      OnConnectionEvent(conn, events);
    });
    if (!added.ok()) {
      refused_total_->Increment();
      close(fd);
      continue;
    }
    connections_[conn->id] = conn;
    accepted_total_->Increment();
  }
}

void Server::OnConnectionEvent(const std::shared_ptr<Connection>& conn,
                               uint32_t events) {
  if (conn->closed) return;
  if ((events & EPOLLERR) != 0) {
    CloseConnection(conn, "socket_error");
    return;
  }
  if ((events & EPOLLIN) != 0) {
    ReadFromConnection(conn);
    if (conn->closed) return;
  } else if ((events & EPOLLHUP) != 0) {
    // HUP without readable data: the peer is gone for good.
    CloseConnection(conn, "hangup");
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    TryWrite(conn);
    if (conn->closed) return;
    UpdateReadInterest(conn);
  }
}

void Server::ReadFromConnection(const std::shared_ptr<Connection>& conn) {
  Status fault = UCTR_FAULT_POINT("net.read");
  if (!fault.ok()) {
    CloseConnection(conn, "read_fault");
    return;
  }
  obs::Span span = tracer_->StartSpan("net.decode");
  // Per-batch read budget: a firehose client yields the loop back to its
  // peers every 256 KiB instead of starving them (level-triggered epoll
  // re-arms immediately).
  constexpr size_t kReadBudget = 256u << 10;
  char buf[65536];
  size_t batch_bytes = 0;
  while (batch_bytes < kReadBudget) {
    ssize_t n = read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      batch_bytes += static_cast<size_t>(n);
      bytes_in_total_->Increment(static_cast<uint64_t>(n));
      Status fed = conn->decoder.Feed(buf, static_cast<size_t>(n));
      if (!fed.ok()) break;  // poisoned; frames already buffered still serve
      continue;
    }
    if (n == 0) {
      conn->peer_eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConnection(conn, "read_error");
    return;
  }
  size_t frames = 0;
  std::string payload;
  while (!conn->closed && conn->decoder.Next(&payload)) {
    ++frames;
    frames_in_total_->Increment();
    DispatchFrame(conn, std::move(payload));
  }
  if (conn->closed) return;
  span.AddAttr("frames", std::to_string(frames));
  if (conn->decoder.poisoned()) {
    // Oversized or zero-length header: the stream cannot be resynced.
    protocol_errors_total_->Increment();
    CloseConnection(conn, "protocol_error");
    return;
  }
  if (conn->peer_eof && conn->idle()) {
    CloseConnection(conn, "eof");
    return;
  }
  UpdateReadInterest(conn);
}

void Server::DispatchFrame(const std::shared_ptr<Connection>& conn,
                           std::string payload) {
  obs::Span span = tracer_->StartSpan("net.dispatch");
  uint64_t sequence = conn->next_assign++;
  ++conn->in_flight;
  ++in_flight_total_;
  auto started = Clock::now();
  std::weak_ptr<Connection> weak = conn;
  // The done callback runs on a worker thread (or inline on this thread
  // for cache hits and errors); either way the response crosses back to
  // the loop thread via Post, and a weak_ptr keeps a dead connection from
  // pinning its buffers — the response is simply dropped, the drain
  // accounting is not.
  backend_->SubmitLine(
      payload, [this, weak, sequence, started](std::string line) {
        loop_.Post([this, weak, sequence, started,
                    line = std::move(line)]() mutable {
          frame_us_->Observe(MicrosSince(started));
          OnResponse(weak.lock(), sequence, std::move(line));
        });
      });
}

void Server::OnResponse(const std::shared_ptr<Connection>& conn,
                        uint64_t sequence, std::string response_line) {
  --in_flight_total_;
  if (conn != nullptr && !conn->closed) {
    --conn->in_flight;
    conn->completed.emplace(sequence, std::move(response_line));
    FlushCompleted(conn);
    if (!conn->closed) TryWrite(conn);
    if (!conn->closed) {
      if ((conn->peer_eof || conn->draining) && conn->idle()) {
        CloseConnection(conn, conn->draining ? "drain" : "eof");
      } else {
        UpdateReadInterest(conn);
      }
    }
  }
  CheckDrainComplete();
}

void Server::FlushCompleted(const std::shared_ptr<Connection>& conn) {
  while (!conn->completed.empty() &&
         conn->completed.begin()->first == conn->next_flush) {
    auto frame =
        EncodeFrame(conn->completed.begin()->second, config_.max_frame_bytes);
    if (!frame.ok()) {
      // A response too large to frame (e.g. a metrics dump past the frame
      // limit) cannot be skipped either — the per-connection ordering
      // contract is one response per request — so the connection dies.
      protocol_errors_total_->Increment();
      CloseConnection(conn, "response_overflow");
      return;
    }
    conn->write_buf += *frame;
    frames_out_total_->Increment();
    conn->completed.erase(conn->completed.begin());
    ++conn->next_flush;
  }
  if (conn->write_bytes() > config_.write_shed_bytes) {
    // The slow-reader backstop: pausing reads already capped new work,
    // but responses for frames in flight can still pile up. A client
    // this far behind is shed, not buffered for.
    shed_total_->Increment();
    CloseConnection(conn, "shed_slow_reader");
  }
}

void Server::TryWrite(const std::shared_ptr<Connection>& conn) {
  if (conn->write_bytes() == 0) return;
  Status fault = UCTR_FAULT_POINT("net.write");
  if (!fault.ok()) {
    CloseConnection(conn, "write_fault");
    return;
  }
  obs::Span span = tracer_->StartSpan("net.write");
  size_t wrote = 0;
  while (conn->write_bytes() > 0) {
    ssize_t n = write(conn->fd, conn->write_buf.data() + conn->write_off,
                      conn->write_bytes());
    if (n > 0) {
      conn->write_off += static_cast<size_t>(n);
      wrote += static_cast<size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    bytes_out_total_->Increment(wrote);
    CloseConnection(conn, "write_error");
    return;
  }
  bytes_out_total_->Increment(wrote);
  span.AddAttr("bytes", std::to_string(wrote));
  if (conn->write_off == conn->write_buf.size()) {
    conn->write_buf.clear();
    conn->write_off = 0;
  }
  if ((conn->peer_eof || conn->draining) && conn->idle()) {
    CloseConnection(conn, conn->draining ? "drain" : "eof");
  }
}

void Server::UpdateReadInterest(const std::shared_ptr<Connection>& conn) {
  if (conn->closed) return;
  // Watermark state machine: pause above the high mark (or a full
  // pipeline), resume only below the low mark (hysteresis, so a client
  // hovering at the boundary does not flap interest registration).
  bool over_high = conn->write_bytes() >= config_.write_high_watermark ||
                   conn->in_flight >= config_.max_pipeline_depth;
  bool under_low = conn->write_bytes() <= config_.write_low_watermark &&
                   conn->in_flight <= config_.max_pipeline_depth / 2;
  if (!conn->paused && over_high) {
    conn->paused = true;
    read_paused_total_->Increment();
  } else if (conn->paused && under_low) {
    conn->paused = false;
    read_resumed_total_->Increment();
  }
  bool reading = !conn->paused && !conn->peer_eof && !conn->draining;
  uint32_t want = (reading ? EPOLLIN : 0u) |
                  (conn->write_bytes() > 0 ? EPOLLOUT : 0u);
  if (want != conn->interest) {
    conn->interest = want;
    loop_.Modify(conn->fd, want);
  }
}

void Server::CloseConnection(const std::shared_ptr<Connection>& conn,
                             const char* reason) {
  if (conn->closed) return;
  conn->closed = true;
  obs::Span span = tracer_->StartSpan("net.close");
  span.AddAttr("reason", reason);
  loop_.Remove(conn->fd);
  close(conn->fd);
  closed_total_->Increment();
  connections_.erase(conn->id);
  CheckDrainComplete();
}

}  // namespace uctr::net
