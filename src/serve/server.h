#ifndef UCTR_SERVE_SERVER_H_
#define UCTR_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "ir/plan_cache.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/backend.h"
#include "serve/engine.h"
#include "serve/result_cache.h"
#include "serve/scheduler.h"
#include "store/durable_registry.h"
#include "store/registry.h"

namespace uctr::serve {

/// \brief Serving knobs: worker pool, admission queue, cache, deadlines.
struct ServerConfig {
  SchedulerConfig scheduler;
  size_t cache_capacity = 4096;
  /// Applied when a request carries no `timeout_ms`; 0 = no deadline.
  int64_t default_timeout_ms = 0;
  /// Requests may not extend their deadline beyond this; larger (or
  /// non-finite) client-supplied `timeout_ms` values run with no deadline
  /// at all rather than overflowing the deadline arithmetic.
  static constexpr double kMaxTimeoutMs = 1e9;  // ~11.6 days
  /// Metrics sink; null = the process-wide obs::DefaultRegistry(), so the
  /// serving counters land next to the generation/executor ones. Tests
  /// that assert exact counts pass their own registry.
  obs::MetricsRegistry* metrics = nullptr;
  /// Trace sink; null = obs::Tracer::Default(). Spans are recorded only
  /// while the tracer is enabled.
  obs::Tracer* tracer = nullptr;
  /// Invoked on the worker thread before each cache-miss execution or
  /// put_table. perfbench's traced replay stamps worker pickup with it,
  /// and net_test stalls workers with it to hold requests in flight.
  /// Never called on the cache-hit path.
  std::function<void()> pre_execute_hook;
  /// Durability: when non-empty, the table registry persists to this
  /// directory (store::DurableStore — WAL + snapshot). Startup replays
  /// the directory before serving; `put_table` is acknowledged only after
  /// its record is appended to the WAL; an LRU-evicted durable table
  /// reloads from disk on the next `table_ref` instead of hard-missing.
  /// Empty = the registry is memory-only (the pre-durability behavior).
  std::string store_dir;
  store::FsyncMode store_fsync = store::FsyncMode::kInterval;
  int store_fsync_interval_ms = 50;
};

/// \brief The request/response front of the serving subsystem.
///
/// Wire format: line-delimited JSON. One request object per line:
///
///   {"id":1,"op":"verify","table":"<csv>","query":"<claim>",
///    "paragraph":["..."],"timeout_ms":250}
///   {"id":2,"op":"answer","table":"<csv>","query":"<question>"}
///   {"id":3,"op":"put_table","table":"<csv>"}
///   {"id":4,"op":"verify","table_ref":"<fingerprint>","query":"<claim>"}
///   {"id":5,"op":"put_table","table_hex":"<canonical codec bytes, hex>"}
///   {"id":6,"op":"get_table","table_ref":"<fingerprint>"}
///   {"op":"metrics"}   {"op":"stats"}   {"op":"ping"}   {"op":"health"}
///
/// `put_table` parses the evidence once, registers it in the
/// content-addressed table registry (store::TableRegistry) with a warm
/// index, and answers {"id":3,"status":"ok","fingerprint":"<16 hex>"}.
/// A later `verify`/`answer` may pass that fingerprint as `table_ref`
/// instead of inline CSV: the request then borrows the registered table
/// and skips JSON table transfer, CSV parse, and index warm entirely. A
/// `table_ref` that is not (or no longer) registered falls back to the
/// inline `table` field when the request carries one — same answer
/// bytes, marked `"degraded":true` — and fails with NotFound otherwise.
///
/// `health` is the liveness probe: like `stats` it is answered inline on
/// the caller's thread, without queueing through the scheduler — a
/// saturated (or deliberately backpressured) worker pool cannot make the
/// probe time out. The body reports the lifecycle phase plus a small load
/// snapshot, so a load balancer (or the shard router's membership probe)
/// can stop routing to a draining process before its socket actually
/// closes and can see how loaded each live backend is:
///
///   {"id":7,"status":"ok","health":"live","queue_depth":3,
///    "in_flight":4,"workers":4}
///   {"id":7,"status":"ok","health":"draining","queue_depth":0,
///    "in_flight":1,"workers":4}
///
/// The phase flips via set_draining(true) — the TCP front end
/// (net::Server) does this the moment a graceful shutdown begins.
///
/// One response object per line (no "cached" marker: responses are
/// byte-identical whether they came from the cache or a worker, so the
/// same request stream yields the same bytes at any worker count):
///
///   {"id":1,"status":"ok","label":"Supported"}
///   {"id":2,"status":"ok","answer":"$2,350.4"}
///   {"id":3,"status":"rejected","error":"request queue full..."}
///   {"id":4,"status":"timeout","error":"deadline expired in queue"}
///   {"id":5,"status":"error","error":"table: bad CSV ..."}
///   {"id":6,"status":"ok","label":"Supported","degraded":true}
///
/// Flow: parse (caller thread) -> cache probe (caller thread; hits answer
/// immediately) -> bounded scheduler queue (reject = backpressure,
/// deadline-shed = timeout) -> worker parses and warms the table, executes
/// inference -> cache fill -> done callback.
///
/// Table parse, index warm, plan compile and the result cache are
/// in-memory calls, so a verify/answer request that reaches a worker
/// either answers or fails on its own evidence (a malformed table). The one degraded path
/// is the store fallback above. Fault sites sit only at admission
/// (`serve.submit`) and the table store (`serve.store_get`,
/// `serve.store_put`, `store.*`); see DESIGN.md for the full list.
class Server : public LineBackend {
 public:
  /// \param engine not owned; must outlive the server.
  Server(const InferenceEngine* engine, ServerConfig config);
  ~Server() override;

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// \brief Submits one request line. `done` is invoked exactly once with
  /// the response line (no trailing newline) — inline on the caller's
  /// thread for cache hits, parse errors, rejects, and admin ops; on a
  /// worker thread otherwise.
  void SubmitLine(const std::string& line,
                  std::function<void(std::string)> done) override;

  /// \brief Synchronous convenience wrapper (used by tests/examples):
  /// blocks until the response for this one request is ready.
  std::string HandleLine(const std::string& line);

  /// \brief Blocks until all submitted requests have completed.
  void Drain() override;

  /// \brief Flips the phase reported by the `health` op ("live" vs
  /// "draining"). Thread-safe; set by the serving front end when graceful
  /// shutdown begins. Draining does not reject work by itself — it only
  /// tells probes to steer new traffic away while in-flight requests
  /// finish.
  void set_draining(bool draining) override {
    draining_.store(draining, std::memory_order_relaxed);
  }
  bool draining() const override {
    return draining_.load(std::memory_order_relaxed);
  }

  /// \brief The registry this server records into (the shared default
  /// unless ServerConfig::metrics overrode it).
  MetricsRegistry* metrics() { return metrics_; }
  ResultCache* cache() { return &cache_; }
  Scheduler* scheduler() { return &scheduler_; }
  store::TableRegistry* registry() { return &registry_; }
  /// Null when ServerConfig::store_dir is empty (memory-only registry).
  store::DurableStore* durable_store() { return durable_.get(); }

  /// \brief Outcome of the startup replay when store_dir is set (always
  /// OK otherwise). A non-OK status means the store directory could not
  /// be recovered; the embedding front end should refuse to serve rather
  /// than run with durability silently disabled.
  const Status& recovery_status() const { return recovery_status_; }

 private:
  /// \brief The in-band `stats` response body: a JSON object with the key
  /// serving counters plus live queue/cache occupancy.
  std::string StatsJson() const;

  const InferenceEngine* engine_;
  ServerConfig config_;
  MetricsRegistry* metrics_;  ///< Not owned; outlives the server.
  obs::Tracer* tracer_;       ///< Not owned.
  ResultCache cache_;
  /// Owned by the server and shared with every front end it backs; the
  /// scheduler (whose workers touch it) shuts down in ~Server before the
  /// registry dies, and borrowed tables outlive eviction via shared_ptr
  /// (see DESIGN.md, "Table registry ownership").
  store::TableRegistry registry_;
  /// Durability layer over registry_ (null when store_dir is empty).
  /// Declared after registry_ so it is destroyed first; the scheduler
  /// (declared later, destroyed earlier still) quiesces the workers that
  /// touch both.
  std::unique_ptr<store::DurableStore> durable_;
  Status recovery_status_;
  Scheduler scheduler_;
  /// Compiled-plan cache shared by every request this server executes:
  /// the interpreter's template plans key on (template, column positions),
  /// so a hit runs without touching parser or AST.
  ir::PlanCache plan_cache_;
  std::atomic<bool> draining_{false};

  Counter* requests_total_;
  Counter* responses_ok_;
  Counter* responses_rejected_;
  Counter* responses_timeout_;
  Counter* responses_error_;
  Counter* responses_degraded_;
  Counter* degraded_store_fallback_;
  Histogram* execute_us_;
  Histogram* table_parse_us_;
  Histogram* index_warm_us_;
};

/// \brief Reorders asynchronous responses back into submission order.
///
/// Assign each request a dense sequence number via NextSequence(); workers
/// complete out of order; Write flushes the longest contiguous prefix to
/// `sink`, so downstream output is deterministic at any worker count.
class OrderedResponseWriter {
 public:
  /// \param sink receives each response line exactly once, in sequence
  /// order, possibly from different threads but never concurrently. The
  /// writer's lock is NOT held across sink calls, so a slow sink stalls
  /// only the flushing thread (others buffer and return) and a sink that
  /// re-enters Write does not deadlock.
  explicit OrderedResponseWriter(std::function<void(const std::string&)> sink)
      : sink_(std::move(sink)) {}

  uint64_t NextSequence();
  void Write(uint64_t sequence, std::string line);

 private:
  std::mutex mu_;
  std::function<void(const std::string&)> sink_;
  uint64_t next_assign_ = 0;
  uint64_t next_flush_ = 0;
  bool flushing_ = false;  ///< A thread is draining outside the lock.
  std::map<uint64_t, std::string> pending_;
};

}  // namespace uctr::serve

#endif  // UCTR_SERVE_SERVER_H_
