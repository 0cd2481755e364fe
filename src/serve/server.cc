#include "serve/server.h"

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <utility>
#include <vector>

#include "common/json.h"
#include "fault/fault.h"

namespace uctr::serve {

namespace {

/// Compiled-plan cache sizing (entries, shards) of every server.
constexpr size_t kPlanCacheCapacity = 1024;
constexpr size_t kPlanCacheShards = 8;
/// Lock shards of the result cache (its capacity is a ServerConfig knob).
constexpr size_t kResultCacheShards = 8;
/// Byte budget and shards of the content-addressed table registry behind
/// `put_table`/`table_ref`. The registry is always on; the budget only
/// bounds how many registered tables stay resident before LRU eviction.
constexpr size_t kStoreCapacityBytes = 64ull << 20;
constexpr size_t kStoreShards = 8;
/// WAL size at which a durable store compacts into a snapshot.
constexpr uint64_t kStoreCompactWalBytes = 32ull << 20;

std::string ResponseLine(uint64_t id, const std::string& status,
                         const std::string& field_name,
                         const std::string& field_value,
                         bool degraded = false) {
  std::string out = "{\"id\":" + std::to_string(id) +
                    ",\"status\":" + json::Quote(status);
  if (!field_name.empty()) {
    out += "," + json::Quote(field_name) + ":" + json::Quote(field_value);
  }
  // A table_ref that missed the registry and was answered from the
  // request's inline table carries the same answer bytes plus this
  // marker, so clients can see they were served by the fallback.
  if (degraded) out += ",\"degraded\":true";
  out += "}";
  return out;
}

double MicrosSince(Scheduler::Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Scheduler::Clock::now() -
                                                   start)
      .count();
}

}  // namespace

uint64_t OrderedResponseWriter::NextSequence() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_assign_++;
}

void OrderedResponseWriter::Write(uint64_t sequence, std::string line) {
  std::unique_lock<std::mutex> lock(mu_);
  pending_.emplace(sequence, std::move(line));
  // One thread at a time drains the contiguous prefix, calling the sink
  // with the lock RELEASED: a slow sink no longer serializes every worker
  // behind mu_, and a sink that re-enters Write just buffers its line for
  // the active flusher (no deadlock on the non-recursive mutex).
  if (flushing_) return;
  flushing_ = true;
  std::vector<std::string> batch;
  while (true) {
    while (!pending_.empty() && pending_.begin()->first == next_flush_) {
      batch.push_back(std::move(pending_.begin()->second));
      pending_.erase(pending_.begin());
      ++next_flush_;
    }
    if (batch.empty()) break;
    lock.unlock();
    for (const std::string& flushed : batch) sink_(flushed);
    batch.clear();
    lock.lock();
  }
  flushing_ = false;
}

Server::Server(const InferenceEngine* engine, ServerConfig config)
    : engine_(engine),
      config_(config),
      metrics_(config.metrics != nullptr ? config.metrics
                                         : &obs::DefaultRegistry()),
      tracer_(config.tracer != nullptr ? config.tracer
                                       : &obs::Tracer::Default()),
      cache_(config.cache_capacity, kResultCacheShards, metrics_),
      registry_(store::RegistryConfig{kStoreCapacityBytes, kStoreShards},
                metrics_),
      scheduler_(config.scheduler, metrics_),
      plan_cache_(kPlanCacheCapacity, kPlanCacheShards, metrics_),
      requests_total_(metrics_->counter("requests_total")),
      responses_ok_(metrics_->counter("responses_ok_total")),
      responses_rejected_(metrics_->counter("responses_rejected_total")),
      responses_timeout_(metrics_->counter("responses_timeout_total")),
      responses_error_(metrics_->counter("responses_error_total")),
      responses_degraded_(metrics_->counter("responses_degraded_total")),
      degraded_store_fallback_(
          metrics_->counter("degraded_store_fallback_total")),
      execute_us_(metrics_->histogram("latency_execute_us")),
      table_parse_us_(metrics_->histogram("latency_table_parse_us")),
      index_warm_us_(metrics_->histogram("latency_index_warm_us")) {
  if (!config_.store_dir.empty()) {
    store::DurableStoreConfig durable_config;
    durable_config.dir = config_.store_dir;
    durable_config.fsync = config_.store_fsync;
    durable_config.fsync_interval_ms = config_.store_fsync_interval_ms;
    durable_config.compact_wal_bytes = kStoreCompactWalBytes;
    durable_config.metrics = metrics_;
    durable_ =
        std::make_unique<store::DurableStore>(&registry_, durable_config);
    // Replay before the first request can arrive: the scheduler exists
    // but nothing submits to it until the ctor returns.
    recovery_status_ = durable_->Recover();
  }
}

Server::~Server() { scheduler_.Shutdown(); }

void Server::Drain() { scheduler_.Drain(); }

void Server::SubmitLine(const std::string& line,
                        std::function<void(std::string)> done) {
  requests_total_->Increment();

  auto parsed = json::Parse(line);
  if (!parsed.ok()) {
    responses_error_->Increment();
    done(ResponseLine(0, "error", "error", parsed.status().ToString()));
    return;
  }
  if (!parsed->is_object()) {
    responses_error_->Increment();
    done(ResponseLine(0, "error", "error", "request must be a JSON object"));
    return;
  }
  const json::Value::Object& obj = parsed->as_object();
  uint64_t id = json::GetId(obj);
  std::string op = json::GetStringOr(obj, "op", "");

  if (op == "ping") {
    responses_ok_->Increment();
    done(ResponseLine(id, "ok", "", ""));
    return;
  }
  if (op == "health") {
    // Liveness probe: answered inline, never queued, so scheduler
    // saturation cannot starve it. Reports the lifecycle phase plus a
    // load snapshot for load balancers and the shard router's membership
    // probe (see the class comment).
    responses_ok_->Increment();
    done("{\"id\":" + std::to_string(id) + ",\"status\":\"ok\"" +
         ",\"health\":" + (draining() ? "\"draining\"" : "\"live\"") +
         ",\"queue_depth\":" + std::to_string(scheduler_.QueueDepth()) +
         ",\"in_flight\":" + std::to_string(scheduler_.InFlight()) +
         ",\"workers\":" + std::to_string(scheduler_.num_workers()) + "}");
    return;
  }
  if (op == "metrics") {
    responses_ok_->Increment();
    done(ResponseLine(id, "ok", "metrics", metrics_->ExpositionText()));
    return;
  }
  if (op == "stats") {
    responses_ok_->Increment();
    // Structured variant of `metrics`: a JSON object instead of the
    // plain-text exposition, for programmatic clients.
    done("{\"id\":" + std::to_string(id) +
         ",\"status\":\"ok\",\"stats\":" + StatsJson() + "}");
    return;
  }
  if (op == "get_table") {
    // Returns a registered table's canonical codec bytes (hex) — the data
    // path router read-repair rides on: the router fetches the bytes from
    // a backend that serves the fingerprint and re-puts them (as
    // `table_hex`) to the ring owner that lost them. Answered inline:
    // the durable path is one index lookup + pread, the memory-only path
    // one registry borrow + re-encode.
    std::string ref = json::GetStringOr(obj, "table_ref", "");
    if (ref.empty()) {
      responses_error_->Increment();
      done(ResponseLine(id, "error", "error",
                        "get_table requires a table_ref fingerprint"));
      return;
    }
    std::string bytes;
    if (durable_ != nullptr && durable_->Contains(ref)) {
      Result<std::string> read = durable_->GetEncodedBytes(ref);
      if (read.ok()) bytes = std::move(read).ValueOrDie();
    }
    if (bytes.empty()) {
      std::shared_ptr<const Table> shared = registry_.Get(ref);
      if (shared != nullptr) {
        bytes = store::TableRegistry::EncodeTable(*shared).bytes;
      }
    }
    if (bytes.empty()) {
      responses_error_->Increment();
      done(ResponseLine(id, "error", "error",
                        "table_ref '" + ref + "' is not registered"));
      return;
    }
    responses_ok_->Increment();
    done("{\"id\":" + std::to_string(id) +
         ",\"status\":\"ok\",\"fingerprint\":" + json::Quote(ref) +
         ",\"table_hex\":" + json::Quote(store::Codec::ToHex(bytes)) + "}");
    return;
  }
  if (op != "verify" && op != "answer" && op != "put_table") {
    responses_error_->Increment();
    done(ResponseLine(
        id, "error", "error",
        "unknown op '" + op +
            "' (verify|answer|put_table|get_table|metrics|stats|ping|"
            "health)"));
    return;
  }

  // Deadline + completion plumbing shared by every queued op.
  double timeout_ms = json::GetNumberOr(
      obj, "timeout_ms", static_cast<double>(config_.default_timeout_ms));
  Scheduler::Job job;
  // Only apply a deadline for positive, finite timeouts below the clamp:
  // a huge client-supplied value (e.g. 1e18 ms) would overflow the
  // int64 microsecond cast (UB) and wrap to a deadline in the past,
  // instantly expiring the request. Out-of-range means "no deadline".
  if (timeout_ms > 0 && std::isfinite(timeout_ms) &&
      timeout_ms <= ServerConfig::kMaxTimeoutMs) {
    job.deadline = Scheduler::Clock::now() +
                   std::chrono::microseconds(
                       static_cast<int64_t>(timeout_ms * 1000.0));
  }
  auto shared_done =
      std::make_shared<std::function<void(std::string)>>(std::move(done));
  job.on_expired = [this, id, shared_done] {
    responses_timeout_->Increment();
    (*shared_done)(
        ResponseLine(id, "timeout", "error", "deadline expired in queue"));
  };
  // Admission itself is an injection site (stands in for a faulted front
  // door / listener); injected faults behave exactly like scheduler
  // rejections.
  auto submit = [this, id, shared_done](Scheduler::Job to_submit) {
    Status submitted = UCTR_FAULT_POINT("serve.submit");
    if (submitted.ok()) submitted = scheduler_.Submit(std::move(to_submit));
    if (!submitted.ok()) {
      if (submitted.code() == StatusCode::kDeadlineExceeded) {
        // Deadline-aware admission control shed the job before it queued:
        // answer "timeout" (the deadline is the reason), not "rejected".
        responses_timeout_->Increment();
        (*shared_done)(
            ResponseLine(id, "timeout", "error", submitted.message()));
      } else {
        responses_rejected_->Increment();
        (*shared_done)(ResponseLine(id, "rejected", "error",
                                    submitted.message()));
      }
    }
  };

  auto csv = json::GetString(obj, "table");

  if (op == "put_table") {
    // Registration parses + encodes + index-warms, so it rides through
    // the scheduler like inference does instead of stalling the caller
    // (which is the net front end's event-loop thread).
    std::string table_hex = json::GetStringOr(obj, "table_hex", "");
    if (!table_hex.empty()) {
      // Codec-bytes delivery (router read-repair): no CSV parse; decode,
      // validate, and register under the recomputed fingerprint. The
      // same ack contract applies — durable servers append before
      // answering.
      job.run = [this, id, table_hex = std::move(table_hex), shared_done] {
        if (config_.pre_execute_hook) config_.pre_execute_hook();
        obs::Span put_span = tracer_->StartSpan("serve.put_table");
        Status store_fault = UCTR_FAULT_POINT("serve.store_put");
        Result<store::PutResult> put = store_fault;
        if (store_fault.ok()) {
          Result<std::string> bytes = store::Codec::FromHex(table_hex);
          if (!bytes.ok()) {
            put = bytes.status();
          } else if (durable_ != nullptr) {
            put = durable_->PutEncodedBytes(*bytes);
          } else {
            put = registry_.PutEncodedBytes(*bytes);
          }
        }
        if (!put.ok()) {
          responses_error_->Increment();
          put_span.AddAttr("error", "store_put");
          (*shared_done)(ResponseLine(id, "error", "error",
                                      "store: " + put.status().ToString()));
          return;
        }
        put_span.AddAttr("fingerprint", put->fingerprint);
        responses_ok_->Increment();
        (*shared_done)(
            ResponseLine(id, "ok", "fingerprint", put->fingerprint));
      };
      submit(std::move(job));
      return;
    }
    if (!csv.ok()) {
      responses_error_->Increment();
      (*shared_done)(
          ResponseLine(id, "error", "error", csv.status().ToString()));
      return;
    }
    job.run = [this, id, csv = std::move(*csv), shared_done] {
      if (config_.pre_execute_hook) config_.pre_execute_hook();
      obs::Span put_span = tracer_->StartSpan("serve.put_table");
      auto parse_started = Scheduler::Clock::now();
      Result<Table> table = Table::FromCsv(csv);
      table_parse_us_->Observe(MicrosSince(parse_started));
      if (!table.ok()) {
        responses_error_->Increment();
        put_span.AddAttr("error", "table_parse");
        (*shared_done)(ResponseLine(id, "error", "error",
                                    "table: " + table.status().ToString()));
        return;
      }
      Status store_fault = UCTR_FAULT_POINT("serve.store_put");
      if (!store_fault.ok()) {
        responses_error_->Increment();
        put_span.AddAttr("error", "store_put");
        (*shared_done)(ResponseLine(id, "error", "error",
                                    "store: " + store_fault.ToString()));
        return;
      }
      auto warm_started = Scheduler::Clock::now();
      // Durable servers log the table's codec bytes to the WAL before the
      // registry insert — the ack below is not sent until the record is
      // appended (fsynced per --store-fsync).
      Result<store::PutResult> put =
          durable_ != nullptr ? durable_->Put(std::move(*table))
                              : registry_.Put(std::move(*table));
      // Put warms the stored table's index; account it where inline
      // requests account theirs so the amortization is visible.
      index_warm_us_->Observe(MicrosSince(warm_started));
      if (!put.ok()) {
        responses_error_->Increment();
        put_span.AddAttr("error", "store_put");
        (*shared_done)(ResponseLine(id, "error", "error",
                                    "store: " + put.status().ToString()));
        return;
      }
      put_span.AddAttr("fingerprint", put->fingerprint);
      responses_ok_->Increment();
      (*shared_done)(
          ResponseLine(id, "ok", "fingerprint", put->fingerprint));
    };
    submit(std::move(job));
    return;
  }

  auto query = json::GetString(obj, "query");
  if (!query.ok()) {
    responses_error_->Increment();
    (*shared_done)(
        ResponseLine(id, "error", "error", query.status().ToString()));
    return;
  }
  std::string table_ref = json::GetStringOr(obj, "table_ref", "");

  // table_ref resolution happens here on the caller's thread: the
  // shared_ptr is captured into the job, so an eviction between now and
  // execution cannot free the table out from under the worker. A miss
  // (or an injected registry fault) falls back to the inline table when
  // the request carries one — byte-identical answer, marked degraded.
  std::shared_ptr<const Table> shared;
  bool store_fallback = false;
  if (!table_ref.empty()) {
    auto resolve_started = Scheduler::Clock::now();
    Status get_fault = UCTR_FAULT_POINT("serve.store_get");
    // The durable path falls back to a disk reload when the LRU evicted
    // the in-memory copy (store_evict_reload_total) — eviction of a
    // durable table is a slow hit, never a miss.
    if (get_fault.ok()) {
      shared = durable_ != nullptr ? durable_->Get(table_ref)
                                   : registry_.Get(table_ref);
    }
    if (shared != nullptr) {
      // The borrowed table is pre-parsed and pre-warmed; feed the lookup
      // cost into the same histograms the inline path feeds so the two
      // paths stay comparable per request.
      table_parse_us_->Observe(MicrosSince(resolve_started));
      index_warm_us_->Observe(0.0);
    } else if (csv.ok()) {
      store_fallback = true;
      degraded_store_fallback_->Increment();
    } else {
      responses_error_->Increment();
      (*shared_done)(ResponseLine(
          id, "error", "error",
          "table_ref '" + table_ref +
              "' is not registered and the request has no inline table"));
      return;
    }
  } else if (!csv.ok()) {
    responses_error_->Increment();
    (*shared_done)(
        ResponseLine(id, "error", "error", csv.status().ToString()));
    return;
  }

  std::vector<std::string> paragraph;
  if (auto it = obj.find("paragraph");
      it != obj.end() && it->second.is_array()) {
    for (const json::Value& entry : it->second.as_array()) {
      if (entry.is_string()) paragraph.push_back(entry.as_string());
    }
  }

  // Cache probe on the raw evidence text: no parsing on the hit path.
  // Registered tables key by their content-addressed ref (same content ->
  // same ref -> same entry), inline tables by their CSV text; paragraph
  // sentences are part of the evidence (same claim + same table +
  // different text may differ).
  uint64_t fp =
      shared != nullptr
          ? ResultCache::EvidenceKey(ResultCache::Evidence::kTableRef,
                                     table_ref, paragraph)
          : ResultCache::EvidenceKey(ResultCache::Evidence::kInlineCsv, *csv,
                                     paragraph);
  std::string cache_key = op + "\x1f" + ResultCache::NormalizeQuery(*query);
  if (auto hit = cache_.Get(fp, cache_key)) {
    // Rewrite the id: the cached body is id-independent.
    responses_ok_->Increment();
    (*shared_done)(
        ResponseLine(id, "ok", op == "verify" ? "label" : "answer", *hit));
    return;
  }

  // The worker owns the parsed request pieces via the closure. When the
  // registry served the table, `shared` keeps it alive and csv_text is
  // only a fallback artifact (empty unless the request carried both).
  std::string csv_text = csv.ok() ? std::move(*csv) : std::string();
  auto submitted_at = Scheduler::Clock::now();
  job.run = [this, id, op, csv = std::move(csv_text), shared,
             store_fallback, query = std::move(*query),
             paragraph = std::move(paragraph), fp, cache_key, shared_done,
             submitted_at] {
    if (config_.pre_execute_hook) config_.pre_execute_hook();
    auto started = Scheduler::Clock::now();
    obs::Span request_span = tracer_->StartSpan("serve.request");
    request_span.AddAttr("op", op);
    if (shared != nullptr) request_span.AddAttr("table", "registry");
    request_span.AddAttr(
        "queue_wait_us",
        std::to_string(std::chrono::duration_cast<std::chrono::microseconds>(
                           started - submitted_at)
                           .count()));
    // Registry-served requests skip parse and warm entirely — the stored
    // table was parsed and warmed at put_table time.
    Result<Table> table = Status::Unavailable("table parse never ran");
    if (shared == nullptr) {
      {
        obs::Span parse_span = tracer_->StartSpan("serve.table_parse");
        auto parse_started = Scheduler::Clock::now();
        table = Table::FromCsv(csv);
        table_parse_us_->Observe(MicrosSince(parse_started));
      }
      if (!table.ok()) {
        responses_error_->Increment();
        request_span.AddAttr("error", "table_parse");
        (*shared_done)(ResponseLine(id, "error", "error",
                                    "table: " + table.status().ToString()));
        return;
      }
      // Build the per-table index once at load; moving the table into
      // the engine carries it through every template execution of the
      // request.
      obs::Span warm_span = tracer_->StartSpan("serve.index_warm");
      auto warm_started = Scheduler::Clock::now();
      table->WarmIndex();
      index_warm_us_->Observe(MicrosSince(warm_started));
    }
    // Every interpreted program compiles to bytecode through the shared
    // plan cache (zero parse, zero AST walk on a hit).
    ExecOptions exec;
    exec.plan_cache = &plan_cache_;
    std::string body;
    {
      obs::Span exec_span = tracer_->StartSpan("serve.execute");
      auto exec_started = Scheduler::Clock::now();
      if (shared != nullptr) {
        // Borrow: zero copy, zero warm; many requests share this table.
        body = op == "verify"
                   ? engine_->Verify(*shared, query, paragraph, exec)
                   : engine_->Answer(*shared, query, paragraph, exec);
      } else {
        body = op == "verify"
                   ? engine_->Verify(std::move(*table), query, paragraph,
                                     exec)
                   : engine_->Answer(std::move(*table), query, paragraph,
                                     exec);
      }
      execute_us_->Observe(MicrosSince(exec_started));
    }
    {
      obs::Span put_span = tracer_->StartSpan("serve.cache_put");
      cache_.Put(fp, cache_key, body);
    }
    responses_ok_->Increment();
    if (store_fallback) responses_degraded_->Increment();
    (*shared_done)(ResponseLine(id, "ok",
                                op == "verify" ? "label" : "answer", body,
                                store_fallback));
  };
  submit(std::move(job));
}

std::string Server::StatsJson() const {
  auto count = [this](const char* name) {
    return std::to_string(metrics_->counter(name)->value());
  };
  std::string out = "{";
  out += "\"requests_total\":" + count("requests_total");
  out += ",\"responses_ok_total\":" + count("responses_ok_total");
  out += ",\"responses_error_total\":" + count("responses_error_total");
  out += ",\"responses_rejected_total\":" + count("responses_rejected_total");
  out += ",\"responses_timeout_total\":" + count("responses_timeout_total");
  out += ",\"responses_degraded_total\":" + count("responses_degraded_total");
  out += ",\"jobs_shed_deadline_total\":" + count("jobs_shed_deadline_total");
  out += ",\"degraded_store_fallback_total\":" +
         count("degraded_store_fallback_total");
  out += ",\"cache_hits_total\":" + count("cache_hits_total");
  out += ",\"cache_misses_total\":" + count("cache_misses_total");
  out += ",\"cache_size\":" + std::to_string(cache_.size());
  out += ",\"plan_compiles_total\":" + count("plan_compiles_total");
  out += ",\"plan_cache_hits_total\":" + count("plan_cache_hits_total");
  out += ",\"plan_cache_misses_total\":" + count("plan_cache_misses_total");
  out += ",\"plan_cache_evictions_total\":" +
         count("plan_cache_evictions_total");
  out += ",\"plan_cache_size\":" + std::to_string(plan_cache_.size());
  out += ",\"store_puts_total\":" + count("store_puts_total");
  out += ",\"store_hits_total\":" + count("store_hits_total");
  out += ",\"store_misses_total\":" + count("store_misses_total");
  out += ",\"store_evictions_total\":" + count("store_evictions_total");
  out += ",\"store_tables\":" + std::to_string(registry_.table_count());
  out += ",\"store_bytes\":" + std::to_string(registry_.bytes());
  if (durable_ != nullptr) {
    out += ",\"store_durable\":true";
    out += ",\"store_fsync_mode\":\"" + std::string(durable_->fsync_mode()) +
           "\"";
    out += ",\"store_durable_tables\":" +
           std::to_string(durable_->durable_tables());
    out += ",\"store_wal_bytes\":" + std::to_string(durable_->wal_bytes());
    out += ",\"store_recovered_tables_total\":" +
           count("store_recovered_tables_total");
    out += ",\"store_durable_puts_total\":" +
           count("store_durable_puts_total");
    out += ",\"store_evict_reload_total\":" +
           count("store_evict_reload_total");
    out += ",\"store_snapshot_compactions_total\":" +
           count("store_snapshot_compactions_total");
    out += ",\"store_wal_corrupt_records_total\":" +
           count("store_wal_corrupt_records_total");
  } else {
    out += ",\"store_durable\":false";
  }
  out += ",\"queue_depth\":" + std::to_string(scheduler_.QueueDepth());
  out += ",\"workers\":" + std::to_string(scheduler_.num_workers());
  Histogram* execute = metrics_->histogram("latency_execute_us");
  out += ",\"execute_p50_us\":" +
         std::to_string(static_cast<int64_t>(execute->QuantileMicros(0.5)));
  out += ",\"execute_p99_us\":" +
         std::to_string(static_cast<int64_t>(execute->QuantileMicros(0.99)));
  out += "}";
  return out;
}

std::string Server::HandleLine(const std::string& line) {
  std::mutex mu;
  std::condition_variable cv;
  std::string response;
  bool ready = false;
  SubmitLine(line, [&](std::string r) {
    std::lock_guard<std::mutex> lock(mu);
    response = std::move(r);
    ready = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return ready; });
  return response;
}

}  // namespace uctr::serve
