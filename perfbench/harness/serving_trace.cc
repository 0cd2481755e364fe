// The traced run of a serving workload. It is separate from the timed runs
// and has four phases over the same stream prefix:
//   1. TCP: the real stack serves the prefix; `stats` deltas give the cache
//      and plan counts, a ping connection gives the transport round trip.
//   2. In-process serve::Server fed the prefix: worker pickup is stamped
//      through ServerConfig::pre_execute_hook, giving queue wait and the
//      service time (pickup to response).
//   3. Replay, untraced then traced: the benchmark calls each layer's public
//      functions in the order the serving path calls them, then replays the
//      children of calls whose internals are private (RankAll's template
//      loop, Extract's interpretation) so that self times can be computed.
//   4. hot-churn only: an in-process net::Router over the live backends
//      prices the routing hop against a direct call to the owner backend.
#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "common/json.h"
#include "hybrid/text_to_table.h"
#include "ir/plan_cache.h"
#include "model/features.h"
#include "model/interpreter.h"
#include "net/router.h"
#include "nlgen/nl_generator.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "serve/result_cache.h"
#include "serve/server.h"
#include "serving.h"
#include "store/codec.h"
#include "store/columnar.h"
#include "store/durable_registry.h"
#include "store/registry.h"
#include "traced_layers.h"

namespace perfbench {

using namespace uctr;

namespace {

/// Blocks until a LineBackend's completion callback ran.
class Completion {
 public:
  std::function<void(std::string)> Callback() {
    return [this](std::string line) {
      std::lock_guard<std::mutex> lock(mu_);
      line_ = std::move(line);
      done_ = true;
      cv_.notify_one();
    };
  }
  std::string Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return done_; });
    return line_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::string line_;
};

/// Runs fn(t, i) for i in [begin, end) on LoadThreads() threads, thread t
/// taking i = begin + t, begin + t + T, ...
template <typename Fn>
void ParallelFor(size_t begin, size_t end, Fn&& fn) {
  std::vector<std::thread> threads;
  size_t count = LoadThreads();
  for (size_t t = 0; t < count; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = begin + t; i < end; i += count) fn(t, i);
    });
  }
  for (std::thread& th : threads) th.join();
}

// ---------------------------------------------------------------- phase 1

struct TcpCounts {
  double cache_hit_ratio = 0.0;
  double plan_compiles_per_req = 0.0;
  double plan_hit_ratio = 0.0;
  double bytes_per_table = 0.0;
  double ping_rtt_us = 0.0;
  std::string error;
};

std::vector<std::string> AllStats(const Stack& stack) {
  std::vector<std::string> out;
  for (uint16_t port : stack.backend_ports) {
    Result<std::string> stats = FetchStats(port);
    out.push_back(stats.ok() ? *stats : "");
  }
  return out;
}

double SumStat(const std::vector<std::string>& stats, const char* key) {
  double sum = 0.0;
  for (const std::string& s : stats) sum += StatValue(s, key);
  return sum;
}

/// Sends the prefix through the real stack, LoadThreads() - 1 closed-loop
/// connections plus one connection that pings every millisecond.
TcpCounts TcpPhase(const Stack& stack, const std::vector<Request>& prefix) {
  TcpCounts out;
  std::vector<std::string> before = AllStats(stack);
  std::atomic<size_t> next{0};
  std::atomic<bool> done{false};
  std::mutex mu;
  std::vector<double> ping_us;
  std::thread pinger([&] {
    Result<net::Client> client = net::Client::Connect("127.0.0.1", stack.port);
    while (client.ok() && !done) {
      auto start = Clock::now();
      Result<std::string> pong = client->Call("{\"id\":1,\"op\":\"ping\"}");
      if (!pong.ok()) break;
      ping_us.push_back(MicrosBetween(start, Clock::now()));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::vector<std::thread> senders;
  for (size_t t = 0; t + 1 < std::max<size_t>(2, LoadThreads()); ++t) {
    senders.emplace_back([&] {
      Result<net::Client> client =
          net::Client::Connect("127.0.0.1", stack.port);
      for (size_t i = next++; client.ok() && i < prefix.size(); i = next++) {
        Result<std::string> reply = client->Call(prefix[i].line);
        Result<Response> parsed = reply.ok() ? ParseResponse(*reply)
                                             : Result<Response>(reply.status());
        if (!parsed.ok() || parsed->id != i + 1 || parsed->status != "ok") {
          std::lock_guard<std::mutex> lock(mu);
          out.error = "request " + std::to_string(i + 1) + " failed";
          return;
        }
      }
    });
  }
  for (std::thread& th : senders) th.join();
  done = true;
  pinger.join();
  std::vector<std::string> after = AllStats(stack);
  auto delta = [&](const char* key) {
    return SumStat(after, key) - SumStat(before, key);
  };
  double hits = delta("cache_hits_total"), misses = delta("cache_misses_total");
  double plan_hits = delta("plan_cache_hits_total");
  double plan_misses = delta("plan_cache_misses_total");
  double requests = static_cast<double>(prefix.size());
  out.cache_hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  out.plan_compiles_per_req = delta("plan_compiles_total") / requests;
  out.plan_hit_ratio =
      plan_hits + plan_misses > 0 ? plan_hits / (plan_hits + plan_misses) : 0.0;
  double tables = SumStat(after, "store_tables");
  out.bytes_per_table =
      tables > 0 ? SumStat(after, "store_bytes") / tables : 0.0;
  out.ping_rtt_us = Summarize(ping_us).mean;
  return out;
}

// ---------------------------------------------------------------- phase 2

thread_local Clock::time_point t_pickup;
thread_local bool t_picked = false;

serve::ServerConfig InProcessConfig(const Args& args,
                                    obs::MetricsRegistry* metrics) {
  serve::ServerConfig config;
  config.scheduler.num_workers = LoadThreads();
  config.metrics = metrics;
  config.pre_execute_hook = [] {
    t_pickup = Clock::now();
    t_picked = true;
  };
  if (args.workload == "hot-churn") {
    config.store_dir = args.work_dir + "/inproc-store";
    std::filesystem::create_directories(config.store_dir);
    config.store_fsync = store::FsyncMode::kNever;
  }
  return config;
}

/// An in-process serve::Server fed by LoadThreads() closed-loop
/// submitters; worker pickup is stamped through pre_execute_hook.
class InProcess {
 public:
  InProcess(const Args& args, const ServingInputs& in,
            const serve::InferenceEngine& engine)
      : server_(&engine, InProcessConfig(args, &metrics_)) {
    for (const std::string& csv : in.tables) {
      Table table = Table::FromCsv(csv).ValueOrDie();
      if (server_.durable_store() != nullptr) {
        server_.durable_store()->Put(std::move(table)).ValueOrDie();
      } else {
        server_.registry()->Put(std::move(table)).ValueOrDie();
      }
    }
  }

  void Serve(const std::vector<Request>& prefix, size_t begin, size_t end) {
    ParallelFor(begin, end, [&](size_t, size_t i) {
      Completion completion;
      auto submitted = Clock::now();
      std::function<void(std::string)> finish = completion.Callback();
      server_.SubmitLine(prefix[i].line, [&, submitted](std::string line) {
        // Runs on the worker that served the request (or inline for a
        // result-cache hit, which never reaches a worker).
        if (t_picked) {
          auto now = Clock::now();
          std::lock_guard<std::mutex> lock(mu_);
          queue_wait_us_.push_back(MicrosBetween(submitted, t_pickup));
          service_us_.push_back(MicrosBetween(t_pickup, now));
          t_picked = false;
        }
        finish(std::move(line));
      });
      completion.Wait();
    });
  }

  const std::vector<double>& queue_wait_us() const { return queue_wait_us_; }
  const std::vector<double>& service_us() const { return service_us_; }

 private:
  obs::MetricsRegistry metrics_;
  serve::Server server_;
  std::mutex mu_;
  std::vector<double> queue_wait_us_;
  std::vector<double> service_us_;
};

// ---------------------------------------------------------------- phase 3

/// What the replay needs besides the engine: the layers the engine's
/// models hold privately, rebuilt from the same templates and configs.
struct Layers {
  model::NlInterpreter claim_interp{
      serve::InferenceEngine::VerifierTemplates()};
  model::NlInterpreter question_interp{serve::InferenceEngine::QaTemplates()};
  model::FeatureExtractor claim_features{
      serve::EngineConfig().verifier.features, &claim_interp};
  model::FeatureExtractor question_features{
      [] {
        model::FeatureConfig fc = serve::EngineConfig().qa.features;
        fc.interpreter = false;
        return fc;
      }(),
      nullptr};
  hybrid::TextToTable text_to_table;
  nlgen::NlGenerator canonical{[] {
    nlgen::NlGeneratorConfig c;
    c.stochastic = false;
    return c;
  }()};
};

/// A served request whose private children are still to be replayed.
struct Pending {
  std::string op;
  std::string query;
  std::vector<std::string> paragraph;
  std::shared_ptr<const Table> evidence;
  int32_t predict = -1;  ///< the model.predict span
  uint32_t index = 0;
};

/// Per-request outcome of a replay pass.
struct ReplayStats {
  std::vector<double> request_us;   ///< top-level calls, per request
  std::vector<double> worker_us;    ///< worker-side calls, per request
  size_t candidates = 0;            ///< RankAll results, summed
  size_t ranked_requests = 0;
  std::vector<Pending> pending;
};

class Replay {
 public:
  Replay(const Args& args, const ServingInputs& in,
         const serve::InferenceEngine& engine, const Layers& layers,
         bool traced, const std::string& store_dir)
      : engine_(engine), layers_(layers), traced_(traced),
        cache_(4096, 8), plan_cache_(1024, 8) {
    exec_.plan_cache = &plan_cache_;
    if (args.workload == "hot-churn") {
      store::DurableStoreConfig config;
      config.dir = store_dir;
      config.fsync = store::FsyncMode::kNever;
      std::filesystem::create_directories(store_dir);
      durable_ = std::make_unique<store::DurableStore>(&registry_, config);
      durable_->Recover().ok();
    }
    for (const std::string& csv : in.tables) {
      Table table = Table::FromCsv(csv).ValueOrDie();
      if (durable_ != nullptr) {
        durable_->Put(std::move(table)).ValueOrDie();
      } else {
        registry_.Put(std::move(table)).ValueOrDie();
      }
    }
  }

  /// Plays request `index` of `prefix` on the calling thread.
  void Run(const Request& request, uint32_t index, SpanLog* log,
           ReplayStats* stats) {
    auto start = Clock::now();
    int32_t root = Begin(log, "serve.request", -1, index);
    double worker_us = 0.0;
    auto timed = [&](const char* name, bool worker, auto&& fn) {
      auto t0 = Clock::now();
      int32_t span = Begin(log, name, root, index);
      fn(span);
      End(log, span);
      if (worker) worker_us += MicrosBetween(t0, Clock::now());
    };

    Result<json::Value> parsed = Status::Internal("unparsed");
    timed("json.parse", false,
          [&](int32_t) { parsed = json::Parse(request.line); });
    if (request.op == Op::kPut) {
      Table table;
      // The router's routing key for a put: the store codec's fingerprint.
      timed("router.put_key", false, [&](int32_t) {
        Table t = Table::FromCsv(request.csv).ValueOrDie();
        std::string bytes =
            store::Codec::Encode(store::ColumnarTable::FromTable(t));
        (void)store::Codec::Fingerprint(bytes);
      });
      timed("table.parse", true,
            [&](int32_t) { table = Table::FromCsv(request.csv).ValueOrDie(); });
      int32_t put_span = -1;
      Table copy;
      if (traced_) copy = table;
      timed("store.put", true, [&](int32_t span) {
        put_span = span;
        durable_->Put(std::move(table)).ValueOrDie();
      });
      End(log, root);
      stats->request_us.push_back(MicrosBetween(start, Clock::now()));
      stats->worker_us.push_back(worker_us);
      if (traced_) {
        // DurableStore::Put encodes and warms inside; replay both.
        Traced(log, "store.encode", put_span, index,
               [&] { return store::TableRegistry::EncodeTable(copy); });
        Traced(log, "table.warm", put_span, index, [&] { copy.WarmIndex(); });
      }
      return;
    }

    const json::Value::Object& obj = parsed->as_object();
    std::string op = json::GetStringOr(obj, "op", "");
    std::string query = json::GetStringOr(obj, "query", "");
    std::string ref = json::GetStringOr(obj, "table_ref", "");
    std::string csv = json::GetStringOr(obj, "table", "");
    std::vector<std::string> paragraph = request.paragraph;
    uint64_t fp = 0;
    std::string key;
    std::optional<std::string> hit;
    timed("serve.cache_probe", false, [&](int32_t) {
      fp = serve::ResultCache::FingerprintCsv(ref.empty() ? csv : ref);
      for (const std::string& sentence : paragraph) {
        fp = serve::ResultCache::FingerprintCsv(sentence) ^
             (fp * 1099511628211ull);
      }
      key = op + "\x1f" + serve::ResultCache::NormalizeQuery(query);
      hit = cache_.Get(fp, key);
    });
    if (hit) {
      End(log, root);
      stats->request_us.push_back(MicrosBetween(start, Clock::now()));
      return;
    }
    std::shared_ptr<const Table> shared;
    if (!ref.empty()) {
      timed("store.get", false, [&](int32_t) {
        shared = durable_ != nullptr ? durable_->Get(ref) : registry_.Get(ref);
      });
    } else {
      std::shared_ptr<Table> table;
      timed("table.parse", true, [&](int32_t) {
        table = std::make_shared<Table>(Table::FromCsv(csv).ValueOrDie());
      });
      timed("table.warm", true, [&](int32_t) { table->WarmIndex(); });
      shared = std::move(table);
    }
    const Table& evidence = *shared;
    std::string body;
    int32_t predict = -1;
    timed("model.predict", true, [&](int32_t span) {
      predict = span;
      body = op == "verify" ? engine_.Verify(evidence, query, paragraph, exec_)
                            : engine_.Answer(evidence, query, paragraph, exec_);
    });
    timed("serve.cache_put", true, [&](int32_t) { cache_.Put(fp, key, body); });
    End(log, root);
    stats->request_us.push_back(MicrosBetween(start, Clock::now()));
    stats->worker_us.push_back(worker_us);
    if (traced_) {
      stats->pending.push_back(
          Pending{op, query, std::move(paragraph), shared, predict, index});
    }
  }

  /// Replays the private children of a served request's model.predict.
  void ReplayPredict(const Pending& p, SpanLog* log, ReplayStats* stats) {
    const Table& table = *p.evidence;
    ++stats->ranked_requests;
    Sample sample;
    sample.sentence = p.query;
    sample.paragraph = p.paragraph;
    sample.shared_table = &table;
    sample.exec = exec_;
    std::optional<Table> expanded;
    auto expand = [&] {
      Result<Table> t = Traced(log, "hybrid.expand", p.predict, p.index, [&] {
        return layers_.text_to_table.Apply(table, p.paragraph);
      });
      if (t.ok()) expanded = std::move(t).ValueOrDie();
    };
    if (p.op == "verify") {
      // VerifierModel::Predict: text expansion, then features, whose
      // interpreter feature runs RankAll on the expanded evidence.
      sample.task = TaskType::kFactVerification;
      if (!p.paragraph.empty()) expand();
      if (expanded) {
        sample.table = *expanded;
        sample.shared_table = nullptr;
      }
      int32_t features = log->Begin("model.features", p.predict, p.index);
      layers_.claim_features.Extract(sample);
      log->End(features);
      ReplayRankAll(layers_.claim_interp, p.query, sample.evidence_table(),
                    TaskType::kFactVerification, features, p.index, log, stats);
    } else {
      // QaModel::PredictWithMargin: candidates over the table and the
      // expanded table, then the lexical template prior.
      sample.task = TaskType::kQuestionAnswering;
      ReplayRankAll(layers_.question_interp, p.query, table,
                    TaskType::kQuestionAnswering, p.predict, p.index, log,
                    stats);
      if (!p.paragraph.empty()) {
        expand();
        if (expanded) {
          ReplayRankAll(layers_.question_interp, p.query, *expanded,
                        TaskType::kQuestionAnswering, p.predict, p.index, log,
                        stats);
        }
      }
      Traced(log, "model.features", p.predict, p.index,
             [&] { return layers_.question_features.Extract(sample); });
    }
  }

 private:
  int32_t Begin(SpanLog* log, const char* name, int32_t parent,
                uint32_t index) {
    return traced_ ? log->Begin(name, parent, index) : -1;
  }
  void End(SpanLog* log, int32_t span) {
    if (traced_) log->End(span);
  }

  /// RankAll, then its per-template Fill, Execute (on the now cached plan)
  /// and canonical re-realization as children.
  void ReplayRankAll(const model::NlInterpreter& interp,
                     const std::string& sentence, const Table& table,
                     TaskType task, int32_t parent, uint32_t index,
                     SpanLog* log, ReplayStats* stats) {
    int32_t bind = log->Begin("model.bind", parent, index);
    std::vector<model::Interpretation> ranked =
        interp.RankAll(sentence, table, task, exec_);
    log->End(bind);
    stats->candidates += ranked.size();
    for (const model::Interpretation& r : ranked) {
      const ProgramTemplate& tmpl = interp.templates()[r.template_index];
      Result<std::string> text = Traced(log, "program.fill", bind, index,
                                        [&] { return tmpl.Fill(r.bindings); });
      Program program{tmpl.type, text.ok() ? *text : r.program.text};
      Traced(log, "ir.execute", bind, index,
             [&] { return program.Execute(table, exec_); });
      Traced(log, "nlgen.canonical", bind, index,
             [&] { return layers_.canonical.GenerateCanonical(program); });
    }
  }

  const serve::InferenceEngine& engine_;
  const Layers& layers_;
  bool traced_;
  serve::ResultCache cache_;
  ir::PlanCache plan_cache_;
  ExecOptions exec_;
  store::TableRegistry registry_;
  std::unique_ptr<store::DurableStore> durable_;
};

/// One replay pass (traced or not) over the prefix, served in chunks.
class ReplayPass {
 public:
  ReplayPass(const Args& args, const ServingInputs& in,
             const serve::InferenceEngine& engine, const Layers& layers,
             bool traced)
      : replay_(args, in, engine, layers, traced,
                args.work_dir +
                    (traced ? "/replay-traced" : "/replay-untraced")),
        logs_(LoadThreads()),
        stats_(LoadThreads()) {}

  void Serve(const std::vector<Request>& prefix, size_t begin, size_t end) {
    ParallelFor(begin, end, [&](size_t t, size_t i) {
      replay_.Run(prefix[i], static_cast<uint32_t>(i), &logs_[t], &stats_[t]);
    });
  }

  /// Replays the private children once every request was served, so that
  /// no replay competes with a timed call; returns the merged outcome.
  ReplayStats Finish(SpanLog* merged) {
    ParallelFor(0, stats_.size(), [&](size_t, size_t t) {
      for (const Pending& p : stats_[t].pending) {
        replay_.ReplayPredict(p, &logs_[t], &stats_[t]);
      }
    });
    ReplayStats out;
    for (size_t t = 0; t < stats_.size(); ++t) {
      merged->Append(logs_[t]);
      auto append = [](std::vector<double>* to,
                       const std::vector<double>& from) {
        to->insert(to->end(), from.begin(), from.end());
      };
      append(&out.request_us, stats_[t].request_us);
      append(&out.worker_us, stats_[t].worker_us);
      out.candidates += stats_[t].candidates;
      out.ranked_requests += stats_[t].ranked_requests;
    }
    return out;
  }

 private:
  Replay replay_;
  std::vector<SpanLog> logs_;
  std::vector<ReplayStats> stats_;
};

// ---------------------------------------------------------------- phase 4

/// Router::SubmitLine against the live backends minus a direct call to the
/// ring owner, same requests (already cached, so the backend work is a
/// result-cache hit on both paths).
double RouterHopUs(const Stack& stack, const std::vector<Request>& prefix) {
  net::RouterConfig config;
  std::vector<std::string> labels;
  for (uint16_t port : stack.backend_ports) {
    config.backends.push_back(net::HostPort{"127.0.0.1", port});
    labels.push_back("127.0.0.1:" + std::to_string(port));
  }
  config.put_replicas = 2;
  obs::MetricsRegistry metrics;
  config.metrics = &metrics;
  net::Router router(config);
  if (!router.Start().ok()) return 0.0;
  net::ConsistentRing ring(labels, config.vnodes);
  std::vector<net::Client> direct;
  for (uint16_t port : stack.backend_ports) {
    auto client = net::Client::Connect("127.0.0.1", port);
    if (!client.ok()) return 0.0;
    direct.push_back(std::move(*client));
  }
  std::vector<double> routed_us, direct_us;
  constexpr size_t kHops = 500;
  for (const Request& r : prefix) {
    if (routed_us.size() == kHops) break;
    if (r.op == Op::kPut) continue;
    Completion completion;
    auto t0 = Clock::now();
    router.SubmitLine(r.line, completion.Callback());
    completion.Wait();
    routed_us.push_back(MicrosBetween(t0, Clock::now()));
    uint32_t owner = ring.Preference(r.table_ref).front();
    auto t1 = Clock::now();
    if (!direct[owner].Call(r.line).ok()) return 0.0;
    direct_us.push_back(MicrosBetween(t1, Clock::now()));
  }
  router.Shutdown();
  return Summarize(routed_us).mean - Summarize(direct_us).mean;
}

}  // namespace

int RunServingTraced(const Args& args, const ServingInputs& in) {
  bool churn = args.workload == "hot-churn";
  // Requests per second of run time each phase gets through, roughly.
  size_t per_second = args.workload == "ref-1k" ? 40 : churn ? 400 : 250;
  size_t n = std::min(in.stream.size(), per_second * args.seconds);
  std::vector<Request> prefix(in.stream.begin(), in.stream.begin() + n);

  Result<Stack> stack = SetUp(args, in, 0);
  if (!stack.ok()) {
    std::cerr << "perfbench: set-up failed: " << stack.status().ToString()
              << "\n";
    return 1;
  }
  TcpCounts tcp = TcpPhase(*stack, prefix);
  double hop_us = churn ? RouterHopUs(*stack, prefix) : 0.0;
  stack->Stop();

  Result<serve::InferenceEngine> engine = serve::InferenceEngine::Create(
      serve::EngineConfig(), in.verifier_weights, in.qa_weights);
  if (!engine.ok()) {
    std::cerr << "perfbench: " << engine.status().ToString() << "\n";
    return 1;
  }
  // The in-process server and both replays take the prefix in the same
  // ten chunks, interleaved, so that a slow stretch of the host falls on
  // all three alike.
  InProcess server(args, in, *engine);
  Layers layers;
  ReplayPass untraced_pass(args, in, *engine, layers, false);
  ReplayPass traced_pass(args, in, *engine, layers, true);
  constexpr size_t kChunks = 10;
  for (size_t c = 0; c < kChunks; ++c) {
    size_t begin = n * c / kChunks, end = n * (c + 1) / kChunks;
    server.Serve(prefix, begin, end);
    untraced_pass.Serve(prefix, begin, end);
    traced_pass.Serve(prefix, begin, end);
  }
  SpanLog untraced_log, log;
  ReplayStats untraced = untraced_pass.Finish(&untraced_log);
  ReplayStats traced = traced_pass.Finish(&log);

  std::map<std::string, double> v;
  v["serve.cache_hit_ratio"] = tcp.cache_hit_ratio;
  v["ir.plan_compiles_per_req"] = tcp.plan_compiles_per_req;
  v["ir.plan_hit_ratio"] = tcp.plan_hit_ratio;
  v["store.bytes_per_table"] = tcp.bytes_per_table;
  v["net.ping_rtt_us"] = tcp.ping_rtt_us;
  v["router.hop_us"] = hop_us;
  Summary wait = Summarize(server.queue_wait_us());
  v["serve.queue_wait_p50_us"] = wait.p50;
  v["serve.queue_wait_p99_us"] = wait.p99;
  for (const auto& [metric, span, self] :
       std::initializer_list<std::tuple<const char*, const char*, bool>>{
           {"json.parse_us", "json.parse", false},
           {"serve.cache_probe_us", "serve.cache_probe", false},
           {"router.put_key_us", "router.put_key", false},
           {"table.parse_us", "table.parse", false},
           {"table.warm_us", "table.warm", false},
           {"store.encode_us", "store.encode", false},
           {"store.put_us", "store.put", false},
           {"store.get_us", "store.get", false},
           {"model.predict_us", "model.predict", false},
           {"model.bind_us", "model.bind", true},
           {"model.features_us", "model.features", true},
           {"hybrid.expand_us", "hybrid.expand", false},
           {"program.fill_us", "program.fill", false},
           {"ir.execute_us", "ir.execute", false},
           {"nlgen.canonical_us", "nlgen.canonical", false}}) {
    v[metric] = PerRequestUs(log, span, self);
  }
  v["model.candidates_per_req"] =
      traced.ranked_requests == 0
          ? 0.0
          : static_cast<double>(traced.candidates) / traced.ranked_requests;
  // Tracing overhead: the same top-level calls with and without spans.
  v["trace.overhead_us"] =
      Summarize(traced.request_us).mean - Summarize(untraced.request_us).mean;
  // Coverage: worker-side self times (which sum to the worker-side calls'
  // durations) against the in-process server's pickup-to-response time.
  double service = Summarize(server.service_us()).mean;
  double self_sum = Summarize(traced.worker_us).mean;
  v["trace.service_us"] = service;
  v["trace.self_sum_us"] = self_sum;
  v["trace.coverage_gap"] = service > 0 ? 1.0 - self_sum / service : 0.0;

  Status written = WriteSpans(
      args.work_dir + "/../" + args.workload + ".spans.jsonl", log);
  Report report;
  report.Note("workload " + args.workload + " seed " +
              std::to_string(args.seed) +
              " traced: " + std::to_string(n) + " requests, " +
              std::to_string(log.spans().size()) + " spans" +
              (written.ok() ? "" : " (" + written.ToString() + ")"));
  report.DetailSummary("inproc_service_us", Summarize(server.service_us()),
                       "us");
  report.DetailSummary("inproc_queue_wait_us", wait, "us");
  if (!tcp.error.empty()) report.Note("check failed: " + tcp.error);
  AddLayerMetrics(v, &report);
  report.Print(tcp.error.empty(), n, 0);
  return tcp.error.empty() ? 0 : 1;
}

}  // namespace perfbench
