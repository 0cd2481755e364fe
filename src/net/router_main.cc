// uctr_router — consistent-hash shard router over a pool of
// `uctr_serve --listen` backends.
//
//   uctr_router --listen HOST:PORT --backends HOST:PORT[,HOST:PORT...]
//               [--workers N] [--queue N] [--replicas N]
//               [--put-replicas N]
//               [--hot-threshold N] [--hot-window-ms N]
//               [--probe-interval-ms N] [--probe-timeout-ms N]
//               [--timeout-ms N] [--vnodes N]
//               [--metrics] [--trace-out FILE]
//               [--fault-spec SPEC] [--fault-seed N]
//
// Speaks the exact uctr_serve wire protocol (length-prefixed JSON lines,
// per-connection ordered responses), so clients — including uctr_load —
// cannot tell a router from a single backend. Requests route by table
// fingerprint over a consistent-hash ring (see src/net/router.h for the
// routing, failover, hedging, and membership rules).
//
// Port 0 binds an ephemeral port; the resolved address is announced on
// stderr as "uctr_router: listening on HOST:PORT" (same contract as
// uctr_serve, so scripts/check.sh reuses its port-scraping). SIGINT /
// SIGTERM drain gracefully: stop accepting, finish every in-flight
// request against the backends, flush every response, then exit. Exit 0
// guarantees every requested byte made it out.
//
// --fault-spec arms the injector for the router's own sites
// (router.connect / router.send / router.recv / router.probe) plus the
// shared transport sites (net.accept / net.read / net.write).

#include <atomic>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "net/router.h"
#include "net/server.h"
#include "net/socket_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

using namespace uctr;

int Fail(const std::string& message) {
  std::cerr << "uctr_router: " << message << "\n";
  return 1;
}

std::map<std::string, std::string> ParseFlags(int argc, char** argv,
                                              int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    std::string key = arg.substr(2);
    std::string value = "1";
    if (auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      value = argv[++i];
    }
    flags[key] = value;
  }
  return flags;
}

size_t FlagSize(const std::map<std::string, std::string>& flags,
                const std::string& key, size_t fallback) {
  auto it = flags.find(key);
  if (it == flags.end()) return fallback;
  return static_cast<size_t>(std::stoul(it->second));
}

Status MaybeArmFaults(const std::map<std::string, std::string>& flags) {
  auto it = flags.find("fault-spec");
  if (it == flags.end()) return Status::OK();
  if (auto seed = flags.find("fault-seed"); seed != flags.end()) {
    fault::FaultInjector::Global().Seed(std::stoull(seed->second));
  }
  return fault::FaultInjector::Global().ArmSpec(it->second);
}

std::string MaybeEnableTracing(
    const std::map<std::string, std::string>& flags) {
  auto it = flags.find("trace-out");
  if (it == flags.end()) return "";
  obs::Tracer::Default().set_enabled(true);
  return it->second;
}

int DumpTrace(const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (out) out << obs::Tracer::Default().ToLdjson();
  out.close();
  if (!out) return Fail("cannot write trace to " + path);
  std::cerr << "wrote " << obs::Tracer::Default().size() << " spans to "
            << path << "\n";
  return 0;
}

Result<std::vector<net::HostPort>> ParseBackends(const std::string& list) {
  std::vector<net::HostPort> backends;
  size_t pos = 0;
  while (pos <= list.size()) {
    size_t comma = list.find(',', pos);
    std::string piece = list.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (!piece.empty()) {
      auto hp = net::ParseHostPort(piece);
      if (!hp.ok()) return hp.status();
      if (hp->port == 0) {
        return Status::InvalidArgument("backend '" + piece +
                                       "' needs an explicit port");
      }
      backends.push_back(*hp);
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (backends.empty()) {
    return Status::InvalidArgument(
        "--backends needs at least one HOST:PORT");
  }
  return backends;
}

int Run(const std::map<std::string, std::string>& flags) {
  auto listen_it = flags.find("listen");
  if (listen_it == flags.end()) {
    return Fail("--listen HOST:PORT is required");
  }
  auto backends_it = flags.find("backends");
  if (backends_it == flags.end()) {
    return Fail("--backends HOST:PORT[,HOST:PORT...] is required");
  }
  auto listen = net::ParseHostPort(listen_it->second);
  if (!listen.ok()) return Fail(listen.status().ToString());
  auto backends = ParseBackends(backends_it->second);
  if (!backends.ok()) return Fail(backends.status().ToString());

  std::string trace_path = MaybeEnableTracing(flags);

  net::RouterConfig router_config;
  router_config.backends = std::move(*backends);
  router_config.workers = FlagSize(flags, "workers", 64);
  router_config.queue_capacity = FlagSize(flags, "queue", 8192);
  router_config.vnodes = FlagSize(flags, "vnodes", 64);
  router_config.replicas = FlagSize(flags, "replicas", 1);
  // Durability fan-out: each acked put_table also lands on N-1 ring
  // successors (see router.h; replica failures are counted, not fatal).
  router_config.put_replicas = FlagSize(flags, "put-replicas", 1);
  router_config.hot_threshold = FlagSize(flags, "hot-threshold", 64);
  router_config.hot_window_ms =
      static_cast<int>(FlagSize(flags, "hot-window-ms", 1000));
  router_config.probe_interval_ms =
      static_cast<int>(FlagSize(flags, "probe-interval-ms", 100));
  router_config.probe_timeout_ms =
      static_cast<int>(FlagSize(flags, "probe-timeout-ms", 500));
  router_config.call_timeout_ms =
      static_cast<int>(FlagSize(flags, "timeout-ms", 30000));
  net::Router router(router_config);
  if (Status s = router.Start(); !s.ok()) return Fail(s.ToString());
  std::cerr << "uctr_router: ring of " << router.backend_count()
            << " backends, " << router.backends_in_ring()
            << " reachable\n";

  const std::atomic<bool>& shutdown_requested = net::InstallShutdownHandlers();

  net::NetServerConfig net_config;
  net_config.host = listen->host;
  net_config.port = listen->port;
  net::Server net_server(&router, net_config);
  if (Status s = net_server.Start(); !s.ok()) {
    return Fail(s.ToString());  // bind/listen failure: nonzero exit
  }
  net_server.set_shutdown_flag(&shutdown_requested);
  // Announced on stderr so scripts can recover an ephemeral port (same
  // format as uctr_serve).
  std::cerr << "uctr_router: listening on " << listen->host << ":"
            << net_server.port() << "\n";
  net_server.Run();
  router.Drain();
  router.Shutdown();
  std::cerr << "uctr_router: drained, shutting down\n";

  if (flags.count("metrics") != 0) {
    std::cerr << obs::DefaultRegistry().ExpositionText();
    std::cerr.flush();
    if (!std::cerr) return 1;
  }
  if (!trace_path.empty()) return DumpTrace(trace_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = ParseFlags(argc, argv, 1);
  if (Status s = MaybeArmFaults(flags); !s.ok()) return Fail(s.ToString());
  return Run(flags);
}
