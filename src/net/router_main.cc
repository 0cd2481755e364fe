// uctr_router — consistent-hash shard router over a pool of
// `uctr_serve --listen` backends.
//
//   uctr_router --listen HOST:PORT --backends HOST:PORT[,HOST:PORT...]
//               [--workers N] [--queue N] [--put-replicas N]
//               [--probe-interval-ms N] [--probe-timeout-ms N]
//               [--timeout-ms N] [--vnodes N]
//               [--metrics] [--trace-out FILE]
//               [--fault-spec SPEC] [--fault-seed N]
//
// Speaks the exact uctr_serve wire protocol (length-prefixed JSON lines,
// per-connection ordered responses), so clients — including uctr_load —
// cannot tell a router from a single backend. Requests route by table
// fingerprint over a consistent-hash ring (see src/net/router.h for the
// routing, failover, replication and membership rules).
//
// Port 0 binds an ephemeral port; the resolved address is announced on
// stderr as "uctr_router: listening on HOST:PORT" (same contract as
// uctr_serve, so scripts/check.sh reuses its port-scraping). SIGINT /
// SIGTERM drain gracefully: stop accepting, finish every in-flight
// request against the backends, flush every response, then exit. Exit 0
// guarantees every requested byte made it out. A usage error (unknown
// flag, stray argument, missing value, malformed number) exits 1 before
// anything starts.
//
// --fault-spec arms the injector for the router's own sites
// (router.connect / router.send / router.recv / router.probe) plus the
// shared transport sites (net.accept / net.read / net.write).

#include <atomic>
#include <iostream>
#include <string>

#include "common/flags.h"
#include "fault/tool_flags.h"
#include "net/router.h"
#include "net/server.h"
#include "net/socket_util.h"

namespace {

using namespace uctr;

int Fail(const std::string& message) {
  std::cerr << "uctr_router: " << message << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string listen_flag, backends_flag;
  net::RouterConfig router_config;
  fault::ToolFlags tool;
  FlagSet flags;
  flags.String("listen", &listen_flag);
  flags.String("backends", &backends_flag);
  flags.Uint("workers", &router_config.workers);
  flags.Uint("queue", &router_config.queue_capacity);
  flags.Uint("vnodes", &router_config.vnodes);
  // Durability fan-out: each acked put_table also lands on N-1 ring
  // successors (see router.h; replica failures are counted, not fatal).
  flags.Uint("put-replicas", &router_config.put_replicas);
  flags.Uint("probe-interval-ms", &router_config.probe_interval_ms);
  flags.Uint("probe-timeout-ms", &router_config.probe_timeout_ms);
  flags.Uint("timeout-ms", &router_config.call_timeout_ms);
  tool.Declare(&flags);
  if (Status s = flags.Parse(argc, argv, 1); !s.ok()) {
    return Fail(s.ToString());
  }
  if (listen_flag.empty()) return Fail("--listen HOST:PORT is required");
  if (backends_flag.empty()) {
    return Fail("--backends HOST:PORT[,HOST:PORT...] is required");
  }
  auto listen = net::ParseHostPort(listen_flag);
  if (!listen.ok()) return Fail("--listen: " + listen.status().ToString());
  auto backends = net::ParseHostPortList(backends_flag);
  if (!backends.ok()) {
    return Fail("--backends: " + backends.status().ToString());
  }
  router_config.backends = std::move(*backends);
  if (Status s = tool.Start(); !s.ok()) return Fail(s.ToString());

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

  if (Status s = tool.Finish(); !s.ok()) return Fail(s.ToString());
  return 0;
}
