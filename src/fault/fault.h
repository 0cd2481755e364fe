#ifndef UCTR_FAULT_FAULT_H_
#define UCTR_FAULT_FAULT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace uctr::fault {

/// \brief What an armed fault rule does when it fires.
enum class FaultKind {
  kError,    ///< The fault point returns an injected error Status.
  kLatency,  ///< The fault point sleeps, then returns OK (a latency spike).
};

/// \brief One armed injection rule, targeting a named site.
///
/// Sites are dotted strings compiled into the code via UCTR_FAULT_POINT
/// ("store.wal_append", "router.send", ...). A rule matches its site
/// exactly, or by prefix when the rule's site ends in '*' ("store.*").
struct FaultRule {
  std::string site;
  FaultKind kind = FaultKind::kError;
  /// For kError: the injected Status code. Transient codes (see
  /// IsTransient) exercise retry paths; permanent ones exercise
  /// fail/degrade paths.
  StatusCode code = StatusCode::kUnavailable;
  /// Human tag carried in the injected Status message (defaulted when
  /// empty).
  std::string message;
  /// For kLatency: how long the fault point sleeps when it fires.
  int latency_ms = 0;
  /// Fires with this probability per evaluation (seeded; deterministic).
  double probability = 1.0;
  /// Fire at most this many times; -1 = unlimited.
  int max_triggers = -1;
  /// Pass through the first N evaluations before becoming eligible.
  int skip_first = 0;

  // Runtime state (owned by the injector).
  int evaluated = 0;
  int triggered = 0;
};

/// \brief Deterministic, site-tagged fault-injection registry.
///
/// Code under test declares named fault points with UCTR_FAULT_POINT;
/// tests and the `--fault-spec` CLI flag arm rules against those sites.
/// When nothing is armed, a fault point is a single relaxed atomic load.
/// Evaluation order, probabilities, and trigger caps are driven by a
/// seeded Rng, so a (spec, seed) pair replays the same schedule.
///
/// Thread safety: Arm/Disarm/Check may be called from any thread. Latency
/// sleeps happen outside the injector lock.
class FaultInjector {
 public:
  FaultInjector() = default;

  /// \brief The process-wide injector every UCTR_FAULT_POINT consults.
  static FaultInjector& Global();

  /// \brief Adds one rule and arms the injector.
  void Arm(FaultRule rule);

  /// \brief Parses a `--fault-spec` string and arms every rule in it.
  ///
  /// Grammar (';'-separated rules):
  ///   rule   := site '=' action (':' opt)*
  ///   action := 'error' [ '(' code ')' ]   // default code: unavailable
  ///           | 'latency' '(' millis ')'
  ///           | 'alloc'                    // allocation failure shorthand
  ///   opt    := 'p=' float                 // probability, default 1
  ///           | 'n=' int                   // max triggers, default unlimited
  ///           | 'after=' int               // skip the first N evaluations
  ///
  /// Codes are lower_snake StatusCode names: unavailable,
  /// deadline_exceeded, internal, execution_error, parse_error, not_found,
  /// invalid_argument, type_error, out_of_range, empty_result.
  ///
  /// Example:
  ///   store.wal_fsync=error(unavailable):p=0.5;sched.dequeue=latency(5)
  Status ArmSpec(std::string_view spec);

  /// \brief Parses without arming (exposed for tests and validation).
  static Status ParseSpec(std::string_view spec,
                          std::vector<FaultRule>* rules);

  /// \brief Clears every rule and disarms the injector.
  void Disarm();

  /// \brief Reseeds the probability stream (default seed: 0xFA17).
  void Seed(uint64_t seed);

  /// \brief True when at least one rule is armed (the fast-path gate).
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// \brief Evaluates the armed rules against `site`: sleeps for matching
  /// latency rules, then returns the first matching error rule's Status
  /// (or OK). Injections are counted per site in the metrics registry as
  /// `faults_injected_total{site="..."}`.
  Status Check(const char* site);

  /// \brief Total injections (errors + latency spikes) since last Disarm.
  uint64_t injected_total() const {
    return injected_total_.load(std::memory_order_relaxed);
  }

  /// \brief Overrides the metrics sink (null = obs::DefaultRegistry()).
  void set_metrics(obs::MetricsRegistry* metrics);

 private:
  std::atomic<bool> armed_{false};
  std::atomic<uint64_t> injected_total_{0};
  mutable std::mutex mu_;
  std::vector<FaultRule> rules_;
  Rng rng_{0xFA17ULL};
  obs::MetricsRegistry* metrics_ = nullptr;  // null = DefaultRegistry()
};

}  // namespace uctr::fault

/// \brief Declares a named injection site. Evaluates to a Status: OK in
/// normal operation (and always OK when compiled out with
/// -DUCTR_DISABLE_FAULT_INJECTION), or the injected error while a matching
/// rule is armed. Disarmed cost: one relaxed atomic load.
#ifdef UCTR_DISABLE_FAULT_INJECTION
#define UCTR_FAULT_POINT(site) ::uctr::Status::OK()
#else
#define UCTR_FAULT_POINT(site)                                \
  (::uctr::fault::FaultInjector::Global().armed()             \
       ? ::uctr::fault::FaultInjector::Global().Check(site)   \
       : ::uctr::Status::OK())
#endif

#endif  // UCTR_FAULT_FAULT_H_
