// Timing, span recording and result printing shared by the workloads.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Order-sensitive 64-bit FNV-1a digest, for the response digest.
class Digest {
 public:
  void Add(std::string_view bytes);
  std::string Hex() const;

 private:
  uint64_t h_ = 1469598103934665603ull;
};

/// What one run prints: free-form report lines, then the result object as
/// the last line of standard output.
class Report {
 public:
  /// A metric on the result line.
  void Add(const std::string& name, double value, const std::string& unit);
  /// A metric printed only in the report lines above the result.
  void Detail(const std::string& name, double value, const std::string& unit);
  /// A report line for a latency summary with its sample count.
  void DetailSummary(const std::string& name, const Summary& s,
                     const std::string& unit);
  void Note(const std::string& text);

  /// Prints the report lines, then the result object.
  void Print(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  std::vector<std::string> lines_;
  std::vector<std::string> result_metrics_;
};

/// One timed call into a layer. `parent` indexes the same SpanLog (-1 for a
/// root); spans of one request share `request`.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint32_t request = 0;
};

/// Spans of one thread, kept in memory until the run ends.
class SpanLog {
 public:
  int32_t Begin(const char* name, int32_t parent, uint32_t request);
  void End(int32_t span);
  const std::vector<Span>& spans() const { return spans_; }
  void Append(const SpanLog& other);

 private:
  std::vector<Span> spans_;
};

/// Times `fn()` as a span and returns its result.
template <typename Fn>
auto Traced(SpanLog* log, const char* name, int32_t parent, uint32_t request,
            Fn&& fn) {
  int32_t span = log->Begin(name, parent, request);
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    log->End(span);
  } else {
    auto out = fn();
    log->End(span);
    return out;
  }
}

/// Mean time per request of the spans called `name`: their summed duration
/// (or self time) over the distinct requests that have one. Self time is a
/// span's duration minus its recorded children's, which for replayed
/// children ran after it rather than inside it.
double PerRequestUs(const SpanLog& log, std::string_view name,
                    bool self = false);

/// Writes spans as one JSON object per line.
uctr::Status WriteSpans(const std::string& path, const SpanLog& log);

/// Peak resident set of this process, in MB.
double SelfPeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
