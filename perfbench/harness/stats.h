// Exact order statistics over raw samples. Every percentile the benchmark
// reports comes from here, never from obs::Histogram, whose power-of-two
// buckets report bucket upper bounds (up to 2x high).
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <utility>
#include <vector>

namespace perfbench {

/// The q-quantile (0 <= q <= 1) of `sorted`, which must be ascending:
/// linear interpolation between the two closest ranks, h = (n - 1) q
/// (Hyndman and Fan type 7, numpy's default). 0 for an empty input.
inline double QuantileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  double h = (static_cast<double>(sorted.size()) - 1.0) * q;
  size_t lo = static_cast<size_t>(std::floor(h));
  if (lo + 1 >= sorted.size()) return sorted.back();
  double frac = h - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
}

/// Summary of one metric's raw samples.
struct Summary {
  size_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
};

inline Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.mean = std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(samples.size());
  s.p50 = QuantileSorted(samples, 0.5);
  s.p99 = QuantileSorted(samples, 0.99);
  return s;
}

inline double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return QuantileSorted(samples, 0.5);
}

/// A timed run cut into consecutive windows of `window_s` seconds, each
/// metric being the median over the full windows of its per-window value.
/// One slow stretch of a shared host then moves one window, not the run.
struct Windowed {
  size_t windows = 0;
  double rate = 0.0;  ///< samples per second, first to last in a window
  double p50 = 0.0;
  double p99 = 0.0;
};

/// `samples` holds (seconds since the run started, value) pairs; samples
/// past the last full window are ignored.
inline Windowed ByWindow(const std::vector<std::pair<double, double>>& samples,
                         double window_s, double elapsed_s) {
  Windowed out;
  out.windows = static_cast<size_t>(elapsed_s / window_s);
  if (out.windows == 0) return out;
  std::vector<std::vector<double>> per(out.windows), at_per(out.windows);
  for (const auto& [at, value] : samples) {
    size_t w = static_cast<size_t>(at / window_s);
    if (at >= 0 && w < out.windows) {
      per[w].push_back(value);
      at_per[w].push_back(at);
    }
  }
  std::vector<double> rates, p50s, p99s;
  for (size_t i = 0; i < out.windows; ++i) {
    const std::vector<double>& at = at_per[i];
    if (at.size() >= 2) {
      auto [first, last] = std::minmax_element(at.begin(), at.end());
      if (*last > *first) {
        rates.push_back(static_cast<double>(at.size() - 1) / (*last - *first));
      }
    }
    if (per[i].empty()) continue;
    Summary s = Summarize(std::move(per[i]));
    p50s.push_back(s.p50);
    p99s.push_back(s.p99);
  }
  out.rate = Median(rates);
  out.p50 = Median(p50s);
  out.p99 = Median(p99s);
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
