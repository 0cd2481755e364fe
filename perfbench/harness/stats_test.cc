// Checks the benchmark's quantile code against hand-computed values.
//
//   cmake --build .bench_build/perfbench --target perfbench_stats_test
//   .bench_build/perfbench/perfbench_stats_test
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(const char* what, double got, double want) {
  if (std::fabs(got - want) > 1e-9) {
    std::printf("FAIL %s: got %.12g, want %.12g\n", what, got, want);
    ++failures;
  }
}

}  // namespace

int main() {
  using perfbench::QuantileSorted;
  using perfbench::Summarize;

  // Empty and single-sample inputs.
  Expect("empty", QuantileSorted({}, 0.5), 0.0);
  Expect("single p50", QuantileSorted({7.0}, 0.5), 7.0);
  Expect("single p99", QuantileSorted({7.0}, 0.99), 7.0);

  // {1,2,3,4}: h = 3q. p50: h = 1.5 -> 2 + 0.5 * (3 - 2) = 2.5.
  // p99: h = 2.97 -> 3 + 0.97 * (4 - 3) = 3.97. p0 = 1, p100 = 4.
  std::vector<double> four = {1, 2, 3, 4};
  Expect("four p50", QuantileSorted(four, 0.5), 2.5);
  Expect("four p99", QuantileSorted(four, 0.99), 3.97);
  Expect("four p0", QuantileSorted(four, 0.0), 1.0);
  Expect("four p100", QuantileSorted(four, 1.0), 4.0);

  // 1..101: h = 100q lands exactly on ranks, so p50 = 51 and p99 = 100.
  std::vector<double> hundred_one;
  for (int i = 1; i <= 101; ++i) hundred_one.push_back(i);
  Expect("101 p50", QuantileSorted(hundred_one, 0.5), 51.0);
  Expect("101 p99", QuantileSorted(hundred_one, 0.99), 100.0);

  // A bucketed histogram would report 128 for 65..128; the exact value is
  // the sample itself. Summarize sorts its (unsorted) input first.
  perfbench::Summary s = Summarize({100.0, 65.0, 70.0, 90.0, 80.0});
  Expect("summary count", static_cast<double>(s.count), 5.0);
  Expect("summary mean", s.mean, 81.0);
  Expect("summary p50", s.p50, 80.0);
  // sorted {65,70,80,90,100}; h = 4 * 0.99 = 3.96 -> 90 + 0.96 * 10 = 99.6.
  Expect("summary p99", s.p99, 99.6);

  Expect("median even", perfbench::Median({4, 1, 3, 2}), 2.5);

  // Three 1-s windows over 3.5 s; the half window at the end is dropped.
  // Window 0: {1, 3} (p50 2), window 1: {10} (p50 10), window 2: {4, 6, 8}
  // (p50 6) -> median p50 6. Rates count intervals between a window's first
  // and last sample: window 0 1 / 0.8 = 1.25, window 1 none, window 2
  // 2 / 0.9 -> median (1.25 + 2.2222...) / 2.
  perfbench::Windowed w = perfbench::ByWindow(
      {{0.1, 1}, {0.9, 3}, {1.5, 10}, {2.0, 4}, {2.2, 6}, {2.9, 8}, {3.2, 99}},
      1.0, 3.5);
  Expect("windows", static_cast<double>(w.windows), 3.0);
  Expect("window rate", w.rate, (1.25 + 2.0 / 0.9) / 2.0);
  Expect("window p50", w.p50, 6.0);
  // p99s: 1 + 0.99 * 2 = 2.98, 10, 6 + 0.98 * 2 = 7.96 -> median 7.96.
  Expect("window p99", w.p99, 7.96);

  if (failures == 0) std::printf("perfbench_stats_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
