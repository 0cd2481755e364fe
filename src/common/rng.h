#ifndef UCTR_COMMON_RNG_H_
#define UCTR_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

namespace uctr {

/// \brief Deterministic, seedable pseudo-random generator (xoshiro256**).
///
/// Every stochastic component in the library (template sampling,
/// paraphrasing, corpus generation, model initialization, SGD shuffling)
/// draws from an explicitly passed Rng so whole experiments replay
/// bit-identically from one seed.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL) { Seed(seed); }

  /// \brief Re-seeds via splitmix64 so that nearby seeds diverge.
  void Seed(uint64_t seed);

  /// \brief Next raw 64 random bits.
  uint64_t Next();

  /// \brief Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// \brief Uniform double in [0, 1).
  double UniformDouble();

  /// \brief Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  /// \brief True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// \brief Uniformly chosen index into a container of `size` elements.
  /// Requires size > 0.
  size_t Index(size_t size);

  /// \brief Fisher-Yates shuffle in place.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->size() < 2) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = Index(i + 1);
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// \brief k distinct indices sampled without replacement from [0, n).
  /// Returns all of [0, n) (shuffled) when k >= n.
  std::vector<size_t> SampleIndices(size_t n, size_t k);

  /// \brief Index drawn proportionally to non-negative `weights`.
  /// Falls back to uniform when all weights are zero. Requires non-empty.
  size_t WeightedIndex(const std::vector<double>& weights);

 private:
  uint64_t state_[4];
};

}  // namespace uctr

#endif  // UCTR_COMMON_RNG_H_
