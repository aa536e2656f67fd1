#ifndef HYPERPROF_COMMON_RNG_H_
#define HYPERPROF_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hyperprof {

class ThreadPool;

/**
 * Deterministic pseudo-random number generator (xoshiro256**) with a
 * SplitMix64 seeder.
 *
 * Every stochastic component in the library draws from an Rng so that whole
 * fleet simulations are reproducible bit-for-bit from a single seed. The
 * generator is cheap (4x uint64 state, no allocation) and passes BigCrush.
 */
class Rng {
 public:
  /** Seeds the generator; identical seeds yield identical streams. */
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /** Returns the next raw 64-bit value. */
  uint64_t Next();

  /** Uniform double in [0, 1). */
  double NextDouble();

  /** Uniform integer in [0, bound) using Lemire's rejection method. */
  uint64_t NextBounded(uint64_t bound);

  /** Uniform integer in [lo, hi] inclusive. Requires lo <= hi. */
  int64_t NextInt(int64_t lo, int64_t hi);

  /** Bernoulli draw with success probability p. */
  bool NextBool(double p);

  /** Exponential draw with the given mean (mean > 0). */
  double NextExponential(double mean);

  /**
   * Log-normal draw parameterized by the mean and sigma of the *underlying*
   * normal distribution.
   */
  double NextLogNormal(double mu, double sigma);

  /** Standard normal draw (Box-Muller, no caching for determinism). */
  double NextGaussian();

  /**
   * Bounded Pareto draw on [lo, hi] with shape alpha.
   *
   * Heavy-tailed request/value sizes in hyperscale storage follow bounded
   * Pareto-like distributions; the bound keeps simulations finite.
   */
  double NextBoundedPareto(double alpha, double lo, double hi);

  /**
   * Forks an independent child generator.
   *
   * Used to hand each simulated worker its own stream so per-worker event
   * ordering does not perturb other workers' draws.
   */
  Rng Fork();

 private:
  uint64_t s_[4];
};

/**
 * O(1) sampling from a fixed discrete distribution via Walker's alias
 * method.
 *
 * Platform engines sample millions of categorized function activities per
 * run; the alias table makes each draw two RNG calls and two table reads.
 */
class AliasSampler {
 public:
  /**
   * Builds the table from non-negative weights; weights need not be
   * normalized. An all-zero weight vector yields a uniform sampler.
   */
  explicit AliasSampler(const std::vector<double>& weights);

  /** Samples an index in [0, size()). */
  size_t Sample(Rng& rng) const;

  size_t size() const { return prob_.size(); }

  /** Normalized probability of index i (for inspection/tests). */
  double Probability(size_t i) const;

  /** Column i of the alias table (for inspection/tests). */
  double Acceptance(size_t i) const { return prob_[i]; }
  size_t Alias(size_t i) const { return alias_[i]; }

 private:
  std::vector<double> prob_;
  std::vector<uint32_t> alias_;
  std::vector<double> normalized_;
};

/**
 * The unnormalized Zipf rank weights 1/(i+1)^s for i in [0, n); n == 0
 * yields the single weight of rank 0. ZipfSampler samples exactly the
 * distribution AliasSampler(ZipfWeights(n, s)) does.
 */
std::vector<double> ZipfWeights(size_t n, double s);

/**
 * Zipfian sampler over ranks [0, n) with skew parameter s.
 *
 * Key popularity in production KV stores is Zipf-like; this drives the
 * cache-hit behaviour of the storage substrate. Implemented via an alias
 * table over the rank probabilities, so draws are O(1).
 *
 * The table is built in place, with no weight or normalized copy: a
 * paper-scale block space has millions of ranks, and every platform
 * builds one. Its draws are bit-identical to those of
 * AliasSampler(ZipfWeights(n, s)) for every seed.
 */
class ZipfSampler {
 public:
  /**
   * A non-null `pool` computes the weights and the scale step in parallel.
   * The total is summed serially in rank order and the alias pairing is
   * serial, so the table is bit-identical with or without a pool. When the
   * columns below 1 form a suffix, as they do for s >= 0, the pairing needs
   * no scratch memory beyond the table.
   */
  ZipfSampler(size_t n, double s, ThreadPool* pool = nullptr);

  /** Samples a rank in [0, size()). */
  size_t Sample(Rng& rng) const;
  size_t size() const { return prob_.size(); }

  /** Column i of the alias table (for inspection/tests). */
  double Acceptance(size_t i) const { return prob_[i]; }
  size_t Alias(size_t i) const { return alias_[i]; }

  /** Heap bytes held by the alias table. */
  uint64_t memory_bytes() const {
    return prob_.capacity() * sizeof(double) +
           alias_.capacity() * sizeof(uint32_t);
  }

 private:
  std::vector<double> prob_;
  std::vector<uint32_t> alias_;
};

}  // namespace hyperprof

#endif  // HYPERPROF_COMMON_RNG_H_
