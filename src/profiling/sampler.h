#ifndef HYPERPROF_PROFILING_SAMPLER_H_
#define HYPERPROF_PROFILING_SAMPLER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/sim_time.h"
#include "profiling/microarch.h"

namespace hyperprof::profiling {

/**
 * Folded samples of one interned leaf symbol: how many GWP-style samples
 * landed on it and the sum of their PMU counter deltas. Every consumer of
 * the profile sums exact integers per symbol, so these totals carry the
 * whole profile; storage is one cell per symbol, whatever the run length.
 */
struct SymbolTotals {
  uint64_t samples = 0;
  CounterRollup counters;
};

/**
 * Fleet CPU profiler in the style of Google-Wide Profiling: time-based
 * sampling of on-CPU leaf functions with performance counters attached.
 *
 * The simulated platforms report every function execution interval; the
 * profiler turns each into an expected number of period-spaced samples
 * with random phase (so short activities are sampled proportionally in
 * expectation), synthesizing PMU counters from the activity's
 * microarchitectural profile. Cycle attribution is sample-count x period,
 * exactly how GWP-derived cycle breakdowns are computed.
 *
 * Samples are folded into per-symbol totals as they are taken. Symbols
 * are interned in the order of their first sample, so symbol ids, like
 * the totals, are a function of the sample stream alone.
 */
class CpuProfiler {
 public:
  /**
   * @param sample_period CPU time between samples on one core.
   * @param cpu_hz Core frequency used to convert time to cycles.
   * @param rng Sampling randomness (owned).
   */
  CpuProfiler(SimTime sample_period, double cpu_hz, Rng rng);

  /**
   * Reports that `symbol` ran on-CPU for `duration` with the given
   * microarchitectural behaviour. Emits 0..k samples.
   */
  void RecordActivity(const std::string& symbol, SimTime duration,
                      const MicroarchProfile& profile);

  /**
   * RecordActivity with the sampling draws taken from `rng` instead of
   * the profiler's own stream. Shard engines pass the running query's
   * stream so sample counts and counter noise are properties of the
   * query, not of which other queries share the kernel.
   */
  void RecordActivity(const std::string& symbol, SimTime duration,
                      const MicroarchProfile& profile, Rng& rng);

  /**
   * Adds every symbol's totals of `other` into this profiler, visiting
   * `other`'s symbols in id order and re-interning each into this
   * profiler's table, and folds its activity totals. Used to merge
   * per-shard profilers into one platform view. Ids follow first-sample
   * order, so the merged ids are those of appending `other`'s samples one
   * by one; the totals are integer sums, so they are exact in any order.
   */
  void AbsorbSamples(const CpuProfiler& other);

  /**
   * Bytes of symbol and totals storage currently reserved (capacities,
   * not sizes). RSS-independent input to the fleet's memory accounting;
   * it grows with distinct symbols, not with samples taken.
   */
  size_t memory_bytes() const;

  /** Samples taken so far, over all symbols. */
  uint64_t sample_count() const { return sample_count_; }

  /** Folded samples per symbol, indexed by interned symbol id. */
  const std::vector<SymbolTotals>& symbol_totals() const { return totals_; }

  /** Resolves an interned symbol id back to its name. */
  const std::string& SymbolName(uint32_t symbol_id) const;

  /** Interns a symbol (exposed for tests). */
  uint32_t InternSymbol(const std::string& symbol);

  /** Cycles represented by one sample (period x frequency). */
  double CyclesPerSample() const;

  SimTime total_cpu_time() const { return total_cpu_time_; }
  uint64_t activities_recorded() const { return activities_; }

 private:
  SimTime sample_period_;
  double cpu_hz_;
  Rng rng_;
  std::vector<SymbolTotals> totals_;  // [symbol id]
  uint64_t sample_count_ = 0;
  std::unordered_map<std::string, uint32_t> symbol_ids_;
  std::vector<std::string> symbol_names_;
  SimTime total_cpu_time_;
  uint64_t activities_ = 0;
};

}  // namespace hyperprof::profiling

#endif  // HYPERPROF_PROFILING_SAMPLER_H_
