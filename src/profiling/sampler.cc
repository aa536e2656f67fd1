#include "profiling/sampler.h"

#include <cassert>
#include <cmath>

namespace hyperprof::profiling {

CpuProfiler::CpuProfiler(SimTime sample_period, double cpu_hz, Rng rng)
    : sample_period_(sample_period), cpu_hz_(cpu_hz), rng_(std::move(rng)) {
  assert(sample_period > SimTime::Zero());
  assert(cpu_hz > 0);
}

double CpuProfiler::CyclesPerSample() const {
  return sample_period_.ToSeconds() * cpu_hz_;
}

uint32_t CpuProfiler::InternSymbol(const std::string& symbol) {
  auto [it, inserted] =
      symbol_ids_.try_emplace(symbol,
                              static_cast<uint32_t>(symbol_names_.size()));
  if (inserted) {
    symbol_names_.push_back(symbol);
    totals_.emplace_back();
  }
  return it->second;
}

const std::string& CpuProfiler::SymbolName(uint32_t symbol_id) const {
  assert(symbol_id < symbol_names_.size());
  return symbol_names_[symbol_id];
}

void CpuProfiler::RecordActivity(const std::string& symbol, SimTime duration,
                                 const MicroarchProfile& profile) {
  RecordActivity(symbol, duration, profile, rng_);
}

void CpuProfiler::RecordActivity(const std::string& symbol, SimTime duration,
                                 const MicroarchProfile& profile, Rng& rng) {
  if (duration <= SimTime::Zero()) return;
  ++activities_;
  total_cpu_time_ += duration;
  // Random-phase periodic sampling: an activity of length d yields
  // floor(d/T) samples plus one more with probability frac(d/T).
  double expected = duration.ToSeconds() / sample_period_.ToSeconds();
  uint64_t count = static_cast<uint64_t>(expected);
  if (rng.NextBool(expected - std::floor(expected))) ++count;
  if (count == 0) return;
  uint32_t symbol_id = InternSymbol(symbol);
  SymbolTotals& cell = totals_[symbol_id];
  uint64_t cycles_per_sample =
      static_cast<uint64_t>(CyclesPerSample() + 0.5);
  for (uint64_t i = 0; i < count; ++i) {
    cell.counters.Add(SynthesizeCounters(profile, cycles_per_sample, rng));
  }
  cell.samples += count;
  sample_count_ += count;
}

void CpuProfiler::AbsorbSamples(const CpuProfiler& other) {
  for (size_t id = 0; id < other.totals_.size(); ++id) {
    const SymbolTotals& from = other.totals_[id];
    // A symbol interned without samples was never sampled; appending
    // samples would not have interned it here either.
    if (from.samples == 0) continue;
    uint32_t symbol_id = InternSymbol(other.symbol_names_[id]);
    SymbolTotals& cell = totals_[symbol_id];
    cell.samples += from.samples;
    cell.counters.Merge(from.counters);
  }
  sample_count_ += other.sample_count_;
  total_cpu_time_ += other.total_cpu_time_;
  activities_ += other.activities_;
}

size_t CpuProfiler::memory_bytes() const {
  size_t bytes = totals_.capacity() * sizeof(SymbolTotals) +
                 symbol_names_.capacity() * sizeof(std::string);
  for (const std::string& name : symbol_names_) bytes += name.capacity();
  // Hash map bookkeeping: roughly one bucket pointer plus one node per
  // entry; symbol keys are shared views of symbol_names_ in spirit but
  // stored as copies, so count them too.
  bytes += symbol_ids_.size() * (sizeof(void*) + sizeof(std::string) +
                                 sizeof(uint32_t));
  for (const auto& [key, id] : symbol_ids_) bytes += key.capacity();
  return bytes;
}

}  // namespace hyperprof::profiling
