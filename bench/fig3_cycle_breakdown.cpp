// Figure 3 reproduction: high-level application-level cycle breakdown
// (core compute / datacenter taxes / system taxes) per platform, recovered
// from GWP-style CPU samples.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_fleet.h"
#include "common/table.h"
#include "profiling/aggregate.h"

using namespace hyperprof;
using bench::GetFleet;

namespace {

void PrintFig3() {
  std::printf("=== Figure 3: High-Level Cycle Breakdown ===\n");
  std::printf("Paper anchors: core compute 18-36%%, datacenter taxes "
              "32-40%%, system taxes 32-42%%; >72%% of cycles on taxes.\n\n");
  TextTable table({"Platform", "Core Compute%", "Datacenter Taxes%",
                   "System Taxes%", "Taxes combined%"});
  for (size_t p = 0; p < 3; ++p) {
    auto result = GetFleet().Result(p);
    double cc =
        result.cycles.BroadFraction(profiling::BroadCategory::kCoreCompute);
    double dct = result.cycles.BroadFraction(
        profiling::BroadCategory::kDatacenterTax);
    double st =
        result.cycles.BroadFraction(profiling::BroadCategory::kSystemTax);
    table.AddRow(result.name,
                 {cc * 100, dct * 100, st * 100, (dct + st) * 100}, "%.1f");
  }
  std::printf("%s\n", table.ToString().c_str());
}

void BM_ComputeCycleBreakdown(benchmark::State& state) {
  const auto& profiler = GetFleet().ProfilerOf(bench::kSpanner);
  const auto& registry = GetFleet().registry();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        profiling::ComputeCycleBreakdown(profiler, registry));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(profiler.sample_count()));
}
BENCHMARK(BM_ComputeCycleBreakdown);

void BM_ClassifySymbol(benchmark::State& state) {
  const auto& registry = GetFleet().registry();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        registry.Classify("proto2::Message::SerializeToArray"));
    benchmark::DoNotOptimize(registry.Classify("paxos::NewFn"));
    benchmark::DoNotOptimize(registry.Classify("unknown::leaf"));
  }
}
BENCHMARK(BM_ClassifySymbol);

}  // namespace

int main(int argc, char** argv) {
  PrintFig3();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
