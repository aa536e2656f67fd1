// Table 6 reproduction: per-platform IPC and MPKI statistics recovered
// from the synthesized PMU counters attached to fleet CPU samples.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_fleet.h"
#include "common/table.h"
#include "profiling/aggregate.h"

using namespace hyperprof;
using bench::GetFleet;

namespace {

void PrintTable6() {
  std::printf("=== Table 6: Platform IPC and MPKI Statistics ===\n");
  std::printf("Paper values: IPC 0.7 / 0.7 / 1.2; "
              "BR 5.5/6.2/3.5, L1I 19.0/18.2/11.3, L2I 9.7/11.5/4.6, "
              "LLC 1.2/1.3/1.0, ITLB 0.5/0.5/0.4, DTLB-LD 2.3/2.9/1.8.\n"
              "(Recovered values are the cycle-weighted composition of the "
              "Table 7 ground truth; see EXPERIMENTS.md.)\n\n");
  TextTable table({"Platform", "IPC", "BR", "L1I", "L2I", "LLC", "ITLB",
                   "DTLB-LD"});
  for (size_t p = 0; p < 3; ++p) {
    auto result = GetFleet().Result(p);
    const auto& rollup = result.microarch.overall;
    table.AddRow(result.name,
                 {rollup.Ipc(), rollup.BrMpki(), rollup.L1iMpki(),
                  rollup.L2iMpki(), rollup.LlcMpki(), rollup.ItlbMpki(),
                  rollup.DtlbLdMpki()},
                 "%.2f");
  }
  std::printf("%s\n", table.ToString().c_str());
}

void BM_ComputeMicroarchReport(benchmark::State& state) {
  const auto& profiler = GetFleet().ProfilerOf(bench::kBigTable);
  const auto& registry = GetFleet().registry();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        profiling::ComputeMicroarchReport(profiler, registry));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(profiler.sample_count()));
}
BENCHMARK(BM_ComputeMicroarchReport);

void BM_SynthesizeCounters(benchmark::State& state) {
  Rng rng(1);
  profiling::MicroarchProfile profile{0.7, 5.5, 19.0, 9.7, 1.2, 0.5, 2.3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        profiling::SynthesizeCounters(profile, 3000000, rng));
  }
}
BENCHMARK(BM_SynthesizeCounters);

}  // namespace

int main(int argc, char** argv) {
  PrintTable6();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
