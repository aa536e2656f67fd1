#include "testing/simtest.h"

#include <mutex>
#include <utility>

#include "common/rng.h"
#include "common/strings.h"

namespace hyperprof::testing {

namespace {

/**
 * Invariants safe to assert while a shard is still mid-flight: ledger
 * bounds and counter relations that must hold at every instant, not just
 * at quiesce. Called from the probe hook — possibly concurrently from
 * different shards' host threads — so it only reads shard `index` and
 * appends under the caller's mutex.
 */
void MidRunCheck(const platforms::FleetSimulation& fleet, size_t index,
                 SimTime now, std::mutex& mu, std::vector<Violation>& out) {
  std::vector<Violation> local;
  const std::string& name = fleet.EngineOf(index).spec().name;
  auto report = [&](const char* detail) {
    local.push_back(Violation{
        "mid-run", name,
        StrFormat("%s at t=%.6fs", detail, now.ToSeconds())});
  };

  const auto& dfs = fleet.DfsOf(index);
  for (uint32_t s = 0; s < dfs.num_fileservers(); ++s) {
    const storage::TieredStore& store = dfs.server_store(s);
    uint64_t tier_sum = store.tier_reads(storage::Tier::kRam) +
                        store.tier_reads(storage::Tier::kSsd) +
                        store.tier_reads(storage::Tier::kHdd);
    if (tier_sum != store.reads()) report("tier reads != reads");
    if (store.ram_cache().used_bytes() > store.ram_cache().capacity_bytes())
      report("RAM ledger over capacity");
    if (store.ssd_cache().used_bytes() > store.ssd_cache().capacity_bytes())
      report("SSD ledger over capacity");
  }

  const auto& rpc = fleet.RpcOf(index);
  if (rpc.hedge_wins() > rpc.hedges_issued())
    report("hedge wins > hedges issued");
  if (rpc.cancelled_attempts() > rpc.retries_issued() + rpc.hedges_issued())
    report("cancelled > extra attempts");
  if (rpc.wasted_seconds() < 0) report("negative wasted time");

  const auto& tracer = fleet.TracerOf(index);
  if (tracer.queries_finished() > tracer.queries_sampled())
    report("finished > sampled");
  if (tracer.open_traces() !=
      tracer.queries_sampled() - tracer.queries_finished())
    report("open traces != sampled - finished");

  if (!local.empty()) {
    std::lock_guard<std::mutex> lock(mu);
    for (auto& violation : local) out.push_back(std::move(violation));
  }
}

/**
 * Builds and runs the scenario's fleet once at the given parallelism.
 * When `probe_period` is nonzero the run is stepped and `probe_out`
 * collects mid-run violations. When `incremental` is true the run goes
 * through Start/Advance/Finish with seed-derived random horizons instead
 * of RunAll — the serving daemon's pause-and-resume surface.
 */
RunArtifacts ExecuteOnce(const Scenario& scenario, uint32_t parallelism,
                         SimTime probe_period,
                         std::vector<Violation>* probe_out,
                         bool incremental = false) {
  platforms::FleetConfig config = scenario.config;
  config.parallelism = parallelism;
  config.probe_period = SimTime::Zero();
  config.probe = nullptr;

  // The probe closure needs the fleet, which needs the config: capture a
  // pointer slot by reference and fill it after construction (the probe
  // only fires while the fleet runs, in Advance or Finish, well after the
  // slot is set).
  platforms::FleetSimulation* fleet_ptr = nullptr;
  std::mutex probe_mu;
  if (probe_period > SimTime::Zero() && probe_out != nullptr) {
    config.probe_period = probe_period;
    config.probe = [&fleet_ptr, &probe_mu, probe_out](size_t index) {
      auto& fleet = *fleet_ptr;
      // Safe concurrently: SimulatorOf only reads shard-local state here.
      SimTime now =
          const_cast<platforms::FleetSimulation&>(fleet).SimulatorOf(index)
              .Now();
      MidRunCheck(fleet, index, now, probe_mu, *probe_out);
    };
  }

  platforms::FleetSimulation fleet(config);
  fleet_ptr = &fleet;
  for (const auto& spec : scenario.specs) fleet.AddPlatform(spec);
  if (incremental) {
    // Horizon steps are derived from the scenario seed so the pause
    // points vary across the fuzz corpus but replay identically.
    fleet.Start();
    Rng steps(scenario.seed ^ 0x1c3e6e7a1u);
    SimTime horizon = SimTime::Zero();
    while (true) {
      horizon +=
          SimTime::Micros(100 + static_cast<int64_t>(steps.NextBounded(20000)));
      if (!fleet.Advance(horizon)) break;
    }
    fleet.Finish();
  } else {
    fleet.RunAll();
  }

  RunArtifacts artifacts = CollectArtifacts(fleet);
  artifacts.scenario_seed = scenario.seed;
  artifacts.queries_per_platform = scenario.config.queries_per_platform;
  artifacts.retain_all = scenario.config.trace_retention ==
                         profiling::TraceRetention::kRetainAll;
  artifacts.reservoir_capacity = scenario.config.trace_reservoir_capacity;
  artifacts.faults_armed = scenario.config.fault.Enabled() ||
                           !scenario.config.outages.empty();
  artifacts.read_policy_plain = scenario.config.dfs.read_policy.Plain();
  artifacts.write_policy_plain = scenario.config.dfs.write_policy.Plain();
  return artifacts;
}

}  // namespace

std::string SeedReport::Summary() const {
  std::string out = scenario.Describe();
  if (violations.empty()) {
    out += "\n  OK";
    return out;
  }
  for (const auto& violation : violations) {
    out += "\n  " + violation.ToString();
  }
  return out;
}

SeedReport RunScenario(const Scenario& scenario,
                       const SimtestOptions& options) {
  SeedReport report;
  report.scenario = scenario;

  // Primary serial run, optionally probed mid-flight.
  std::vector<Violation> probe_violations;
  RunArtifacts primary = ExecuteOnce(scenario, /*parallelism=*/1,
                                     options.probe_period, &probe_violations);
  if (options.corrupt) options.corrupt(primary);
  report.digest = DigestArtifacts(primary);

  InvariantRegistry default_registry;
  const InvariantRegistry* registry = options.registry;
  if (registry == nullptr) {
    default_registry = InvariantRegistry::Default();
    registry = &default_registry;
  }
  report.violations = registry->Evaluate(primary);
  for (auto& violation : probe_violations) {
    report.violations.push_back(std::move(violation));
  }

  // Determinism contract, part 1: parallel host execution is bit-identical.
  if (options.check_parallel && scenario.compare_parallel) {
    RunArtifacts parallel = ExecuteOnce(scenario, /*parallelism=*/0,
                                        SimTime::Zero(), nullptr);
    uint64_t parallel_digest = DigestArtifacts(parallel);
    if (parallel_digest != report.digest) {
      report.violations.push_back(Violation{
          "determinism-serial-parallel", "",
          StrFormat("serial digest %016llx != parallel digest %016llx",
                    static_cast<unsigned long long>(report.digest),
                    static_cast<unsigned long long>(parallel_digest))});
    }
  }

  // Determinism contract, part 2: replaying the seed is bit-identical.
  // The replay is unprobed, so this also pins "stepped == unstepped".
  if (options.check_replay) {
    RunArtifacts replay = ExecuteOnce(scenario, /*parallelism=*/1,
                                      SimTime::Zero(), nullptr);
    uint64_t replay_digest = DigestArtifacts(replay);
    if (replay_digest != report.digest) {
      report.violations.push_back(Violation{
          "determinism-replay", "",
          StrFormat("run digest %016llx != replay digest %016llx",
                    static_cast<unsigned long long>(report.digest),
                    static_cast<unsigned long long>(replay_digest))});
    }
  }

  // Determinism contract, part 3: pausing at arbitrary virtual-time
  // horizons via Start/Advance/Finish (the serving daemon's front-door
  // path) is bit-identical to running the scenario in one shot.
  if (options.check_incremental) {
    RunArtifacts incremental = ExecuteOnce(scenario, /*parallelism=*/1,
                                           SimTime::Zero(), nullptr,
                                           /*incremental=*/true);
    uint64_t incremental_digest = DigestArtifacts(incremental);
    if (incremental_digest != report.digest) {
      report.violations.push_back(Violation{
          "determinism-incremental", "",
          StrFormat("run digest %016llx != incremental digest %016llx",
                    static_cast<unsigned long long>(report.digest),
                    static_cast<unsigned long long>(incremental_digest))});
    }
  }

  return report;
}

SeedReport RunSeed(uint64_t seed, const SimtestOptions& options) {
  Scenario scenario = ScenarioGen::Generate(seed);
  if (options.mutate) options.mutate(scenario);
  return RunScenario(scenario, options);
}

FuzzReport RunSeedBlock(
    uint64_t base_seed, uint64_t count, const SimtestOptions& options,
    const std::function<void(uint64_t, const SeedReport&)>& progress) {
  FuzzReport fuzz;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t seed = base_seed + i;
    SeedReport report = RunSeed(seed, options);
    ++fuzz.seeds_run;
    if (progress) progress(seed, report);
    if (!report.ok()) fuzz.failures.push_back(std::move(report));
  }
  return fuzz;
}

}  // namespace hyperprof::testing
