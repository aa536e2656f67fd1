#include "platforms/fleet.h"

#include <algorithm>
#include <cassert>
#include <tuple>

#include "common/thread_pool.h"
#include "platforms/platforms.h"
#include "storage/provisioning.h"

namespace hyperprof::platforms {

namespace {

// Seed of the merged tracer's reservoir stream and the merged profiler.
// Any fixed value works: the merge is a deterministic replay, and this
// constant is the only randomness source it constructs.
constexpr uint64_t kMergeSeed = 0x9e3779b97f4a7c15ULL;

// Every platform's CPU profiler: one sample per millisecond of on-core
// time, converted to cycles at 3 GHz.
constexpr SimTime kProfilerPeriod = SimTime::Micros(1000);
constexpr double kCpuHz = 3.0e9;

// Block spaces from this size up are set up on a thread pool (see
// BuildStoragePlane); below it the serial build takes milliseconds.
constexpr uint64_t kParallelSetupMinBlocks = uint64_t{1} << 18;

// Windowed-profiler options from the fleet config. `defer` marks worker
// shards, whose partial windows must not be budget-evaluated; the merged
// (or fused) instance evaluates in window-index order instead.
profiling::ContinuousOptions ContinuousOptionsFrom(const FleetConfig& config,
                                                   bool defer) {
  profiling::ContinuousOptions options;
  options.window = config.continuous_window;
  options.history_size = config.continuous_history;
  options.budget = config.continuous_budget;
  options.defer_evaluation = defer;
  return options;
}

}  // namespace

/**
 * One worker of a platform: its engine and the profiling state the engine
 * reports into. A fused platform has one worker, which runs on the storage
 * kernel and uses the storage plane's RPC fabric, so its simulator, rpc
 * and faults stay null. A sharded platform has one worker per worker
 * kernel, each with its own kernel, RPC fabric and fault model.
 */
struct FleetSimulation::PlatformSlot::WorkerShard {
  std::unique_ptr<sim::Simulator> simulator;
  std::unique_ptr<net::RpcSystem> rpc;
  std::unique_ptr<net::FaultModel> faults;
  std::unique_ptr<profiling::Tracer> tracer;
  std::unique_ptr<profiling::CpuProfiler> profiler;
  std::unique_ptr<profiling::ContinuousProfiler> continuous;
  std::unique_ptr<PlatformEngine> engine;
};

FleetSimulation::FleetSimulation(FleetConfig config)
    : config_(config), registry_(profiling::BuildFleetRegistry()) {}

FleetSimulation::~FleetSimulation() = default;

uint64_t FleetSimulation::PlatformSeed(uint64_t fleet_seed,
                                       size_t platform_index) {
  // SplitMix64 finalizer over the (seed, index) pair: well-distributed
  // per-platform streams even for adjacent fleet seeds. The small additive
  // constant selects the stream family under which the default calibration
  // fleet reproduces the paper's headline query-group shares (the
  // statistical recovery tests assert sharp thresholds on them).
  uint64_t z = fleet_seed + 4 +
               0x9e3779b97f4a7c15ULL *
                   (static_cast<uint64_t>(platform_index) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void FleetSimulation::BuildStoragePlane(PlatformSlot& slot, Rng& shard_rng) {
  slot.simulator = std::make_unique<sim::Simulator>();
  slot.simulator->Reserve(4096);
  slot.network = std::make_unique<net::NetworkModel>();
  slot.rpc = std::make_unique<net::RpcSystem>(
      slot.simulator.get(), slot.network.get(), shard_rng.Fork());
  slot.dfs = std::make_unique<storage::DistributedFileSystem>(
      slot.simulator.get(), slot.rpc.get(), config_.dfs, shard_rng.Fork());
  // Paper-scale block spaces build the sampler on a set-up pool of
  // config_.parallelism threads, which gives exactly what a serial build
  // gives; small block spaces stay serial and start no threads, since a
  // pool would cost more than it saves.
  const PlatformSpec& spec = slot.spec;
  std::unique_ptr<ThreadPool> pool;
  const size_t threads = ThreadPool::ResolveParallelism(config_.parallelism);
  if (threads > 1 && spec.block_space >= kParallelSetupMinBlocks) {
    pool = std::make_unique<ThreadPool>(threads);
  }
  // The sampler and the caches share nothing, so the cheap prewarm runs
  // alongside the sampler build.
  ForEachIndex(pool.get(), 2, [&](size_t job) {
    if (job == 0) {
      slot.block_sampler = std::make_unique<ZipfSampler>(
          spec.block_space, spec.block_zipf_s, pool.get());
      return;
    }
    // Start from the warm steady state: install the hottest blocks (block
    // id == Zipf popularity rank) so the configured tier hit rates hold
    // from the first query.
    const uint64_t ram_blocks = storage::MinKeysForMass(
        spec.ram_hit_target, spec.block_space, spec.block_zipf_s);
    const uint64_t ssd_blocks = storage::MinKeysForMass(
        spec.ram_ssd_hit_target, spec.block_space, spec.block_zipf_s);
    slot.dfs->PrewarmZipf(ram_blocks, ssd_blocks, spec.typical_block_bytes);
  });
}

std::unique_ptr<net::FaultModel> FleetSimulation::MakeFaultModel(
    Rng rng) const {
  auto faults = std::make_unique<net::FaultModel>(std::move(rng));
  faults->set_default_faults(config_.fault);
  for (const auto& window : config_.outages) faults->AddOutage(window);
  return faults;
}

void FleetSimulation::BuildWorker(const PlatformSlot& slot,
                                  PlatformSlot::WorkerShard& worker,
                                  EngineContext context, Rng tracer_rng,
                                  Rng profiler_rng, Rng engine_rng) {
  const bool sharded = slot.group != nullptr;
  // Sharded workers retain every trace regardless of the configured
  // retention: the post-run merge replays them through a tracer built with
  // the configured retention, which is where reservoir bounds apply.
  profiling::TracerOptions tracer_options;
  tracer_options.retention = sharded ? profiling::TraceRetention::kRetainAll
                                     : config_.trace_retention;
  tracer_options.reservoir_capacity = config_.trace_reservoir_capacity;
  worker.tracer = std::make_unique<profiling::Tracer>(
      config_.trace_sample_one_in, std::move(tracer_rng), tracer_options);
  worker.profiler = std::make_unique<profiling::CpuProfiler>(
      kProfilerPeriod, kCpuHz, std::move(profiler_rng));
  if (config_.continuous_window > SimTime::Zero()) {
    worker.continuous = std::make_unique<profiling::ContinuousProfiler>(
        ContinuousOptionsFrom(config_, /*defer=*/sharded));
  }
  context.dfs = slot.dfs.get();  // unused when sharded; kept non-null
  context.tracer = worker.tracer.get();
  context.profiler = worker.profiler.get();
  context.continuous = worker.continuous.get();
  context.block_sampler = slot.block_sampler.get();
  context.registry = &registry_;
  context.worker_hosts = config_.worker_hosts;
  PlatformSpec spec = slot.spec;
  // Worker-pool contention is a fused-mode feature: a finite core pool is
  // cross-query mutable state, which sharded determinism forbids.
  if (sharded) spec.worker_cores = 0;
  worker.engine = std::make_unique<PlatformEngine>(context, std::move(spec),
                                                   std::move(engine_rng));
}

void FleetSimulation::AddPlatform(PlatformSpec spec) {
  assert(!started_);
  const uint32_t num_shards = config_.shards_per_platform;
  auto slot = std::make_unique<PlatformSlot>();
  slot->spec = std::move(spec);
  // Every stochastic component of the platform forks from one
  // per-platform stream, so its behaviour depends only on (seed, index) —
  // never on which host thread runs it or what the other platforms do.
  // Fork order: storage plane (rpc, dfs), tracer, profiler, engine, and
  // the storage plane's faults LAST, in both modes.
  Rng shard_rng(PlatformSeed(config_.seed, slots_.size()));
  BuildStoragePlane(*slot, shard_rng);
  Rng tracer_rng = shard_rng.Fork();
  Rng profiler_rng = shard_rng.Fork();
  Rng engine_rng = shard_rng.Fork();
  if (num_shards == 0) {
    // Fused: one worker on the storage kernel, drawing from the three
    // streams directly.
    EngineContext context;
    context.simulator = slot->simulator.get();
    context.rpc = slot->rpc.get();
    slot->workers.push_back(std::make_unique<PlatformSlot::WorkerShard>());
    BuildWorker(*slot, *slot->workers[0], context, std::move(tracer_rng),
                std::move(profiler_rng), std::move(engine_rng));
  } else {
    // Sharded: every worker forks its own streams from the three. The
    // workers' tracer/profiler/rpc/fault streams are never consumed —
    // every sharded-mode draw comes from a per-query stream — so their
    // seeds only need to be deterministic. One base for the per-query
    // streams is shared by every worker: a query's stream depends on its
    // global index alone, which is the whole reason any shard count
    // recovers bit-identical results.
    const uint64_t stream_seed = engine_rng.Next();
    // Worker kernels first (kernel index == shard index), storage last.
    std::vector<sim::Simulator*> kernels;
    for (uint32_t k = 0; k < num_shards; ++k) {
      auto worker = std::make_unique<PlatformSlot::WorkerShard>();
      worker->simulator = std::make_unique<sim::Simulator>();
      worker->simulator->Reserve(4096);
      kernels.push_back(worker->simulator.get());
      slot->workers.push_back(std::move(worker));
    }
    kernels.push_back(slot->simulator.get());
    slot->group =
        std::make_unique<sim::ShardGroup>(kernels, config_.shard_window);
    slot->fabric = std::make_unique<ShardIoFabric>(slot->group.get(),
                                                   kernels, slot->dfs.get());
    for (uint32_t k = 0; k < num_shards; ++k) {
      PlatformSlot::WorkerShard& worker = *slot->workers[k];
      worker.rpc = std::make_unique<net::RpcSystem>(
          worker.simulator.get(), slot->network.get(), engine_rng.Fork());
      worker.faults = MakeFaultModel(engine_rng.Fork());
      worker.rpc->set_fault_model(worker.faults.get());
      EngineContext context;
      context.simulator = worker.simulator.get();
      context.rpc = worker.rpc.get();
      context.fabric = slot->fabric.get();
      context.shard_index = k;
      context.shard_count = num_shards;
      context.stream_seed = stream_seed;
      context.sample_one_in = config_.trace_sample_one_in;
      // Three distinct streams: the forks commute.
      BuildWorker(*slot, worker, context, tracer_rng.Fork(),
                  profiler_rng.Fork(), engine_rng.Fork());
    }
  }
  // The storage plane's fault stream forks LAST: every pre-existing
  // subsystem sees exactly the stream it saw before fault injection
  // existed, which is what keeps the fault-free goldens bit-identical
  // (pinned by golden_breakdown_test). Do not reorder.
  slot->faults = MakeFaultModel(shard_rng.Fork());
  slot->rpc->set_fault_model(slot->faults.get());
  slots_.push_back(std::move(slot));
}

void FleetSimulation::AddDefaultPlatforms() {
  AddPlatform(SpannerSpec());
  AddPlatform(BigTableSpec());
  AddPlatform(BigQuerySpec());
}

void FleetSimulation::FinalizePlatform(PlatformSlot& slot) {
  // --- Tracer merge: replay worker traces in canonical order ------------
  profiling::TracerOptions options;
  options.retention = config_.trace_retention;
  options.reservoir_capacity = config_.trace_reservoir_capacity;
  slot.merged_tracer = std::make_unique<profiling::Tracer>(
      config_.trace_sample_one_in, Rng(kMergeSeed), options);
  // Every worker interned the identical name table (the engines are
  // clones of one spec); copy it in id order so the NameIds carried by
  // replayed traces resolve unchanged.
  const profiling::NameInterner& names = slot.workers[0]->tracer->names();
  for (size_t id = 1; id <= names.size(); ++id) {
    slot.merged_tracer->names().Intern(
        names.Name(static_cast<profiling::NameId>(id)));
  }
  uint64_t seen = 0;
  size_t retained = 0;
  for (const auto& worker : slot.workers) {
    seen += worker->tracer->queries_seen();
    retained += worker->tracer->traces().size();
  }
  std::vector<const profiling::QueryTrace*> all;
  all.reserve(retained);
  for (const auto& worker : slot.workers) {
    for (const auto& trace : worker->tracer->traces()) all.push_back(&trace);
  }
  // Canonical completion order: ties on `end` are broken by trace id,
  // which is the global query index — unique and shard-layout-invariant.
  std::sort(all.begin(), all.end(),
            [](const profiling::QueryTrace* a,
               const profiling::QueryTrace* b) {
              return std::tie(a->end, a->trace_id) <
                     std::tie(b->end, b->trace_id);
            });
  // Replaying through the regular Start/AddSpan/Finish pipeline renumbers
  // span ids in replay order (shard-layout-invariant), folds each trace
  // into the streaming breakdown exactly as a fused run would, and
  // applies the configured retention (reservoir bounds included).
  for (const profiling::QueryTrace* trace : all) {
    uint64_t handle = slot.merged_tracer->StartQueryForced(
        trace->platform, trace->query_type, trace->start, /*sampled=*/true,
        trace->trace_id);
    for (const profiling::Span& span : trace->spans) {
      slot.merged_tracer->AddSpan(handle, span.kind, span.name, span.start,
                                  span.end, span.parent_id);
    }
    slot.merged_tracer->FinishQuery(handle, trace->end);
  }
  // Unsampled queries only bump the seen counter.
  while (slot.merged_tracer->queries_seen() < seen) {
    slot.merged_tracer->StartQueryForced(profiling::kInvalidNameId,
                                         profiling::kInvalidNameId,
                                         SimTime::Zero(), /*sampled=*/false,
                                         0);
  }
  // --- Profiler merge ---------------------------------------------------
  // Each worker holds folded per-symbol totals; absorbing them in shard
  // order adds exact integer sums, so the merged totals do not depend on
  // which shard sampled what, and symbol ids follow first-sample order.
  slot.merged_profiler = std::make_unique<profiling::CpuProfiler>(
      kProfilerPeriod, kCpuHz, Rng(kMergeSeed));
  for (const auto& worker : slot.workers) {
    slot.merged_profiler->AbsorbSamples(*worker->profiler);
  }
  // --- Continuous-profile merge: combine windows at the barrier ---------
  // Workers accumulated deferred (partial) windows; summing them by
  // absolute window index and evaluating in index order reproduces the
  // fused streaming aggregation bit-for-bit — integer window totals and
  // mergeable sketch bucket counts make the merge order irrelevant. Note
  // the merged tracer above replays traces with no continuous observer
  // attached: windows combine through MergeFrom, never by re-observation.
  if (config_.continuous_window > SimTime::Zero()) {
    slot.merged_continuous = std::make_unique<profiling::ContinuousProfiler>(
        ContinuousOptionsFrom(config_, /*defer=*/false));
    for (const auto& worker : slot.workers) {
      slot.merged_continuous->MergeFrom(*worker->continuous);
    }
    slot.merged_continuous->Finalize();
  }
}

void FleetSimulation::Start() {
  assert(!started_);
  started_ = true;
  // Resolved once: Advance runs on the serving daemon's pump path.
  host_threads_ = ThreadPool::ResolveParallelism(config_.parallelism);
  if (config_.queries_per_platform == 0) return;  // serving: Submit-driven
  for (auto& slot : slots_) {
    for (auto& worker : slot->workers) {
      worker->engine->Run(config_.queries_per_platform,
                          config_.arrival_rate_qps, []() {});
    }
  }
}

bool FleetSimulation::AdvanceSlot(size_t index, SimTime until,
                                  bool parallel) {
  PlatformSlot& slot = *slots_[index];
  const bool probing =
      config_.probe_period > SimTime::Zero() && config_.probe != nullptr;
  if (slot.group) {
    sim::ShardGroup::RunOptions options;
    options.parallel = parallel;
    if (probing) {
      options.probe_period = config_.probe_period;
      options.probe = [this, index]() { config_.probe(index); };
    }
    // Post-horizon hook for epoch coalescing: workers report their
    // engine's flagged-event bound; the storage kernel (last) posts only
    // synchronously inside delivered events, so its own next-event time
    // is a sound bound (Max when drained).
    PlatformSlot* slot_ptr = &slot;
    options.post_horizon = [slot_ptr](uint32_t kernel) -> SimTime {
      if (kernel < slot_ptr->workers.size()) {
        return slot_ptr->workers[kernel]->engine->PostHorizon();
      }
      return slot_ptr->simulator->next_event_time();
    };
    return slot.group->Advance(until, options);
  }
  sim::Simulator& kernel = *slot.simulator;
  if (probing) {
    // Bounded steps with a probe call after each. RunUntil executes the
    // same events in the same order as Run, so stepped and unstepped runs
    // are bit-identical (the simtest determinism invariant pins this by
    // comparing probed and unprobed digests). The last step stops at
    // `until`, where the front door admits its next queries.
    while (kernel.pending_events() > 0 && kernel.Now() < until) {
      kernel.RunUntil(std::min(until, kernel.Now() + config_.probe_period));
      config_.probe(index);
    }
  }
  if (until == SimTime::Max()) {
    kernel.Run();
  } else {
    kernel.RunUntil(until);
    // Seal windows the pause has passed, so live snapshots are fresh.
    // Every observation for a window ending at or before `until` has
    // already arrived (virtual time is monotone and RunUntil is
    // deadline-inclusive), so early sealing evaluates the same windows
    // with the same totals as a post-run Finalize — digests don't move.
    profiling::ContinuousProfiler* continuous =
        slot.workers[0]->continuous.get();
    if (continuous) continuous->AdvanceTo(until);
  }
  return kernel.pending_events() > 0;
}

bool FleetSimulation::Advance(SimTime until) {
  assert(started_ && !finished_);
  bool more = false;
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (AdvanceSlot(i, until, host_threads_ > 1)) more = true;
  }
  return more;
}

void FleetSimulation::Finish() {
  assert(started_ && !finished_);
  finished_ = true;
  // parallelism <= 1 is the fully serial path: no pool, no shard runner
  // threads. Otherwise sharded platforms run their kernels on runner
  // threads and the pool only spreads whole platforms; with several
  // sharded platforms this oversubscribes cores rather than serializing
  // kernels — wall-clock only, results are bit-identical either way.
  auto finish = [this](size_t index) {
    AdvanceSlot(index, SimTime::Max(), host_threads_ > 1);
    PlatformSlot& slot = *slots_[index];
    if (slot.group) {
      FinalizePlatform(slot);
    } else if (slot.workers[0]->continuous) {
      // Seal and evaluate the trailing window(s) now that virtual time
      // has stopped advancing.
      slot.workers[0]->continuous->Finalize();
    }
  };
  const size_t threads = std::min(host_threads_, slots_.size());
  if (threads <= 1) {
    for (size_t i = 0; i < slots_.size(); ++i) finish(i);
    return;
  }
  ThreadPool pool(threads);
  pool.ParallelFor(slots_.size(), finish);
}

void FleetSimulation::RunAll() {
  Start();
  Finish();
}

PlatformResult FleetSimulation::Result(size_t index) const {
  assert(index < slots_.size());
  const PlatformSlot& slot = *slots_[index];
  assert((!slot.group || slot.merged_tracer) &&
         "Result() before RunAll on sharded fleet");
  PlatformResult result;
  result.name = slot.spec.name;
  for (const auto& worker : slot.workers) {
    result.queries_completed += worker->engine->queries_completed();
  }
  // A fused tracer folded every finished trace at FinishQuery with the
  // same operation order as the batch path, and the sharded merge replayed
  // every trace through that pipeline, so this is bit-identical to
  // re-attributing the retained traces — and O(1).
  const profiling::Tracer& tracer = TracerOf(index);
  const profiling::CpuProfiler& profiler = ProfilerOf(index);
  result.queries_sampled = tracer.queries_sampled();
  result.e2e = tracer.breakdown().e2e();
  result.cycles = profiling::ComputeCycleBreakdown(profiler, registry_);
  result.microarch = profiling::ComputeMicroarchReport(profiler, registry_);
  return result;
}

PlatformResult FleetSimulation::Result(const std::string& name) const {
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i]->spec.name == name) return Result(i);
  }
  assert(false && "unknown platform");
  return PlatformResult{};
}

const std::vector<profiling::QueryTrace>& FleetSimulation::TracesOf(
    size_t index) const {
  return TracerOf(index).traces();
}

const profiling::NameInterner& FleetSimulation::NamesOf(size_t index) const {
  return TracerOf(index).names();
}

const profiling::Tracer& FleetSimulation::TracerOf(size_t index) const {
  assert(index < slots_.size());
  const PlatformSlot& slot = *slots_[index];
  // Sharded post-run: the canonical merged view. Otherwise worker 0's live
  // tracer: the whole platform when fused, a representative,
  // self-consistent partial view mid-run (probes) when sharded.
  return slot.merged_tracer ? *slot.merged_tracer : *slot.workers[0]->tracer;
}

const profiling::CpuProfiler& FleetSimulation::ProfilerOf(
    size_t index) const {
  assert(index < slots_.size());
  const PlatformSlot& slot = *slots_[index];
  return slot.merged_profiler ? *slot.merged_profiler
                              : *slot.workers[0]->profiler;
}

const profiling::ContinuousProfiler* FleetSimulation::ContinuousOf(
    size_t index) const {
  assert(index < slots_.size());
  const PlatformSlot& slot = *slots_[index];
  return slot.group ? slot.merged_continuous.get()
                    : slot.workers[0]->continuous.get();
}

const storage::DistributedFileSystem& FleetSimulation::DfsOf(
    size_t index) const {
  assert(index < slots_.size());
  return *slots_[index]->dfs;
}

const net::FaultModel& FleetSimulation::FaultsOf(size_t index) const {
  assert(index < slots_.size());
  return *slots_[index]->faults;
}

const net::RpcSystem& FleetSimulation::RpcOf(size_t index) const {
  assert(index < slots_.size());
  return *slots_[index]->rpc;
}

const PlatformEngine& FleetSimulation::EngineOf(size_t index) const {
  assert(index < slots_.size());
  return *slots_[index]->workers[0]->engine;
}

PlatformEngine& FleetSimulation::MutableEngineOf(size_t index) {
  assert(index < slots_.size());
  PlatformSlot& slot = *slots_[index];
  assert(!slot.group && "serving admission requires a fused platform");
  return *slot.workers[0]->engine;
}

sim::Simulator& FleetSimulation::SimulatorOf(size_t index) {
  assert(index < slots_.size());
  return *slots_[index]->simulator;
}

PlatformTotals FleetSimulation::TotalsOf(size_t index) const {
  assert(index < slots_.size());
  const PlatformSlot& slot = *slots_[index];
  PlatformTotals t;
  auto add_kernel = [&t](const sim::Simulator& kernel) {
    t.events_executed += kernel.events_executed();
    t.pending_events += kernel.pending_events();
    t.cancelled_in_heap += kernel.cancelled_events();
  };
  auto add_rpc = [&t](const net::RpcSystem& rpc) {
    t.completed_calls += rpc.completed_calls();
    t.failed_calls += rpc.failed_calls();
    t.retries_issued += rpc.retries_issued();
    t.hedges_issued += rpc.hedges_issued();
    t.hedge_wins += rpc.hedge_wins();
    t.timeouts_fired += rpc.timeouts_fired();
    t.cancelled_attempts += rpc.cancelled_attempts();
    t.wasted_seconds += rpc.wasted_seconds();
  };
  auto add_faults = [&t](const net::FaultModel& faults) {
    t.fault_decisions += faults.decisions();
    t.injected_drops += faults.injected_drops();
    t.injected_errors += faults.injected_errors();
    t.injected_slowdowns += faults.injected_slowdowns();
    t.outage_hits += faults.outage_hits();
  };
  for (const auto& worker : slot.workers) {
    t.queries_completed += worker->engine->queries_completed();
    t.io_failures += worker->engine->io_failures();
    if (worker->simulator) {  // a sharded worker's own substrate
      add_kernel(*worker->simulator);
      add_rpc(*worker->rpc);
      add_faults(*worker->faults);
    }
  }
  add_kernel(*slot.simulator);
  add_rpc(*slot.rpc);
  add_faults(*slot.faults);
  return t;
}

ShardStats FleetSimulation::ShardStatsOf(size_t index) const {
  assert(index < slots_.size());
  const PlatformSlot& slot = *slots_[index];
  ShardStats stats;
  if (!slot.group) return stats;
  stats.shard_count = static_cast<uint32_t>(slot.workers.size());
  stats.messages_posted = slot.group->messages_posted();
  stats.messages_delivered = slot.group->messages_delivered();
  stats.undelivered = slot.group->undelivered();
  stats.epochs = slot.group->epochs();
  stats.coalesced_epochs = slot.group->coalesced_epochs();
  stats.exchange_allocs = slot.group->exchange_allocs();
  stats.late_deliveries = slot.group->late_deliveries();
  return stats;
}

FleetMemoryStats FleetSimulation::MemoryStats() const {
  FleetMemoryStats stats;
  for (const auto& slot : slots_) {
    stats.kernel_bytes += slot->simulator->memory_bytes();
    for (const auto& worker : slot->workers) {
      if (worker->simulator) {
        stats.kernel_bytes += worker->simulator->memory_bytes();
      }
      stats.tracer_bytes += worker->tracer->memory_bytes();
      stats.profiler_bytes += worker->profiler->memory_bytes();
      if (worker->continuous) {
        stats.profiler_bytes += worker->continuous->memory_bytes();
      }
    }
    if (slot->merged_tracer) {
      stats.tracer_bytes += slot->merged_tracer->memory_bytes();
    }
    if (slot->merged_profiler) {
      stats.profiler_bytes += slot->merged_profiler->memory_bytes();
    }
    if (slot->merged_continuous) {
      stats.profiler_bytes += slot->merged_continuous->memory_bytes();
    }
    stats.storage_bytes += slot->dfs->memory_bytes();
    stats.sampler_bytes += slot->block_sampler->memory_bytes();
    // Four clusters of worker hosts per platform region (the client and
    // fan-out draw space of the engine).
    stats.simulated_workers += 4ULL * config_.worker_hosts;
  }
  stats.total_bytes =
      stats.kernel_bytes + stats.tracer_bytes + stats.profiler_bytes;
  if (stats.simulated_workers > 0) {
    stats.bytes_per_worker = static_cast<double>(stats.total_bytes) /
                             static_cast<double>(stats.simulated_workers);
  }
  return stats;
}

uint64_t FleetSimulation::total_events_executed() const {
  uint64_t total = 0;
  for (const auto& slot : slots_) {
    total += slot->simulator->events_executed();
    for (const auto& worker : slot->workers) {
      if (worker->simulator) total += worker->simulator->events_executed();
    }
  }
  return total;
}

}  // namespace hyperprof::platforms
