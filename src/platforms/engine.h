#ifndef HYPERPROF_PLATFORMS_ENGINE_H_
#define HYPERPROF_PLATFORMS_ENGINE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/slot_pool.h"
#include "net/rpc.h"
#include "platforms/shuffle.h"
#include "platforms/spec.h"
#include "profiling/function_registry.h"
#include "profiling/sampler.h"
#include "profiling/tracer.h"
#include "sim/barrier.h"
#include "sim/resource.h"
#include "sim/shard_group.h"
#include "sim/simulator.h"
#include "storage/dfs.h"

namespace hyperprof::platforms {

/**
 * The storage fabric of a sharded platform (see
 * FleetConfig::shards_per_platform). A worker shard's engine submits reads
 * and writes here instead of calling the filesystem directly: the request
 * hops from the worker kernel to the storage kernel and the completion
 * hops back, each hop taking exactly one shard window, the modeled
 * worker<->fileserver latency that makes the group's conservative epochs
 * sound. `lane` is the global query index and `seq` a per-query message
 * counter: together the shard-layout-invariant key that fixes the
 * canonical delivery order of same-instant cross-shard messages. Request
 * and reply share the key; they differ in destination.
 *
 * Continuation state follows DESIGN.md §17. Each worker shard owns a
 * SlotPool of hop records, and the request payload, the filesystem's
 * reply callback and the reply payload capture only (fabric, record).
 * Only the owning worker's thread acquires and releases its records. The
 * storage kernel's thread reaches a record through its stable address
 * alone (SlotPool chunks never move) and never indexes the pool, whose
 * chunk table the worker may grow concurrently; the epoch barrier orders
 * its write of the result before the worker reads it.
 */
class ShardIoFabric {
 public:
  /** `kernels` = worker kernels in shard order, storage kernel last. */
  ShardIoFabric(sim::ShardGroup* group, std::vector<sim::Simulator*> kernels,
                storage::DistributedFileSystem* dfs);

  ShardIoFabric(const ShardIoFabric&) = delete;
  ShardIoFabric& operator=(const ShardIoFabric&) = delete;

  /**
   * Reads `bytes` of `block_id` for worker `shard` or, with `is_write`,
   * writes them to `replication` fileservers. Called on the worker's
   * kernel; `on_done` runs there two windows after the storage plane
   * starts, plus the storage plane's own time.
   */
  void Submit(uint32_t shard, uint64_t lane, uint64_t seq,
              const net::NodeId& client, uint64_t block_id, uint64_t bytes,
              bool is_write, uint32_t replication,
              storage::DistributedFileSystem::ReadCallback on_done);

 private:
  /** One storage round trip in flight. */
  struct Hop {
    uint32_t shard = 0;
    uint32_t index = 0;  // this record's index in its shard's pool
    uint64_t lane = 0;
    uint64_t seq = 0;
    net::NodeId client;
    uint64_t block_id = 0;
    uint64_t bytes = 0;
    uint32_t replication = 0;
    bool is_write = false;
    storage::DistributedFileSystem::ReadCallback on_done;
    storage::IoResult io;  // written on the storage kernel's thread
  };

  /** A worker shard's records, on a cache line of their own. */
  struct alignas(64) ShardHops {
    SlotPool<Hop> pool;
  };

  /** Storage kernel: runs the IO and posts the reply. */
  void Serve(Hop* hop);
  /** Worker kernel: recycles the record, then runs its completion. */
  void Complete(Hop* hop);

  sim::ShardGroup* group_;
  std::vector<sim::Simulator*> kernels_;
  uint32_t storage_index_;
  storage::DistributedFileSystem* dfs_;
  std::vector<ShardHops> hops_;  // [shard]
};

/** Everything a platform engine needs from the substrate. */
struct EngineContext {
  sim::Simulator* simulator = nullptr;
  storage::DistributedFileSystem* dfs = nullptr;
  net::RpcSystem* rpc = nullptr;
  profiling::Tracer* tracer = nullptr;
  profiling::CpuProfiler* profiler = nullptr;
  const profiling::FunctionRegistry* registry = nullptr;
  // Optional continuous (windowed) profiler. The engine attaches it to the
  // tracer so every sampled finish lands in its virtual-time window, and
  // advances it past the final completion when the workload drains. Worker
  // shards carry a deferred-evaluation instance that the post-run merge
  // combines at the barrier (see profiling/continuous.h).
  profiling::ContinuousProfiler* continuous = nullptr;
  // Block popularity over spec.block_space ranks with skew
  // spec.block_zipf_s. Read-only, so one instance serves every worker
  // engine of a sharded platform.
  const ZipfSampler* block_sampler = nullptr;

  // --- Sharded mode (FleetConfig::shards_per_platform > 0) ---
  // When `fabric` is set the engine runs in per-query-stream mode: it
  // owns queries whose global index is congruent to `shard_index` mod
  // `shard_count`, derives every stochastic draw for a query from a
  // stream seeded by (stream_seed, query index), draws trace-sampling
  // decisions itself (forced into the tracer), and routes storage IO
  // through `fabric` instead of `dfs`. All of this makes a query's
  // simulated timeline a function of its index alone, which is what lets
  // any shard count produce bit-identical platform results.
  ShardIoFabric* fabric = nullptr;
  uint32_t shard_index = 0;
  uint32_t shard_count = 0;  // 0 = legacy fused mode
  uint64_t stream_seed = 0;  // base of the per-query derived streams
  // Trace sampling rate applied via forced decisions (sharded mode).
  uint32_t sample_one_in = 1;
  // Simulated worker hosts per cluster that clients/peers are drawn
  // from; 64 matches the legacy draws bit-for-bit.
  uint32_t worker_hosts = 64;
};

/**
 * Executes a platform's query workload on the simulated substrate.
 *
 * Queries arrive as a Poisson process; each runs its template's phases
 * (sequential by default, overlapping when flagged): compute phases are
 * decomposed into categorized function activities reported to the CPU
 * profiler, IO phases issue real reads/writes against the distributed
 * filesystem (cache behaviour included), and remote phases fan out RPCs to
 * peer workers. Dapper-style spans are recorded for sampled queries.
 */
class PlatformEngine {
 public:
  PlatformEngine(EngineContext context, PlatformSpec spec, Rng rng);

  PlatformEngine(const PlatformEngine&) = delete;
  PlatformEngine& operator=(const PlatformEngine&) = delete;

  /**
   * Schedules `num_queries` arrivals at `arrival_rate_qps` and invokes
   * `on_all_done` when the last completes. Call Simulator::Run afterwards.
   *
   * Arrivals are drawn exactly as if all were scheduled now, but the
   * kernel holds only the next one of each flag class: a cursor event
   * per class draws its successor and reschedules itself under the
   * tie-break order reserved here for it, so events fire in the same
   * (time, order) sequence and flagged_horizon() is unchanged. Engine
   * and kernel state stay constant in `num_queries`. One arrival sequence
   * at a time: call again only after the previous one has arrived.
   */
  void Run(uint64_t num_queries, double arrival_rate_qps,
           std::function<void()> on_all_done);

  /**
   * Completion sink for serving admissions. A plain function pointer +
   * context so neither registration nor per-query completion dispatch
   * ever allocates — the serving daemon's whole completion path rides
   * this. Fired from inside simulator events with the query's ticket and
   * virtual end-to-end latency.
   */
  using ServingSink = void (*)(void* ctx, uint64_t ticket, SimTime latency);
  void SetServingSink(ServingSink sink, void* ctx);

  /**
   * Serving admission: starts one query of a sampled type at the engine's
   * current virtual time; when it completes (from inside a later
   * Simulator::RunUntil / FleetSimulation::Advance step) the registered
   * ServingSink receives `ticket` and the query's latency. Fused engines
   * only — a sharded engine owns a fixed query partition. Deterministic:
   * given the same admission sequence at the same virtual times, the
   * simulated timeline is bit-identical across runs. The steady state
   * allocates nothing (query states are pooled).
   */
  void Submit(uint64_t ticket);

  uint64_t queries_completed() const { return completed_; }
  /** IO-phase accesses that exhausted their policy and failed. */
  uint64_t io_failures() const { return io_failures_; }
  const PlatformSpec& spec() const { return spec_; }

  /**
   * Sharded mode: a sound lower bound on the next simulated time at which
   * this engine's kernel may post a cross-shard message (SimTime::Max()
   * when it provably never will), for ShardGroup epoch coalescing.
   *
   * The bound rests on three facts. (1) Every cross-shard post happens
   * synchronously inside an event that the engine scheduled *flagged*:
   * arrivals of queries whose type has any IO phase, compute completions
   * whose remaining phases include IO, and fabric deliveries (flagged by
   * ShardGroup itself), so the kernel's flagged_horizon() bounds them.
   * (2) A phase group containing a remote phase completes inside an
   * rpc-internal event whose time is not known in advance; while such a
   * group with IO still ahead of it is in flight, `unbounded_posters_` is
   * nonzero and the horizon collapses to now (no coalescing). (3) All
   * other events (pure compute chains past the last IO, rpc traffic with
   * nothing after it) can never post. Derived only from the query stream
   * and phase specs, the bound is schedule- and shard-layout-invariant,
   * which the fuzzer's epoch-count digest fold pins.
   */
  SimTime PostHorizon();

  /** Worker-pool stats (null when contention is disabled). */
  const sim::Resource* worker_pool() const { return worker_pool_.get(); }

 private:
  struct QueryState;

  /**
   * Per-phase continuation. InlineFunction with the simulator callback's
   * buffer size, so the standard completion closures (this + query +
   * indices) stay inline and move straight into Schedule() without a
   * heap allocation.
   */
  using Done = sim::Simulator::Callback;

  /**
   * Walks the arrival sequence for one flag class: flagged for arrivals
   * of IO-issuing types (sharded mode), unflagged for the rest and for
   * every fused arrival. It holds the class's next arrival, pending in
   * the kernel under the order it would have had if scheduled eagerly.
   */
  struct ArrivalCursor {
    bool flagged = false;
    bool pending = false;   // an arrival event of this class is queued
    Rng draws{0};           // fused: a replay of the arrival draws
    uint64_t next_index = 0;  // next query index of the sequence to draw
    SimTime time;             // arrival time of the last drawn query
    uint64_t next_order = 0;  // reserved order of the next owned arrival
    // The pending arrival.
    uint64_t lane = 0;
    size_t type_index = 0;
    Rng query_rng{0};  // sharded: the query's stream past its arrival draws
  };

  /**
   * A compute (worker-pool), IO or remote phase in flight, recycled
   * through `phase_runs_`: its continuations capture only (this, index)
   * and the record owns the phase's `done` (DESIGN.md, continuation
   * ownership).
   */
  struct PhaseRun {
    std::shared_ptr<QueryState> query;
    Done done;
    SimTime start;        // span start: the phase's, or the IO wave's
    SimTime span_length;  // compute: on-core time
    profiling::NameId name = profiling::kInvalidNameId;
    const IoPhaseSpec* io = nullptr;
    int remaining = 0;    // IO blocks not yet issued
  };

  /** Names and strings a remote phase needs per RPC, built once. */
  struct RemotePhaseInfo {
    profiling::NameId name_id = profiling::kInvalidNameId;
    std::string method;  // "<platform>.<phase>", shared by every RPC
  };

  /** Draws `cursor`'s next arrival of its class and schedules it. */
  void ScheduleNextArrival(ArrivalCursor& cursor);
  /** The cursor event: queues the class's next arrival, starts this one. */
  void FireArrival(ArrivalCursor& cursor);
  /** Pops a recycled QueryState (fields reset) or allocates a fresh one. */
  std::shared_ptr<QueryState> AcquireQueryState();
  /** Shared tail of every fused admission: client draw, trace, phase 0. */
  void LaunchQuery(std::shared_ptr<QueryState> query);
  /** Fused-mode arrival of a query of type `type_index`. */
  void StartQuery(size_t type_index);
  /** Sharded-mode arrival: `rng` is the query's private stream, already
   * advanced past the arrival/type draws. */
  void StartShardedQuery(uint64_t lane, size_t type_index, Rng rng);
  void RunPhaseGroup(std::shared_ptr<QueryState> query, size_t phase_index);
  /** `flag_completion`: completion events must bound PostHorizon(). */
  void RunPhase(std::shared_ptr<QueryState> query, size_t phase_index,
                Done done, bool flag_completion);
  void RunComputePhase(std::shared_ptr<QueryState> query,
                       const ComputePhaseSpec& phase, Done done,
                       bool flag_completion);
  void RunIoPhase(std::shared_ptr<QueryState> query, const IoPhaseSpec& phase,
                  Done done);
  void RunRemotePhase(std::shared_ptr<QueryState> query,
                      const RemotePhaseSpec& phase,
                      const RemotePhaseInfo& info, Done done);
  void FinishQuery(std::shared_ptr<QueryState> query);

  /** Takes a PhaseRun record owning `query` and `done`. */
  uint32_t AcquirePhaseRun(std::shared_ptr<QueryState> query, Done done);
  /** Recycles the record, then runs its `done`. */
  void FinishPhaseRun(uint32_t index);
  /** Issues the IO phase's next wave, or finishes it when none is left. */
  void IssueIoWave(uint32_t index);
  void OnIoDone(uint32_t index, const storage::IoResult& io);
  /** Records the remote phase's span and finishes it. */
  void FinishRemotePhase(uint32_t index);

  double SampleLogNormalMean(Rng& rng, double mean, double sigma);
  /** The query's own stream in sharded mode, the engine stream otherwise. */
  Rng& DrawStream(QueryState& query);

  EngineContext context_;
  PlatformSpec spec_;
  Rng rng_;
  const bool sharded_;
  std::unique_ptr<AliasSampler> type_sampler_;
  std::unique_ptr<AliasSampler> mix_sampler_;
  std::vector<size_t> mix_categories_;  // categories with nonzero weight
  // Symbols per fine category, resolved once from the registry.
  std::vector<std::vector<std::string>> symbols_;
  // Finite worker-CPU pool when spec.worker_cores > 0 (else null).
  std::unique_ptr<sim::Resource> worker_pool_;
  // Interned names, resolved once at construction so the per-query path
  // never touches the interner's hash map.
  profiling::NameId platform_id_ = profiling::kInvalidNameId;
  profiling::NameId compute_span_id_ = profiling::kInvalidNameId;
  profiling::NameId dfs_read_span_id_ = profiling::kInvalidNameId;
  profiling::NameId dfs_write_span_id_ = profiling::kInvalidNameId;
  // Resilience annotation names (interned after every pre-existing name so
  // established NameId values — and the goldens keyed on them — hold).
  profiling::NameId dfs_retry_span_id_ = profiling::kInvalidNameId;
  profiling::NameId dfs_hedge_span_id_ = profiling::kInvalidNameId;
  profiling::NameId dfs_error_span_id_ = profiling::kInvalidNameId;
  std::vector<profiling::NameId> type_name_ids_;          // [type]
  std::vector<std::vector<RemotePhaseInfo>> remote_info_;  // [type][phase]
  // Sharded mode: io_after_[type][i] is nonzero iff any phase at index
  // >= i issues cross-shard IO; entry [phases.size()] is always 0.
  std::vector<std::vector<uint8_t>> io_after_;
  // In-flight phase groups whose next post time cannot be bounded (they
  // contain a remote phase and IO may still follow); see PostHorizon().
  uint64_t unbounded_posters_ = 0;
  uint64_t completed_ = 0;
  uint64_t io_failures_ = 0;
  uint64_t target_ = 0;
  std::function<void()> on_all_done_;
  // Arrival sequence of the current Run: its length, mean gap, and one
  // cursor per flag class ([0] unflagged, [1] flagged).
  uint64_t arrival_count_ = 0;
  double arrival_mean_s_ = 0;
  ArrivalCursor cursors_[2];
  // Ticketed-serving completion sink (see SetServingSink).
  ServingSink serving_sink_ = nullptr;
  void* serving_ctx_ = nullptr;
  // Recycled query states: FinishQuery returns each state here and
  // admission pops one back off, so a pipelined serving steady state
  // reuses the same handful of allocations forever.
  std::vector<std::shared_ptr<QueryState>> state_pool_;
  SlotPool<PhaseRun> phase_runs_;
  // Joins of overlapping phase groups, IO waves and remote fan-outs.
  sim::BarrierPool barriers_;
  ShuffleRunner shuffles_;
};

}  // namespace hyperprof::platforms

#endif  // HYPERPROF_PLATFORMS_ENGINE_H_
