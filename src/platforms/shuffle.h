#ifndef HYPERPROF_PLATFORMS_SHUFFLE_H_
#define HYPERPROF_PLATFORMS_SHUFFLE_H_

#include <cstdint>
#include <vector>

#include "common/inline_function.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/slot_pool.h"
#include "net/rpc.h"
#include "sim/simulator.h"

namespace hyperprof::platforms {

/**
 * Distributed shuffle — the remote-work engine of the paper's BigQuery
 * architecture (Figure 1c): every map worker partitions its output by
 * key hash and streams each partition to its reducer; a reducer finishes
 * when all of its input streams have arrived and its merge completes.
 *
 * The operation runs on the simulated RPC fabric: M x R streams with
 * real per-stream byte volumes, per-reducer serialization of stream
 * ingestion, and a final merge proportional to received bytes. The
 * initiating stage observes the *makespan* (slowest reducer), which is
 * what the paper's shuffle remote-work time measures.
 */
struct ShuffleParams {
  int num_mappers = 8;
  int num_reducers = 8;
  // Total bytes emitted per mapper, split over reducers with hash skew.
  uint64_t bytes_per_mapper = 8 << 20;
  // Skew of the partition-key distribution: 0 = perfectly even split,
  // larger values concentrate bytes on few reducers (hot keys).
  double partition_zipf_s = 0.3;
  // Reducer ingest rate (decompress + append) and merge rate.
  double ingest_bytes_per_second = 2.0e9;
  double merge_bytes_per_second = 4.0e9;
  // Mapper-side partitioning/serialization rate.
  double partition_bytes_per_second = 4.0e9;
  // Simulated worker hosts per cluster that mappers/reducers are drawn
  // from. Matches the engine's client population; raised by fleet-scale
  // runs.
  uint32_t worker_hosts = 64;
  // Route the per-stream RPC network/fault draws through the shuffle's
  // own rng (the one passed to Run) rather than the RpcSystem's stream.
  // Shard engines set this so co-resident queries cannot perturb each
  // other's draws.
  bool private_rpc_draws = false;
};

/** Outcome handed to the completion callback. */
struct ShuffleResult {
  SimTime makespan;                // start -> slowest reducer completion
  uint64_t total_bytes = 0;        // bytes moved across the fabric
  uint64_t max_reducer_bytes = 0;  // hottest reducer's input
  int num_reducers = 0;

  /** Hottest reducer's bytes relative to a perfectly even share. */
  double SkewFactor() const;
};

/**
 * Runs shuffles between worker nodes. Mappers live on the caller's
 * cluster; reducers are spread over the region's clusters.
 *
 * One runner serves any number of concurrent shuffles. Each shuffle's
 * state is a recycled record (see DESIGN.md, continuation ownership): its
 * per-stream sends and completions capture only (runner, record, stream),
 * and the partition vectors are the record's reused scratch, so a warmed
 * runner starts shuffles without allocating.
 */
class ShuffleRunner {
 public:
  using Callback = InlineFunction<void(const ShuffleResult&)>;

  ShuffleRunner(sim::Simulator* simulator, net::RpcSystem* rpc);

  ShuffleRunner(const ShuffleRunner&) = delete;
  ShuffleRunner& operator=(const ShuffleRunner&) = delete;

  /**
   * Starts a shuffle whose placement and partition draws (and, with
   * `params.private_rpc_draws`, its RPC draws) come from `rng`; `on_done`
   * fires when every reducer has ingested all of its streams and merged.
   * The runner must outlive the shuffle.
   */
  void Run(const ShuffleParams& params, Rng rng,
           const net::NodeId& coordinator, Callback on_done);

 private:
  struct State {
    ShuffleParams params;
    Rng rng{0};
    SimTime started;
    uint64_t total_bytes = 0;
    size_t streams_remaining = 0;
    std::vector<net::NodeId> mappers;
    std::vector<net::NodeId> reducers;
    std::vector<uint64_t> reducer_bytes;
    std::vector<SimTime> reducer_ready;  // when the last stream lands
    std::vector<uint64_t> stream_bytes;  // [mapper * reducers + reducer]
    std::vector<double> weights;         // PartitionBytes scratch
    Callback on_done;
  };

  /**
   * Splits one mapper's bytes over reducers with the configured skew,
   * into `out` (one entry per reducer).
   */
  static void PartitionBytes(State& state, uint64_t* out);
  void SendStream(uint32_t index, uint32_t stream);
  void OnStreamLanded(uint32_t index, uint32_t reducer);
  void Finish(uint32_t index);

  sim::Simulator* simulator_;
  net::RpcSystem* rpc_;
  SlotPool<State> states_;
};

}  // namespace hyperprof::platforms

#endif  // HYPERPROF_PLATFORMS_SHUFFLE_H_
