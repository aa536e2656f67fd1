#include "platforms/shuffle.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace hyperprof::platforms {

double ShuffleResult::SkewFactor() const {
  if (total_bytes == 0 || num_reducers <= 0) return 1.0;
  double even_share =
      static_cast<double>(total_bytes) / static_cast<double>(num_reducers);
  return static_cast<double>(max_reducer_bytes) / even_share;
}

ShuffleRunner::ShuffleRunner(sim::Simulator* simulator, net::RpcSystem* rpc)
    : simulator_(simulator), rpc_(rpc) {}

void ShuffleRunner::PartitionBytes(State& state, uint64_t* out) {
  // Zipf-weighted split of the mapper's output across reducers, with the
  // hot reducer chosen per mapper (hash randomization), plus multiplicative
  // noise per partition.
  const ShuffleParams& params = state.params;
  std::vector<double>& weights = state.weights;
  weights.resize(static_cast<size_t>(params.num_reducers));
  size_t hot = state.rng.NextBounded(params.num_reducers);
  for (size_t r = 0; r < weights.size(); ++r) {
    size_t rank = (r + weights.size() - hot) % weights.size() + 1;
    weights[r] = std::pow(static_cast<double>(rank),
                          -params.partition_zipf_s) *
                 state.rng.NextLogNormal(0.0, 0.1);
  }
  double total = 0;
  for (double w : weights) total += w;
  for (size_t r = 0; r < weights.size(); ++r) {
    out[r] = static_cast<uint64_t>(
        static_cast<double>(params.bytes_per_mapper) * weights[r] / total);
  }
}

void ShuffleRunner::Run(const ShuffleParams& params, Rng rng,
                        const net::NodeId& coordinator, Callback on_done) {
  assert(params.num_mappers > 0 && params.num_reducers > 0);
  const uint32_t index = states_.Acquire();
  State& state = states_[index];
  const size_t mappers = static_cast<size_t>(params.num_mappers);
  const size_t reducers = static_cast<size_t>(params.num_reducers);
  state.params = params;
  state.rng = std::move(rng);
  state.started = simulator_->Now();
  state.total_bytes = 0;
  state.streams_remaining = mappers * reducers;
  state.reducer_bytes.assign(reducers, 0);
  state.reducer_ready.assign(reducers, simulator_->Now());
  state.stream_bytes.resize(mappers * reducers);
  state.mappers.resize(mappers);
  state.on_done = std::move(on_done);

  // Reducer placement: spread over the region's clusters.
  state.reducers.resize(reducers);
  for (size_t r = 0; r < reducers; ++r) {
    state.reducers[r] = net::NodeId{
        coordinator.region, static_cast<uint32_t>(r % 4),
        static_cast<uint32_t>(state.rng.NextBounded(params.worker_hosts))};
  }

  // Mapper-side partition/serialize time before streams depart.
  const SimTime partition_time = SimTime::FromSeconds(
      static_cast<double>(params.bytes_per_mapper) /
      params.partition_bytes_per_second);
  for (size_t m = 0; m < mappers; ++m) {
    state.mappers[m] = net::NodeId{
        coordinator.region, coordinator.cluster,
        static_cast<uint32_t>(state.rng.NextBounded(params.worker_hosts))};
    uint64_t* split = &state.stream_bytes[m * reducers];
    PartitionBytes(state, split);
    for (size_t r = 0; r < reducers; ++r) {
      state.total_bytes += split[r];
      state.reducer_bytes[r] += split[r];
      const uint32_t stream = static_cast<uint32_t>(m * reducers + r);
      simulator_->Schedule(partition_time, [this, index, stream]() {
        SendStream(index, stream);
      });
    }
  }
}

void ShuffleRunner::SendStream(uint32_t index, uint32_t stream) {
  State& state = states_[index];
  const uint32_t reducers = static_cast<uint32_t>(state.params.num_reducers);
  const uint32_t mapper = stream / reducers;
  const uint32_t reducer = stream % reducers;
  const uint64_t bytes = state.stream_bytes[stream];
  net::RpcOptions options;
  // One fixed method name for all streams: the per-(mapper, reducer)
  // suffix was never read, and formatting it allocated on every RPC.
  options.method = "shuffle.Stream";
  options.request_bytes = bytes;
  options.response_bytes = 64;  // ack
  if (state.params.private_rpc_draws) options.rng = &state.rng;
  SimTime ingest = SimTime::FromSeconds(
      static_cast<double>(bytes) / state.params.ingest_bytes_per_second);
  rpc_->CallFixed(state.mappers[mapper], state.reducers[reducer], options,
                  ingest, [this, index, reducer](const net::RpcOutcome&) {
                    OnStreamLanded(index, reducer);
                  });
}

void ShuffleRunner::OnStreamLanded(uint32_t index, uint32_t reducer) {
  State& state = states_[index];
  state.reducer_ready[reducer] =
      std::max(state.reducer_ready[reducer], simulator_->Now());
  if (--state.streams_remaining > 0) return;
  // All streams landed; each reducer merges its input, the makespan is
  // the slowest (ready time + merge time).
  SimTime slowest;
  for (size_t r = 0; r < state.reducer_bytes.size(); ++r) {
    SimTime merge = SimTime::FromSeconds(
        static_cast<double>(state.reducer_bytes[r]) /
        state.params.merge_bytes_per_second);
    slowest = std::max(slowest, state.reducer_ready[r] + merge);
  }
  SimTime wait = slowest - simulator_->Now();
  if (wait < SimTime::Zero()) wait = SimTime::Zero();
  simulator_->Schedule(wait, [this, index]() { Finish(index); });
}

void ShuffleRunner::Finish(uint32_t index) {
  State& state = states_[index];
  ShuffleResult result;
  result.makespan = simulator_->Now() - state.started;
  result.total_bytes = state.total_bytes;
  result.max_reducer_bytes = *std::max_element(state.reducer_bytes.begin(),
                                               state.reducer_bytes.end());
  result.num_reducers = state.params.num_reducers;
  Callback on_done = std::move(state.on_done);
  states_.Release(index);
  on_done(result);
}

}  // namespace hyperprof::platforms
