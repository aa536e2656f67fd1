#include "storage/dfs.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace hyperprof::storage {

DistributedFileSystem::DistributedFileSystem(sim::Simulator* sim,
                                             net::RpcSystem* rpc,
                                             DfsParams params, Rng rng)
    : sim_(sim), rpc_(rpc), params_(params), rng_(std::move(rng)) {
  assert(params_.num_fileservers > 0);
  stores_.reserve(params_.num_fileservers);
  for (uint32_t i = 0; i < params_.num_fileservers; ++i) {
    stores_.push_back(std::make_unique<TieredStore>(params_.store));
  }
}

uint32_t DistributedFileSystem::HomeServer(uint64_t block_id) const {
  return storage::HomeServer(block_id, params_.num_fileservers);
}

net::NodeId DistributedFileSystem::ServerNode(uint32_t index) const {
  // Fileservers live in the local region, cluster 100+, one per host.
  return net::NodeId{0, 100, index};
}

void DistributedFileSystem::PrewarmZipf(uint64_t ram_blocks,
                                        uint64_t ssd_blocks,
                                        uint64_t block_bytes) {
  // RAM warms only ids that SSD warms too.
  ram_blocks = std::min(ram_blocks, ssd_blocks);
  const uint32_t servers = params_.num_fileservers;
  std::vector<uint64_t> ram_owned(servers, 0);
  std::vector<uint64_t> ssd_owned(servers, 0);
  for (uint64_t id = 0; id < ssd_blocks; ++id) {
    const uint32_t home = HomeServer(id);
    ++ssd_owned[home];
    if (id < ram_blocks) ++ram_owned[home];
  }
  for (uint32_t server = 0; server < servers; ++server) {
    TieredStore& store = *stores_[server];
    store.PrewarmPrefix(Tier::kSsd, {ssd_blocks, server, servers,
                                     block_bytes, ssd_owned[server]});
    store.PrewarmPrefix(Tier::kRam, {ram_blocks, server, servers,
                                     block_bytes, ram_owned[server]});
  }
}

uint64_t DistributedFileSystem::memory_bytes() const {
  uint64_t total = 0;
  for (const auto& store : stores_) total += store->memory_bytes();
  return total;
}

void DistributedFileSystem::Read(const net::NodeId& client, uint64_t block_id,
                                 uint64_t bytes, ReadCallback on_done) {
  uint32_t server_index = HomeServer(block_id);
  TieredStore* store = stores_[server_index].get();
  const uint32_t index = reads_.Acquire();
  ReadOp& op = reads_[index];
  op.start = sim_->Now();
  op.result = IoResult{};
  op.on_done = std::move(on_done);
  const uint32_t generation = op.generation;

  net::RpcOptions options;
  options.method = "dfs.Read";
  options.request_bytes = 128;  // block handle + offsets
  options.response_bytes = bytes;

  // The handler runs once per wire attempt: a retried or hedged read does
  // the media access again at the (same) home server, so device counters
  // see the real amplification caused by the fault.
  rpc_->CallWithPolicy(
      client, ServerNode(server_index), options, params_.read_policy,
      [this, store, block_id, bytes, index,
       generation](net::RpcSystem::Respond respond) {
        AccessResult access = store->Read(block_id, bytes, rng_);
        ReadOp& read = reads_[index];
        if (read.generation == generation) {
          read.result.served_by = access.served_by;
          read.result.device_time = access.device_time;
        }
        sim_->Schedule(access.device_time + params_.server_cpu_per_request,
                       respond);
      },
      [this, index](const net::RpcOutcome& outcome) {
        FinishRead(index, outcome);
      });
}

void DistributedFileSystem::FinishRead(uint32_t index,
                                       const net::RpcOutcome& outcome) {
  ReadOp& op = reads_[index];
  IoResult result = std::move(op.result);
  result.status = outcome.status;
  result.total_time = sim_->Now() - op.start;
  result.network_time = outcome.result.network_time;
  result.attempts = outcome.attempts;
  result.hedged = outcome.hedged;
  result.wasted_time = outcome.wasted_time;
  if (!outcome.ok()) ++failed_reads_;
  ReadCallback on_done = std::move(op.on_done);
  ++op.generation;
  reads_.Release(index);
  on_done(result);
}

void DistributedFileSystem::Write(const net::NodeId& client,
                                  uint64_t block_id, uint64_t bytes,
                                  uint32_t replication,
                                  ReadCallback on_done) {
  Write(client, block_id, bytes, replication, /*quorum_acks=*/0,
        std::move(on_done));
}

void DistributedFileSystem::Write(const net::NodeId& client,
                                  uint64_t block_id, uint64_t bytes,
                                  uint32_t replication, uint32_t quorum_acks,
                                  ReadCallback on_done) {
  if (replication == 0) {
    // Reject rather than assert: the assert compiled out in release builds
    // and a zero-count barrier would have completed the caller before the
    // "write" did anything. Completion is asynchronous like every other
    // path so callers cannot observe a same-stack callback.
    ++invalid_writes_;
    sim_->Schedule(SimTime::Zero(),
                   [on_done = std::move(on_done)]() mutable {
                     IoResult result;
                     result.status = Status::InvalidArgument(
                         "dfs.Write requires replication >= 1");
                     result.served_by = Tier::kSsd;
                     on_done(result);
                   });
    return;
  }
  replication = std::min(replication, params_.num_fileservers);
  uint32_t quorum = quorum_acks == 0
                        ? replication
                        : std::min(quorum_acks, replication);
  uint32_t first = HomeServer(block_id);

  const uint32_t index = writes_.Acquire();
  WriteOp& op = writes_[index];
  op.start = sim_->Now();
  op.result = IoResult{};
  op.result.served_by = Tier::kSsd;  // durable log append tier
  op.replication = replication;
  op.quorum = quorum;
  op.acks = 0;
  op.failures = 0;
  op.extra_attempts = 0;
  op.completed = false;
  op.on_done = std::move(on_done);
  const uint32_t generation = op.generation;

  for (uint32_t r = 0; r < replication; ++r) {
    uint32_t server_index = (first + r) % params_.num_fileservers;
    TieredStore* store = stores_[server_index].get();
    net::RpcOptions options;
    options.method = "dfs.Write";
    options.request_bytes = bytes;
    options.response_bytes = 64;  // ack
    rpc_->CallWithPolicy(
        client, ServerNode(server_index), options, params_.write_policy,
        [this, store, block_id, bytes, index,
         generation](net::RpcSystem::Respond respond) {
          AccessResult access = store->Write(block_id, bytes, rng_);
          // Record the slowest replica's media time.
          WriteOp& write = writes_[index];
          if (write.generation == generation &&
              access.device_time > write.result.device_time) {
            write.result.device_time = access.device_time;
          }
          sim_->Schedule(access.device_time + params_.server_cpu_per_request,
                         respond);
        },
        [this, index](const net::RpcOutcome& outcome) {
          OnReplicaDone(index, outcome);
        });
  }
}

void DistributedFileSystem::OnReplicaDone(uint32_t index,
                                          const net::RpcOutcome& outcome) {
  WriteOp& op = writes_[index];
  op.extra_attempts += outcome.attempts - 1;
  if (outcome.hedged) op.result.hedged = true;
  op.result.wasted_time += outcome.wasted_time;
  bool complete_caller = false;
  if (outcome.ok()) {
    ++op.acks;
    if (outcome.result.network_time > op.result.network_time) {
      op.result.network_time = outcome.result.network_time;
    }
    if (op.completed) {
      // Straggler replica finishing after the quorum released the
      // caller — the background tail of a quorum-append log.
      ++background_acks_;
    } else if (op.acks >= op.quorum) {
      op.result.status = Status::Ok();
      complete_caller = true;
    }
  } else {
    ++op.failures;
    // Quorum unreachable: more replicas are dead than the write can
    // tolerate. Fail now instead of waiting for the rest.
    if (!op.completed && op.failures > op.replication - op.quorum) {
      ++failed_writes_;
      op.result.status = Status::Unavailable(
          "dfs.Write quorum unreachable: " + outcome.status.message());
      complete_caller = true;
    }
  }
  // Every replica has answered: no callback refers to the record any more
  // (a late attempt's handler checks the generation), so it is recycled —
  // before the caller's completion, which may start the next write.
  const bool all_answered = op.acks + op.failures == op.replication;
  if (!complete_caller) {
    if (all_answered) {
      ++op.generation;
      writes_.Release(index);
    }
    return;
  }
  op.completed = true;
  op.result.acks = op.acks;
  op.result.attempts = 1 + op.extra_attempts;
  op.result.total_time = sim_->Now() - op.start;
  IoResult result = op.result;
  ReadCallback on_done = std::move(op.on_done);
  if (all_answered) {
    ++op.generation;
    writes_.Release(index);
  }
  on_done(result);
}

double DistributedFileSystem::TierServeFraction(Tier tier) const {
  // Sum the stores' exact per-tier counters. The previous implementation
  // re-derived each store's count as round(fraction * reads + 0.5), which
  // re-quantizes through a double and drifts once counters exceed 2^51 —
  // see the regression constants in tests/storage/dfs_test.cc.
  uint64_t total = 0;
  uint64_t tier_count = 0;
  for (const auto& store : stores_) {
    total += store->reads();
    tier_count += store->tier_reads(tier);
  }
  return total == 0 ? 0.0
                    : static_cast<double>(tier_count) /
                          static_cast<double>(total);
}

}  // namespace hyperprof::storage
