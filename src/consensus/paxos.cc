#include "consensus/paxos.h"

#include <algorithm>
#include <cassert>

namespace hyperprof::consensus {

namespace {

/** Reply payload carried through the in-process handler shared slot. */
struct AcceptorReply {
  bool ok = false;
  uint64_t promised_ballot = 0;  // on reject: what blocked us
  uint64_t accepted_ballot = 0;  // on promise: prior acceptance, if any
  std::string accepted_value;
  bool has_accepted = false;
};

uint64_t MakeBallot(uint64_t round, uint32_t proposer_id) {
  return (round << 16) | proposer_id;
}

uint64_t RoundOf(uint64_t ballot) { return ballot >> 16; }

}  // namespace

struct PaxosGroup::ProposerRun {
  net::NodeId node;
  uint32_t proposer_id = 0;
  std::string value;
  ProposeCallback on_done;
  SimTime started;
  uint64_t round = 1;
  int attempt = 0;
  int phase1_round_trips = 0;
  int phase2_round_trips = 0;
  bool finished = false;
};

PaxosGroup::PaxosGroup(sim::Simulator* simulator, net::RpcSystem* rpc,
                       std::vector<net::NodeId> acceptor_nodes,
                       PaxosParams params, Rng rng)
    : simulator_(simulator),
      rpc_(rpc),
      acceptor_nodes_(std::move(acceptor_nodes)),
      params_(params),
      rng_(std::move(rng)) {
  assert(!acceptor_nodes_.empty());
  acceptors_.resize(acceptor_nodes_.size());
}

void PaxosGroup::Propose(const net::NodeId& proposer_node,
                         uint32_t proposer_id, std::string value,
                         ProposeCallback on_done) {
  assert(proposer_id < (1 << 16));
  auto run = std::make_shared<ProposerRun>();
  run->node = proposer_node;
  run->proposer_id = proposer_id;
  run->value = std::move(value);
  run->on_done = std::move(on_done);
  run->started = simulator_->Now();
  StartAttempt(run);
}

void PaxosGroup::StartAttempt(std::shared_ptr<ProposerRun> run) {
  if (run->finished) return;
  ++run->attempt;
  if (run->attempt > params_.max_attempts) {
    run->finished = true;
    ProposeResult result;
    result.chosen = false;
    result.elapsed = simulator_->Now() - run->started;
    result.phase1_round_trips = run->phase1_round_trips;
    result.phase2_round_trips = run->phase2_round_trips;
    run->on_done(result);
    return;
  }
  uint64_t ballot = MakeBallot(run->round, run->proposer_id);
  ++run->phase1_round_trips;

  struct Phase1State {
    size_t replies = 0;
    size_t promises = 0;
    uint64_t best_accepted_ballot = 0;
    std::string best_accepted_value;
    bool saw_accepted = false;
    uint64_t max_promised_seen = 0;
  };
  auto state = std::make_shared<Phase1State>();

  for (size_t i = 0; i < acceptor_nodes_.size(); ++i) {
    auto reply = std::make_shared<AcceptorReply>();
    net::RpcOptions options;
    options.method = "paxos.Prepare";
    options.request_bytes = params_.message_bytes;
    options.response_bytes = params_.message_bytes;
    if (params_.private_rpc_draws) options.rng = &rng_;
    rpc_->CallWithPolicy(
        run->node, acceptor_nodes_[i], options, net::RpcCallPolicy{},
        [this, i, ballot, reply](net::RpcSystem::Respond respond) {
          simulator_->Schedule(
              params_.acceptor_service_time,
              [this, i, ballot, reply, respond]() {
                AcceptorState& acceptor = acceptors_[i];
                if (ballot > acceptor.promised_ballot) {
                  acceptor.promised_ballot = ballot;
                  reply->ok = true;
                  reply->accepted_ballot = acceptor.accepted_ballot;
                  reply->accepted_value = acceptor.accepted_value;
                  reply->has_accepted = acceptor.has_accepted;
                } else {
                  reply->ok = false;
                  reply->promised_ballot = acceptor.promised_ballot;
                }
                respond();
              });
        },
        [this, run, state, reply, ballot](const net::RpcOutcome&) {
          ++state->replies;
          if (reply->ok) {
            ++state->promises;
            if (reply->has_accepted &&
                reply->accepted_ballot > state->best_accepted_ballot) {
              state->best_accepted_ballot = reply->accepted_ballot;
              state->best_accepted_value = reply->accepted_value;
              state->saw_accepted = true;
            }
          } else {
            state->max_promised_seen = std::max(state->max_promised_seen,
                                                reply->promised_ballot);
          }
          if (state->replies < acceptor_nodes_.size()) return;
          // All phase-1 replies in: proposer-side bookkeeping delay.
          simulator_->Schedule(
              params_.proposer_service_time,
              [this, run, state, ballot]() {
                if (run->finished) return;
                if (state->promises >= majority()) {
                  const std::string& value = state->saw_accepted
                                                 ? state->best_accepted_value
                                                 : run->value;
                  RunPhase2(run, ballot, value);
                } else {
                  // Outpaced: jump past the highest promised round.
                  run->round = std::max(run->round + 1,
                                        RoundOf(state->max_promised_seen) +
                                            1);
                  Retry(run);
                }
              });
        });
  }
}

void PaxosGroup::RunPhase2(std::shared_ptr<ProposerRun> run, uint64_t ballot,
                           const std::string& value) {
  ++run->phase2_round_trips;
  struct Phase2State {
    size_t replies = 0;
    size_t accepts = 0;
    uint64_t max_promised_seen = 0;
  };
  auto state = std::make_shared<Phase2State>();
  auto proposed = std::make_shared<std::string>(value);

  for (size_t i = 0; i < acceptor_nodes_.size(); ++i) {
    auto reply = std::make_shared<AcceptorReply>();
    net::RpcOptions options;
    options.method = "paxos.Accept";
    options.request_bytes = params_.message_bytes;
    options.response_bytes = 128;
    if (params_.private_rpc_draws) options.rng = &rng_;
    rpc_->CallWithPolicy(
        run->node, acceptor_nodes_[i], options, net::RpcCallPolicy{},
        [this, i, ballot, proposed, reply](net::RpcSystem::Respond respond) {
          simulator_->Schedule(
              params_.acceptor_service_time,
              [this, i, ballot, proposed, reply, respond]() {
                AcceptorState& acceptor = acceptors_[i];
                if (ballot >= acceptor.promised_ballot) {
                  acceptor.promised_ballot = ballot;
                  acceptor.accepted_ballot = ballot;
                  acceptor.accepted_value = *proposed;
                  acceptor.has_accepted = true;
                  reply->ok = true;
                } else {
                  reply->ok = false;
                  reply->promised_ballot = acceptor.promised_ballot;
                }
                respond();
              });
        },
        [this, run, state, reply, proposed](const net::RpcOutcome&) {
          ++state->replies;
          if (reply->ok) {
            ++state->accepts;
          } else {
            state->max_promised_seen = std::max(state->max_promised_seen,
                                                reply->promised_ballot);
          }
          if (state->replies < acceptor_nodes_.size()) return;
          simulator_->Schedule(
              params_.proposer_service_time,
              [this, run, state, proposed]() {
                if (run->finished) return;
                if (state->accepts >= majority()) {
                  run->finished = true;
                  ProposeResult result;
                  result.chosen = true;
                  result.value = *proposed;
                  result.phase1_round_trips = run->phase1_round_trips;
                  result.phase2_round_trips = run->phase2_round_trips;
                  result.elapsed = simulator_->Now() - run->started;
                  run->on_done(result);
                } else {
                  run->round = std::max(run->round + 1,
                                        RoundOf(state->max_promised_seen) +
                                            1);
                  Retry(run);
                }
              });
        });
  }
}

void PaxosGroup::Retry(std::shared_ptr<ProposerRun> run) {
  // Exponential backoff with jitter breaks proposer duels.
  double backoff_s = params_.retry_backoff.ToSeconds() *
                     static_cast<double>(1ULL << std::min(run->attempt, 10)) *
                     (0.5 + rng_.NextDouble());
  simulator_->Schedule(SimTime::FromSeconds(backoff_s),
                       [this, run]() { StartAttempt(run); });
}

std::optional<std::string> PaxosGroup::ChosenValue() const {
  // A value is chosen iff a majority of acceptors accepted the same
  // ballot.
  for (size_t i = 0; i < acceptors_.size(); ++i) {
    if (!acceptors_[i].has_accepted) continue;
    size_t count = 0;
    for (const AcceptorState& other : acceptors_) {
      if (other.has_accepted &&
          other.accepted_ballot == acceptors_[i].accepted_ballot) {
        ++count;
      }
    }
    if (count >= majority()) return acceptors_[i].accepted_value;
  }
  return std::nullopt;
}

}  // namespace hyperprof::consensus
