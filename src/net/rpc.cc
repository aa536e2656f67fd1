#include "net/rpc.h"

#include <cmath>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace hyperprof::net {

static_assert(std::is_trivially_copyable_v<RpcSystem::Respond>,
              "a handler's respond token must copy without allocating");

RpcSystem::RpcSystem(sim::Simulator* sim, const NetworkModel* network,
                     Rng rng)
    : sim_(sim),
      network_(network),
      rng_(std::move(rng)),
      // Fixed-seed fallback stream: only consulted on failure paths when no
      // fault model is installed, so its seeding cannot perturb fault-free
      // runs. Tests that exercise pure-timeout policies rely on it being
      // deterministic, not on it being related to the network stream.
      fallback_resilience_rng_(0x5bd1e995u) {}

Rng& RpcSystem::ResilienceRng() {
  return fault_model_ != nullptr ? fault_model_->rng()
                                 : fallback_resilience_rng_;
}

void RpcSystem::StartExchange(const NodeId& from, const NodeId& to,
                              const RpcOptions& options, Handler& handler,
                              PolicyCompletion& on_outcome,
                              bool silent_drop) {
  const SimTime issued_at = sim_->Now();
  // Caller-supplied stream (sharded engines) or the system stream.
  Rng& draw_rng = options.rng != nullptr ? *options.rng : rng_;
  SimTime request_time =
      network_->MessageTime(from, to, options.request_bytes, draw_rng);
  SimTime response_time =
      network_->MessageTime(to, from, options.response_bytes, draw_rng);

  // Fault draws happen strictly after the network draws, from the fault
  // model's private stream (or the caller's, when supplied): a disarmed
  // model leaves every schedule and every stream position identical to
  // the fault-free build.
  FaultDecision fault;
  if (fault_model_ != nullptr && fault_model_->armed()) {
    fault = options.rng != nullptr
                ? fault_model_->Decide(options.method, to, sim_->Now(),
                                       *options.rng)
                : fault_model_->Decide(options.method, to, sim_->Now());
  }
  // The request vanishes in the fabric. A policy attempt with its own
  // timeout hears nothing (the timeout is the rescue).
  if (fault.kind == FaultDecision::Kind::kDrop && silent_drop) return;

  const uint32_t index = exchanges_.Acquire();
  Exchange& exchange = exchanges_[index];
  exchange.result = RpcResult{};
  exchange.result.issued_at = issued_at;
  exchange.result.network_time = request_time + response_time;
  exchange.on_outcome = std::move(on_outcome);
  switch (fault.kind) {
    case FaultDecision::Kind::kDrop:
    case FaultDecision::Kind::kError:
      // A plain call gets a drop surfaced as an error after the round trip
      // it would have taken, so no caller can hang forever. A rejection
      // comes from the server's front door after request transport; the
      // (small) error response rides the drawn response time.
      exchange.result.status =
          fault.kind == FaultDecision::Kind::kDrop
              ? Status(fault.code, "rpc request dropped")
              : Status(fault.code, "rpc rejected by server");
      sim_->Schedule(request_time + response_time, [this, index]() {
        exchanges_[index].result.completed_at = sim_->Now();
        ++failed_calls_;
        FinishExchange(index);
      });
      return;
    case FaultDecision::Kind::kSlow:
      // Degraded server: the response is delayed. Kept out of
      // network_time so the slowdown shows up as server-side tail, which
      // is what hedging is designed to cut.
      response_time += fault.slow_extra;
      break;
    case FaultDecision::Kind::kNone:
      break;
  }
  exchange.handler = std::move(handler);
  exchange.response_time = response_time;
  sim_->Schedule(request_time, [this, index]() { OnRequest(index); });
}

void RpcSystem::OnRequest(uint32_t index) {
  Exchange& exchange = exchanges_[index];
  exchange.handler_start = sim_->Now();
  // Run the handler from a local, so its captures are released when it
  // returns rather than when the record is next reused.
  Handler handler = std::move(exchange.handler);
  handler(Respond(this, index));
}

void RpcSystem::OnRespond(uint32_t index) {
  Exchange& exchange = exchanges_[index];
  exchange.result.server_time = sim_->Now() - exchange.handler_start;
  sim_->Schedule(exchange.response_time, [this, index]() {
    Exchange& done = exchanges_[index];
    done.result.completed_at = sim_->Now();
    ++completed_calls_;
    latency_hist_.Add(done.result.Total().ToSeconds());
    FinishExchange(index);
  });
}

void RpcSystem::FinishExchange(uint32_t index) {
  // Take everything the completion needs out of the record and recycle it
  // first: the completion may start the next exchange on the same record.
  Exchange& exchange = exchanges_[index];
  RpcOutcome outcome;
  outcome.result = std::move(exchange.result);
  PolicyCompletion on_outcome = std::move(exchange.on_outcome);
  exchanges_.Release(index);
  outcome.status = outcome.result.status;
  outcome.attempts = 1;
  outcome.failures = outcome.result.ok() ? 0 : 1;
  if (on_outcome) on_outcome(outcome);
}

RpcSystem::Handler RpcSystem::FixedServer(SimTime server_time) {
  auto server = [this, server_time](Respond respond) {
    sim_->Schedule(server_time, respond);
  };
  static_assert(Handler::fits_inline<decltype(server)>(),
                "a fixed-cost server must not allocate");
  return server;
}

void RpcSystem::CallFixed(const NodeId& from, const NodeId& to,
                          const RpcOptions& options, SimTime server_time,
                          PolicyCompletion on_complete) {
  CallWithPolicy(from, to, options, RpcCallPolicy{}, FixedServer(server_time),
                 std::move(on_complete));
}

/**
 * State of one logical policy call. Kept alive by shared_ptr captures in
 * the per-attempt completions and timers; at most two attempts are ever
 * outstanding (current + hedge). Each attempt is one pooled wire exchange
 * whose handler forwards to `handler`.
 */
struct RpcSystem::PolicyCall {
  NodeId from;
  NodeId to;
  std::string method;  // stable copy: retries outlive the caller's view
  RpcOptions options;
  RpcCallPolicy policy;
  Handler handler;
  PolicyCompletion on_complete;
  RpcOutcome outcome;
  bool completed = false;
  sim::EventId hedge_timer;

  struct Attempt {
    SimTime issued_at;
    sim::EventId timeout_timer;
    bool finished = false;  // failed, timed out, or abandoned
    bool is_hedge = false;
  };
  std::vector<Attempt> attempts;
  uint32_t outstanding = 0;
};

void RpcSystem::CallWithPolicy(const NodeId& from, const NodeId& to,
                               const RpcOptions& options,
                               const RpcCallPolicy& policy, Handler handler,
                               PolicyCompletion on_complete) {
  if (policy.Plain()) {
    // Single attempt, no timers, no extra draws: one wire exchange
    // completing straight into `on_complete`.
    StartExchange(from, to, options, handler, on_complete,
                  /*silent_drop=*/false);
    return;
  }
  auto call = std::make_shared<PolicyCall>();
  call->from = from;
  call->to = to;
  call->method = std::string(options.method);
  call->options = options;
  call->options.method = call->method;
  call->policy = policy;
  call->handler = std::move(handler);
  call->on_complete = std::move(on_complete);
  IssueAttempt(call, /*is_hedge=*/false);
  if (policy.hedge_delay > SimTime::Zero()) {
    call->hedge_timer =
        sim_->Schedule(policy.hedge_delay, [this, call]() {
          call->hedge_timer = sim::EventId{};
          if (call->completed || call->outcome.hedged) return;
          // Hedge only while the primary is still in flight; if it
          // already failed we are in backoff and a retry is coming.
          if (call->outstanding == 0) return;
          IssueAttempt(call, /*is_hedge=*/true);
        });
  }
}

void RpcSystem::IssueAttempt(std::shared_ptr<PolicyCall> call,
                             bool is_hedge) {
  size_t index = call->attempts.size();
  PolicyCall::Attempt attempt;
  attempt.issued_at = sim_->Now();
  attempt.is_hedge = is_hedge;
  ++call->outcome.attempts;
  ++call->outstanding;
  if (is_hedge) {
    call->outcome.hedged = true;
    ++hedges_issued_;
  } else if (index > 0) {
    ++retries_issued_;
  }
  bool silent_drop = call->policy.timeout > SimTime::Zero();
  if (call->policy.timeout > SimTime::Zero()) {
    attempt.timeout_timer =
        sim_->Schedule(call->policy.timeout, [this, call, index]() {
          OnAttemptTimeout(call, index);
        });
  }
  call->attempts.push_back(attempt);
  Handler handler = [call](Respond respond) { call->handler(respond); };
  PolicyCompletion on_outcome = [this, call,
                                 index](const RpcOutcome& outcome) {
    OnAttemptResult(call, index, outcome.result);
  };
  StartExchange(call->from, call->to, call->options, handler, on_outcome,
                silent_drop);
}

void RpcSystem::OnAttemptResult(std::shared_ptr<PolicyCall> call,
                                size_t index, const RpcResult& result) {
  PolicyCall::Attempt& attempt = call->attempts[index];
  // Late delivery from an abandoned or timed-out attempt: the call already
  // moved on; discarding here is what "cancelling the loser" means at the
  // flow level (the bytes still crossed the simulated wire).
  if (call->completed || attempt.finished) return;
  if (result.ok()) {
    CompleteCall(call, Status::Ok(), &result, index);
    return;
  }
  attempt.finished = true;
  --call->outstanding;
  if (attempt.timeout_timer.valid()) {
    sim_->Cancel(attempt.timeout_timer);
    attempt.timeout_timer = sim::EventId{};
  }
  ++call->outcome.failures;
  call->outcome.wasted_time += sim_->Now() - attempt.issued_at;
  MaybeRetryOrFail(call, result.status);
}

void RpcSystem::OnAttemptTimeout(std::shared_ptr<PolicyCall> call,
                                 size_t index) {
  PolicyCall::Attempt& attempt = call->attempts[index];
  attempt.timeout_timer = sim::EventId{};
  if (call->completed || attempt.finished) return;
  ++timeouts_fired_;
  attempt.finished = true;
  --call->outstanding;
  ++call->outcome.failures;
  call->outcome.wasted_time += call->policy.timeout;
  MaybeRetryOrFail(call,
                   Status::DeadlineExceeded("rpc attempt timed out"));
}

void RpcSystem::MaybeRetryOrFail(std::shared_ptr<PolicyCall> call,
                                 const Status& failure) {
  // Another attempt (primary or hedge) is still racing: let it decide.
  if (call->outstanding > 0) return;
  if (call->outcome.attempts < call->policy.max_attempts) {
    // Exponential backoff keyed on failures so far, with optional
    // symmetric jitter drawn from the failure-path stream (never from the
    // network stream — see the RNG contract in DESIGN.md §10).
    double backoff_s =
        call->policy.backoff_base.ToSeconds() *
        std::pow(call->policy.backoff_multiplier,
                 static_cast<double>(call->outcome.failures - 1));
    if (call->policy.backoff_jitter > 0) {
      double u = ResilienceRng().NextDouble();
      backoff_s *= 1.0 + call->policy.backoff_jitter * (2.0 * u - 1.0);
    }
    sim_->Schedule(SimTime::FromSeconds(backoff_s), [this, call]() {
      if (call->completed) return;
      IssueAttempt(call, /*is_hedge=*/false);
    });
    return;
  }
  CompleteCall(call, failure, nullptr, 0);
}

void RpcSystem::CompleteCall(std::shared_ptr<PolicyCall> call,
                             const Status& status, const RpcResult* winner,
                             size_t winner_index) {
  call->completed = true;
  if (call->hedge_timer.valid()) {
    sim_->Cancel(call->hedge_timer);
    call->hedge_timer = sim::EventId{};
  }
  if (winner != nullptr) {
    PolicyCall::Attempt& attempt = call->attempts[winner_index];
    attempt.finished = true;
    --call->outstanding;
    if (attempt.timeout_timer.valid()) {
      sim_->Cancel(attempt.timeout_timer);
      attempt.timeout_timer = sim::EventId{};
    }
    if (attempt.is_hedge) {
      call->outcome.hedge_won = true;
      ++hedge_wins_;
    }
    call->outcome.result = *winner;
  }
  // Cancel every still-outstanding loser: its timeout timer is removed
  // from the event queue and its in-flight time so far is wasted work.
  for (PolicyCall::Attempt& other : call->attempts) {
    if (other.finished) continue;
    other.finished = true;
    --call->outstanding;
    if (other.timeout_timer.valid()) {
      sim_->Cancel(other.timeout_timer);
      other.timeout_timer = sim::EventId{};
    }
    call->outcome.wasted_time += sim_->Now() - other.issued_at;
    ++cancelled_attempts_;
  }
  call->outcome.status = status;
  wasted_seconds_ += call->outcome.wasted_time.ToSeconds();
  if (call->on_complete) {
    // Move the completion out so the PolicyCall can free even if a stale
    // wire event still holds the shared state.
    PolicyCompletion done = std::move(call->on_complete);
    call->on_complete = nullptr;
    done(call->outcome);
  }
}

}  // namespace hyperprof::net
