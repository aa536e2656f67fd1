#include "net/fault.h"

#include <gtest/gtest.h>

#include "net/rpc.h"
#include "sim/simulator.h"

namespace hyperprof::net {
namespace {

/**
 * One self-contained substrate (simulator + network + rpc + fault model)
 * so determinism tests can stand up two identical stacks and compare
 * bit-for-bit.
 */
struct Stack {
  explicit Stack(uint64_t seed = 1, uint64_t fault_seed = 77)
      : rpc(&simulator, &network, Rng(seed)), faults(Rng(fault_seed)) {
    rpc.set_fault_model(&faults);
  }

  sim::Simulator simulator;
  NetworkModel network;
  RpcSystem rpc;
  FaultModel faults;
  NodeId client{0, 0, 0};
  NodeId server{0, 0, 1};
};

FaultSpec DropAll() {
  FaultSpec spec;
  spec.drop_probability = 1.0;
  return spec;
}

FaultSpec ErrorAll() {
  FaultSpec spec;
  spec.error_probability = 1.0;
  return spec;
}

TEST(FaultModelTest, UnarmedByDefault) {
  FaultModel model(Rng(7));
  EXPECT_FALSE(model.armed());
  model.set_default_faults(FaultSpec{});  // all-zero spec stays unarmed
  EXPECT_FALSE(model.armed());
}

TEST(FaultModelTest, ArmedByAnyFaultSource) {
  FaultModel by_default(Rng(7));
  by_default.set_default_faults(DropAll());
  EXPECT_TRUE(by_default.armed());

  FaultModel by_method(Rng(7));
  by_method.SetMethodFaults("dfs.Read", ErrorAll());
  EXPECT_TRUE(by_method.armed());

  FaultModel by_outage(Rng(7));
  by_outage.AddOutage(
      {NodeId{0, 0, 1}, SimTime::Zero(), SimTime::FromSeconds(1)});
  EXPECT_TRUE(by_outage.armed());
}

TEST(FaultModelTest, DecisionPartitionIsExhaustiveAndCounted) {
  FaultModel model(Rng(7));
  FaultSpec spec;
  spec.drop_probability = 0.2;
  spec.error_probability = 0.2;
  spec.slowdown_probability = 0.2;
  model.set_default_faults(spec);
  for (int i = 0; i < 10000; ++i) {
    model.Decide("m", NodeId{0, 0, 1}, SimTime::Zero());
  }
  EXPECT_EQ(model.decisions(), 10000u);
  EXPECT_EQ(model.injected_total(), model.injected_drops() +
                                        model.injected_errors() +
                                        model.injected_slowdowns());
  // Each branch should land near its 20% mass.
  EXPECT_NEAR(model.injected_drops() / 10000.0, 0.2, 0.02);
  EXPECT_NEAR(model.injected_errors() / 10000.0, 0.2, 0.02);
  EXPECT_NEAR(model.injected_slowdowns() / 10000.0, 0.2, 0.02);
}

TEST(FaultModelTest, MethodOverrideBeatsDefault) {
  FaultModel model(Rng(7));
  model.set_default_faults(DropAll());
  model.SetMethodFaults("safe.Method", FaultSpec{});
  FaultDecision hit = model.Decide("other", NodeId{0, 0, 1}, SimTime::Zero());
  FaultDecision safe =
      model.Decide("safe.Method", NodeId{0, 0, 1}, SimTime::Zero());
  EXPECT_EQ(hit.kind, FaultDecision::Kind::kDrop);
  EXPECT_EQ(safe.kind, FaultDecision::Kind::kNone);
}

TEST(FaultModelTest, OutageWindowIsDeterministicAndBounded) {
  FaultModel model(Rng(7));
  NodeId node{0, 0, 3};
  model.AddOutage({node, SimTime::FromSeconds(1), SimTime::FromSeconds(2)});
  EXPECT_EQ(model.Decide("m", node, SimTime::FromSeconds(0.5)).kind,
            FaultDecision::Kind::kNone);
  EXPECT_EQ(model.Decide("m", node, SimTime::FromSeconds(1.5)).kind,
            FaultDecision::Kind::kError);
  EXPECT_EQ(model.Decide("m", node, SimTime::FromSeconds(2.0)).kind,
            FaultDecision::Kind::kNone);  // end is exclusive
  // A different node inside the window is unaffected.
  EXPECT_EQ(model.Decide("m", NodeId{0, 0, 4},
                         SimTime::FromSeconds(1.5)).kind,
            FaultDecision::Kind::kNone);
  EXPECT_EQ(model.outage_hits(), 1u);
}

TEST(FaultRpcTest, PlainCallSurvivesDropWithoutHanging) {
  Stack stack;
  stack.faults.set_default_faults(DropAll());
  int completions = 0;
  Status status;
  stack.rpc.CallWithPolicy(
      stack.client, stack.server, RpcOptions{}, RpcCallPolicy{},
      [](RpcSystem::Respond respond) { respond(); },
      [&](const RpcOutcome& outcome) {
        ++completions;
        status = outcome.status;
      });
  stack.simulator.Run();
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(stack.rpc.failed_calls(), 1u);
  EXPECT_EQ(stack.rpc.completed_calls(), 0u);
}

TEST(FaultRpcTest, TimeoutFiresExactlyOnce) {
  Stack stack;
  stack.faults.set_default_faults(DropAll());
  RpcCallPolicy policy;
  policy.timeout = SimTime::Millis(5);
  policy.max_attempts = 1;
  int completions = 0;
  RpcOutcome outcome;
  stack.rpc.CallWithPolicy(stack.client, stack.server, RpcOptions{}, policy,
                           stack.rpc.FixedServer(SimTime::Zero()),
                           [&](const RpcOutcome& o) {
                             ++completions;
                             outcome = o;
                           });
  stack.simulator.Run();
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(stack.rpc.timeouts_fired(), 1u);
  EXPECT_EQ(outcome.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(outcome.attempts, 1u);
  EXPECT_EQ(outcome.failures, 1u);
  EXPECT_EQ(outcome.wasted_time, SimTime::Millis(5));
  EXPECT_FALSE(outcome.ToStatusOr().ok());
}

TEST(FaultRpcTest, RetriesExhaustDeterministically) {
  auto run_once = []() {
    Stack stack;
    stack.faults.set_default_faults(DropAll());
    RpcCallPolicy policy;
    policy.timeout = SimTime::Millis(5);
    policy.max_attempts = 3;
    policy.backoff_base = SimTime::Millis(1);
    policy.backoff_jitter = 0.5;  // exercises the jitter draw
    SimTime completed_at;
    RpcOutcome outcome;
    stack.rpc.CallWithPolicy(stack.client, stack.server, RpcOptions{},
                             policy, stack.rpc.FixedServer(SimTime::Zero()),
                             [&](const RpcOutcome& o) {
                               outcome = o;
                               completed_at = stack.simulator.Now();
                             });
    stack.simulator.Run();
    EXPECT_EQ(outcome.attempts, 3u);
    EXPECT_EQ(outcome.failures, 3u);
    EXPECT_EQ(stack.rpc.timeouts_fired(), 3u);
    EXPECT_EQ(stack.rpc.retries_issued(), 2u);
    EXPECT_EQ(outcome.status.code(), StatusCode::kDeadlineExceeded);
    return completed_at;
  };
  // Identical seeds -> identical jittered backoff -> identical end time.
  SimTime first = run_once();
  SimTime second = run_once();
  EXPECT_EQ(first, second);
  // Backoff pushed completion past the sum of the three timeouts.
  EXPECT_GT(first, SimTime::Millis(15));
}

TEST(FaultRpcTest, RetrySucceedsAfterTransientError) {
  Stack stack;
  stack.faults.set_default_faults(ErrorAll());
  RpcCallPolicy policy;
  policy.max_attempts = 2;
  policy.backoff_base = SimTime::FromSeconds(1);  // retry lands at ~1s
  RpcOutcome outcome;
  int completions = 0;
  // Clear the fault before the retry fires: the transient heals.
  stack.simulator.Schedule(SimTime::FromSeconds(0.5), [&]() {
    stack.faults.set_default_faults(FaultSpec{});
  });
  stack.rpc.CallWithPolicy(stack.client, stack.server, RpcOptions{}, policy,
                           stack.rpc.FixedServer(SimTime::Micros(100)),
                           [&](const RpcOutcome& o) {
                             ++completions;
                             outcome = o;
                           });
  stack.simulator.Run();
  EXPECT_EQ(completions, 1);
  EXPECT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.attempts, 2u);
  EXPECT_EQ(outcome.failures, 1u);
  EXPECT_EQ(outcome.result.server_time, SimTime::Micros(100));
  EXPECT_TRUE(outcome.ToStatusOr().ok());
  EXPECT_GT(outcome.wasted_time, SimTime::Zero());
}

TEST(FaultRpcTest, HedgedWinnerCancelsLoserWithoutDoubleCompleting) {
  Stack stack;  // no faults armed: hedging against raw server slowness
  RpcCallPolicy policy;
  policy.max_attempts = 2;
  policy.hedge_delay = SimTime::Millis(1);
  int handler_runs = 0;
  int completions = 0;
  RpcOutcome outcome;
  stack.rpc.CallWithPolicy(
      stack.client, stack.server, RpcOptions{}, policy,
      [&](RpcSystem::Respond respond) {
        ++handler_runs;
        // First (primary) execution is a straggler; the hedge is fast.
        SimTime delay = handler_runs == 1 ? SimTime::Millis(100)
                                          : SimTime::Micros(10);
        stack.simulator.Schedule(delay, respond);
      },
      [&](const RpcOutcome& o) {
        ++completions;
        outcome = o;
      });
  stack.simulator.Run();
  EXPECT_EQ(handler_runs, 2);
  EXPECT_EQ(completions, 1);
  EXPECT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome.hedged);
  EXPECT_TRUE(outcome.hedge_won);
  EXPECT_EQ(outcome.attempts, 2u);
  EXPECT_EQ(outcome.result.server_time, SimTime::Micros(10));
  EXPECT_EQ(stack.rpc.hedges_issued(), 1u);
  EXPECT_EQ(stack.rpc.hedge_wins(), 1u);
  EXPECT_EQ(stack.rpc.cancelled_attempts(), 1u);
  EXPECT_GT(outcome.wasted_time, SimTime::Zero());
  EXPECT_EQ(stack.rpc.wasted_seconds(), outcome.wasted_time.ToSeconds());
}

TEST(FaultRpcTest, HedgeNotIssuedWhenPrimaryWinsFirst) {
  Stack stack;
  RpcCallPolicy policy;
  policy.max_attempts = 2;
  policy.hedge_delay = SimTime::FromSeconds(5);  // far beyond completion
  RpcOutcome outcome;
  stack.rpc.CallWithPolicy(stack.client, stack.server, RpcOptions{}, policy,
                           stack.rpc.FixedServer(SimTime::Micros(100)),
                           [&](const RpcOutcome& o) { outcome = o; });
  stack.simulator.Run();
  EXPECT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome.hedged);
  EXPECT_EQ(outcome.attempts, 1u);
  EXPECT_EQ(stack.rpc.hedges_issued(), 0u);
  EXPECT_EQ(stack.rpc.cancelled_attempts(), 0u);
  EXPECT_EQ(outcome.wasted_time, SimTime::Zero());
}

TEST(FaultRpcTest, SlowdownDelaysResponseByExactExtra) {
  // Two identical stacks; one injects a fixed 20ms slowdown. The network
  // draws come from the same stream positions, so the totals differ by
  // exactly the injected extra.
  Stack plain;
  Stack slowed;
  FaultSpec slow;
  slow.slowdown_probability = 1.0;
  slow.slowdown_floor = SimTime::Millis(20);
  slow.slowdown_ceil = SimTime::Millis(20);
  slowed.faults.set_default_faults(slow);
  SimTime plain_total, slowed_total;
  plain.rpc.CallFixed(plain.client, plain.server, RpcOptions{},
                      SimTime::Micros(50),
                      [&](const RpcOutcome& o) {
                        plain_total = o.result.Total();
                      });
  slowed.rpc.CallFixed(slowed.client, slowed.server, RpcOptions{},
                       SimTime::Micros(50),
                       [&](const RpcOutcome& o) {
                         slowed_total = o.result.Total();
                       });
  plain.simulator.Run();
  slowed.simulator.Run();
  EXPECT_EQ(slowed_total, plain_total + SimTime::Millis(20));
  EXPECT_EQ(slowed.faults.injected_slowdowns(), 1u);
}

TEST(FaultRpcTest, OutageFailsCallsOnlyInsideWindow) {
  Stack stack;
  stack.faults.AddOutage({stack.server, SimTime::Zero(),
                          SimTime::FromSeconds(1)});
  Status during, after;
  stack.rpc.CallFixed(stack.client, stack.server, RpcOptions{},
                      SimTime::Zero(),
                      [&](const RpcOutcome& o) { during = o.status; });
  stack.simulator.Schedule(SimTime::FromSeconds(2), [&]() {
    stack.rpc.CallFixed(stack.client, stack.server, RpcOptions{},
                        SimTime::Zero(),
                        [&](const RpcOutcome& o) { after = o.status; });
  });
  stack.simulator.Run();
  EXPECT_EQ(during.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(after.ok());
  EXPECT_EQ(stack.faults.outage_hits(), 1u);
}

TEST(FaultRpcTest, PlainPolicyIsBitIdenticalToLegacyCall) {
  // Same seeds, same workload; one goes through CallFixed, the other
  // through CallWithPolicy with the zero policy and a hand-written
  // fixed-delay handler. Every completion must land at the exact same
  // simulated instant with the exact same timings.
  Stack legacy;
  Stack wrapped;
  std::vector<SimTime> legacy_times, wrapped_times;
  for (int i = 0; i < 20; ++i) {
    legacy.rpc.CallFixed(legacy.client, legacy.server, RpcOptions{},
                         SimTime::Micros(100), [&](const RpcOutcome& o) {
                           legacy_times.push_back(o.result.Total());
                         });
    wrapped.rpc.CallWithPolicy(
        wrapped.client, wrapped.server, RpcOptions{}, RpcCallPolicy{},
        [&wrapped](RpcSystem::Respond respond) {
          wrapped.simulator.Schedule(SimTime::Micros(100), respond);
        },
        [&](const RpcOutcome& o) {
          EXPECT_TRUE(o.ok());
          EXPECT_EQ(o.attempts, 1u);
          wrapped_times.push_back(o.result.Total());
        });
  }
  legacy.simulator.Run();
  wrapped.simulator.Run();
  ASSERT_EQ(legacy_times.size(), wrapped_times.size());
  for (size_t i = 0; i < legacy_times.size(); ++i) {
    EXPECT_EQ(legacy_times[i], wrapped_times[i]);
  }
  EXPECT_EQ(legacy.simulator.events_executed(),
            wrapped.simulator.events_executed());
  // The unarmed model was never consulted.
  EXPECT_EQ(legacy.faults.decisions(), 0u);
  EXPECT_EQ(wrapped.faults.decisions(), 0u);
}

TEST(FaultRpcTest, LatencyQuantileGivesHedgeDelayRecipe) {
  Stack stack;
  for (int i = 0; i < 200; ++i) {
    stack.rpc.CallFixed(stack.client, stack.server, RpcOptions{},
                        SimTime::Micros(100), [](const RpcOutcome&) {});
  }
  stack.simulator.Run();
  SimTime p50 = stack.rpc.LatencyQuantile(0.50);
  SimTime p95 = stack.rpc.LatencyQuantile(0.95);
  EXPECT_GT(p50, SimTime::Zero());
  EXPECT_GE(p95, p50);
}

}  // namespace
}  // namespace hyperprof::net
