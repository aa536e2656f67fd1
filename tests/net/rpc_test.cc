#include "net/rpc.h"

#include <gtest/gtest.h>

#include "sim/simulator.h"

namespace hyperprof::net {
namespace {

class RpcTest : public ::testing::Test {
 protected:
  RpcTest() : rpc_(&simulator_, &network_, Rng(1)) {}

  sim::Simulator simulator_;
  NetworkModel network_;
  RpcSystem rpc_;
  NodeId client_{0, 0, 0};
  NodeId server_{0, 0, 1};
};

TEST_F(RpcTest, CompletesWithServerAndNetworkTime) {
  RpcOptions options;
  options.method = "test.Echo";
  options.request_bytes = 1024;
  options.response_bytes = 1024;
  bool completed = false;
  rpc_.CallFixed(client_, server_, options, SimTime::Micros(500),
                 [&](const RpcOutcome& outcome) {
                   const RpcResult& result = outcome.result;
                   completed = true;
                   EXPECT_EQ(result.server_time, SimTime::Micros(500));
                   EXPECT_GT(result.network_time, SimTime::Zero());
                   EXPECT_EQ(result.Total(),
                             result.network_time + result.server_time);
                 });
  simulator_.Run();
  EXPECT_TRUE(completed);
  EXPECT_EQ(rpc_.completed_calls(), 1u);
}

TEST_F(RpcTest, HandlerRunsAtServerAfterTransport) {
  RpcOptions options;
  SimTime handler_at;
  rpc_.CallWithPolicy(
      client_, server_, options, RpcCallPolicy{},
      [&](RpcSystem::Respond respond) {
        handler_at = simulator_.Now();
        respond();
      },
      [](const RpcOutcome&) {});
  simulator_.Run();
  EXPECT_GT(handler_at, SimTime::Zero());
}

TEST_F(RpcTest, HandlerCanDoAsynchronousWork) {
  RpcOptions options;
  SimTime completed_at;
  rpc_.CallWithPolicy(
      client_, server_, options, RpcCallPolicy{},
      [&](RpcSystem::Respond respond) {
        simulator_.Schedule(SimTime::Millis(2), respond);
      },
      [&](const RpcOutcome& outcome) {
        completed_at = simulator_.Now();
        EXPECT_EQ(outcome.result.server_time, SimTime::Millis(2));
      });
  simulator_.Run();
  EXPECT_GT(completed_at, SimTime::Millis(2));
}

TEST_F(RpcTest, LatencyHistogramRecordsCalls) {
  RpcOptions options;
  for (int i = 0; i < 10; ++i) {
    rpc_.CallFixed(client_, server_, options, SimTime::Micros(100),
                   [](const RpcOutcome&) {});
  }
  simulator_.Run();
  EXPECT_EQ(rpc_.latency_histogram().count(), 10u);
  EXPECT_GT(rpc_.latency_histogram().mean(), 100e-6);
  EXPECT_EQ(rpc_.latency_histogram().geometry(), kLatencyHistogramGeometry);
}

TEST_F(RpcTest, NestedRpcFromHandler) {
  RpcOptions options;
  NodeId backend{0, 0, 2};
  bool outer_done = false;
  rpc_.CallWithPolicy(
      client_, server_, options, RpcCallPolicy{},
      [&](RpcSystem::Respond respond) {
        // Server fans out to a backend before responding.
        rpc_.CallFixed(server_, backend, RpcOptions{}, SimTime::Micros(50),
                       [respond](const RpcOutcome&) { respond(); });
      },
      [&](const RpcOutcome& outcome) {
        outer_done = true;
        EXPECT_GT(outcome.result.server_time, SimTime::Micros(50));
      });
  simulator_.Run();
  EXPECT_TRUE(outer_done);
  EXPECT_EQ(rpc_.completed_calls(), 2u);
}

TEST_F(RpcTest, CrossRegionSlowerThanLocal) {
  RpcOptions options;
  SimTime local_total, remote_total;
  rpc_.CallFixed(client_, server_, options, SimTime::Zero(),
                 [&](const RpcOutcome& o) { local_total = o.result.Total(); });
  rpc_.CallFixed(client_, NodeId{1, 0, 0}, options, SimTime::Zero(),
                 [&](const RpcOutcome& o) { remote_total = o.result.Total(); });
  simulator_.Run();
  EXPECT_GT(remote_total, local_total * 10);
}

}  // namespace
}  // namespace hyperprof::net
