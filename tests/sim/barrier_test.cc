#include "sim/barrier.h"

#include <gtest/gtest.h>

namespace hyperprof::sim {
namespace {

TEST(BarrierTest, FiresAfterAllArrive) {
  BarrierPool barriers;
  bool done = false;
  auto token = barriers.Arm(3, [&] { done = true; });
  token();
  token();
  EXPECT_FALSE(done);
  token();
  EXPECT_TRUE(done);
}

TEST(BarrierTest, SingleCount) {
  BarrierPool barriers;
  bool done = false;
  auto token = barriers.Arm(1, [&] { done = true; });
  token();
  EXPECT_TRUE(done);
}

TEST(BarrierTest, CompletionMayArmTheNextJoin) {
  // The finished join's record is recycled before its callback runs, so
  // a chain of joins on one pool reuses a single record.
  BarrierPool barriers;
  int fired = 0;
  BarrierPool::Token outer = barriers.Arm(1, [&] {
    ++fired;
    BarrierPool::Token inner = barriers.Arm(2, [&] { ++fired; });
    inner();
    inner();
  });
  BarrierPool::Token copy = outer;  // tokens copy freely
  copy();
  EXPECT_EQ(fired, 2);
}

}  // namespace
}  // namespace hyperprof::sim
