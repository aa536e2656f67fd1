#include "sim/barrier.h"

#include <cassert>
#include <type_traits>
#include <utility>

namespace hyperprof::sim {

static_assert(std::is_trivially_copyable_v<BarrierPool::Token>,
              "a barrier token copy must never allocate");

BarrierPool::Token BarrierPool::Arm(size_t count,
                                    Simulator::Callback on_all_done) {
  assert(count > 0);
  const uint32_t index = joins_.Acquire();
  Join& join = joins_[index];
  join.remaining = count;
  join.on_all_done = std::move(on_all_done);
  return Token(this, index);
}

void BarrierPool::Arrive(uint32_t index) {
  Join& join = joins_[index];
  assert(join.remaining > 0);
  if (--join.remaining != 0) return;
  Simulator::Callback done = std::move(join.on_all_done);
  joins_.Release(index);
  done();
}

}  // namespace hyperprof::sim
