#ifndef HYPERPROF_SIM_BARRIER_H_
#define HYPERPROF_SIM_BARRIER_H_

#include <cstddef>
#include <cstdint>

#include "common/slot_pool.h"
#include "sim/simulator.h"

namespace hyperprof::sim {

/**
 * Fan-out / fan-in joins: Arm(count, on_all_done) starts a join of
 * `count` parallel branches and returns the per-branch completion token,
 * which must be invoked exactly `count` times in total; the last call
 * runs `on_all_done`.
 *
 * Used for overlapping phase groups and any other fan-in of a query's
 * branches. The token is a (pool, index) pair and trivially copyable, so
 * copying it into each branch's continuation never allocates — a
 * std::function or InlineFunction stores it inline. Join state lives in
 * the pool's recycled records; a join's record is released before its
 * `on_all_done` runs, so the callback may arm the next join on the same
 * pool. The pool must outlive every outstanding token.
 */
class BarrierPool {
 public:
  class Token {
   public:
    void operator()() const { pool_->Arrive(index_); }

   private:
    friend class BarrierPool;
    Token(BarrierPool* pool, uint32_t index) : pool_(pool), index_(index) {}

    BarrierPool* pool_;
    uint32_t index_;
  };

  BarrierPool() = default;
  BarrierPool(const BarrierPool&) = delete;
  BarrierPool& operator=(const BarrierPool&) = delete;

  /** Starts a join of `count` (> 0) branches. */
  Token Arm(size_t count, Simulator::Callback on_all_done);

 private:
  struct Join {
    size_t remaining = 0;
    Simulator::Callback on_all_done;
  };

  void Arrive(uint32_t index);

  SlotPool<Join> joins_;
};

}  // namespace hyperprof::sim

#endif  // HYPERPROF_SIM_BARRIER_H_
