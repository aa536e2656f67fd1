#ifndef HYPERPROF_SIM_SIMULATOR_H_
#define HYPERPROF_SIM_SIMULATOR_H_

#include <cstdint>
#include <vector>

#include "common/inline_function.h"
#include "common/sim_time.h"

namespace hyperprof::sim {

/**
 * Opaque handle for cancelling a scheduled event. Encodes the event's
 * slot and generation; a default-constructed id is never valid.
 */
struct EventId {
  uint64_t seq = 0;
  bool valid() const { return seq != 0; }
};

/**
 * Deterministic discrete-event simulator.
 *
 * Events are callbacks ordered by (timestamp, insertion sequence), so two
 * events at the same instant fire in the order they were scheduled — the
 * property that makes whole-fleet runs reproducible. The kernel is
 * single-threaded by design; parallelism in the modeled system is expressed
 * as interleaved events, not host threads. (Host-level parallelism runs
 * independent Simulator instances side by side — see
 * platforms::FleetSimulation.)
 *
 * Hot-path layout: the binary heap orders small POD entries (time, order,
 * slot, generation) while callbacks live in a recycled slot table. A slot's
 * generation bumps on cancel or fire, so cancellation is O(1) — stale heap
 * entries are recognized at pop time by a generation mismatch, with no hash
 * lookups anywhere on the path. Callbacks are InlineFunction with a 48-byte
 * small buffer, so typical continuations never touch the heap allocator.
 */
class Simulator {
 public:
  using Callback = InlineFunction<void(), 48>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /** Current simulated time. */
  SimTime Now() const { return now_; }

  /** Schedules `fn` to run `delay` after Now(). Negative delays clamp to 0. */
  EventId Schedule(SimTime delay, Callback fn);

  /** Schedules `fn` at absolute time `when` (clamped to Now()). */
  EventId ScheduleAt(SimTime when, Callback fn);

  /**
   * Like Schedule/ScheduleAt, but additionally tracks the event for
   * flagged_horizon(). Flagged events fire in exactly the same global
   * (time, insertion) order as unflagged ones — the flag is pure
   * bookkeeping and never perturbs results. Callers flag the events that
   * can lead to externally visible side effects (cross-shard posts), so
   * the epoch scheduler can prove quiet stretches ahead of time.
   */
  EventId ScheduleFlagged(SimTime delay, Callback fn);
  EventId ScheduleFlaggedAt(SimTime when, Callback fn);

  /**
   * Reserves `count` consecutive tie-break orders and returns the first.
   * Every schedule call takes the next order, so an event scheduled later
   * with ScheduleReservedAt(when, first + i, ...) keeps the (time, order)
   * key it would have had if it were scheduled now: a producer can feed a
   * long sequence that is known up front one event at a time, holding one
   * pending event instead of the whole sequence. The firing order and
   * next_event_time() stay as if the sequence had been scheduled eagerly
   * as long as each event is scheduled before any event with a larger key
   * fires; flagged_horizon() stays too when flagged and unflagged events
   * of the sequence are fed by a producer each.
   */
  uint64_t ReserveOrders(uint64_t count);

  /**
   * Schedules `fn` at `when` (clamped to Now()) with an `order` from
   * ReserveOrders; each reserved order is used at most once. `flagged`
   * tracks the event for flagged_horizon() like ScheduleFlaggedAt.
   */
  EventId ScheduleReservedAt(SimTime when, uint64_t order, Callback fn,
                             bool flagged);

  /**
   * Cancels a pending event; returns true if it had not yet fired. O(1):
   * the callback is destroyed immediately and the slot's generation bumps,
   * leaving a stale heap entry that pop skips by generation mismatch.
   */
  bool Cancel(EventId id);

  /** Runs until the event queue drains. Returns the number of events run. */
  uint64_t Run();

  /**
   * Runs until the queue drains or the next event lies beyond `deadline`.
   * Events scheduled exactly at the deadline still run; on early stop the
   * clock is advanced to the deadline.
   */
  uint64_t RunUntil(SimTime deadline);

  /**
   * Pre-sizes the heap and slot table for an expected number of in-flight
   * events; both containers also retain capacity across drains.
   */
  void Reserve(size_t expected_events);

  /**
   * Timestamp of the earliest live event, or SimTime::Max() when the queue
   * is empty. Lazily prunes stale (cancelled) entries off the heap top, so
   * the answer is exact. Used by the epoch scheduler to skip idle windows.
   */
  SimTime next_event_time();

  /**
   * Timestamp of the earliest live *flagged* event, or SimTime::Max() when
   * none is pending. Same lazy pruning as next_event_time(). This is a
   * sound lower bound on the next flagged firing, which callers combine
   * with their own accounting into a cross-shard post horizon
   * (ShardGroup::RunOptions::post_horizon).
   */
  SimTime flagged_horizon();

  /**
   * Bytes of kernel bookkeeping currently reserved (heap, slot table, free
   * list — capacities, not sizes). RSS-independent input to the fleet's
   * memory/worker accounting.
   */
  size_t memory_bytes() const;

  /** Total events executed so far. */
  uint64_t events_executed() const { return events_executed_; }

  /** Number of live (scheduled, not cancelled, not fired) events. */
  size_t pending_events() const { return live_events_; }

  /** Cancelled events whose stale heap entries have not been popped yet. */
  size_t cancelled_events() const { return stale_in_heap_; }

 private:
  /** POD heap entry; the callback lives in the slot table. */
  struct HeapEntry {
    SimTime when;
    uint64_t order;  // schedule-time tie-break for same-instant events
    uint32_t slot;
    uint32_t gen;
  };
  /** Min-heap order on (when, order) via std::push_heap's max-heap API. */
  struct After {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.order > b.order;
    }
  };
  struct Slot {
    Callback fn;
    uint32_t gen = 0;
    bool flagged = false;  // current occupant is tracked in flagged_heap_
  };

  EventId ScheduleAtImpl(SimTime when, uint64_t order, Callback fn,
                         bool flagged);

  /** Pops the heap top and returns it. */
  HeapEntry PopTop();
  /** Fires the event in `entry`'s slot (already popped, generation ok). */
  void Fire(const HeapEntry& entry);

  SimTime now_;
  uint64_t next_order_ = 1;
  uint64_t events_executed_ = 0;
  size_t live_events_ = 0;
  size_t stale_in_heap_ = 0;
  std::vector<HeapEntry> heap_;
  // Secondary min-heap over the flagged subset, pruned lazily by generation
  // mismatch exactly like heap_. Entries are copies; the slot table stays
  // the single owner of callbacks. Stale entries are compacted in place
  // once they outnumber live ones, so the heap's footprint tracks the
  // number of *pending* flagged events, not the total ever scheduled.
  std::vector<HeapEntry> flagged_heap_;
  size_t flagged_live_ = 0;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace hyperprof::sim

#endif  // HYPERPROF_SIM_SIMULATOR_H_
