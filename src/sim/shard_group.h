#ifndef HYPERPROF_SIM_SHARD_GROUP_H_
#define HYPERPROF_SIM_SHARD_GROUP_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/sim_time.h"
#include "sim/simulator.h"

namespace hyperprof::sim {

/**
 * One cross-shard message. `deliver` is an absolute timestamp on the
 * destination kernel's clock; `(lane, seq)` is the canonical ordering key:
 * `lane` identifies the logical source stream (the fleet layer uses the
 * global query index, which does not depend on how queries are partitioned
 * over shards) and `seq` counts messages within that lane. The destination
 * is implicit in which mailbox holds the envelope.
 */
struct ShardEnvelope {
  SimTime deliver;
  uint64_t lane = 0;
  uint64_t seq = 0;
  Simulator::Callback payload;
};

/**
 * Conservative parallel-discrete-event scheduler over a group of
 * Simulator kernels.
 *
 * The group advances all kernels in lock-step epochs of length `window`,
 * the minimum cross-shard delivery latency. Within an epoch every kernel
 * runs independently; messages to other kernels are appended to
 * per-(source, destination) mailboxes. At the epoch barrier the staged
 * mailboxes flip over to the destinations, and each destination merges its
 * inbound runs in the canonical (deliver, lane, seq) order at the start of
 * the next epoch — while the other destinations merge their own traffic in
 * parallel.
 *
 * Correctness of the conservative window: an envelope posted at local
 * time t carries deliver = t + window. With epochs [s, s+window] and an
 * inclusive RunUntil, t <= s+window implies deliver >= s+window, which is
 * exactly where every kernel's clock sits at the barrier — so insertion
 * never clamps and no message arrives in a kernel's past.
 *
 * Determinism: epoch boundaries snap to the global minimum next-event
 * time (kernel events and staged deliveries alike), and same-instant
 * deliveries are tie-broken by the kernel's insertion order, which the
 * canonical merge makes independent of shard count and thread schedule.
 * Any shard count — including one — produces bit-identical simulations,
 * with or without runner threads.
 *
 * Hot-path design (DESIGN.md §14): in a parallel Advance each kernel
 * gets a runner thread, parked on an atomic epoch-ticket barrier for the
 * length of the call (one barrier per epoch, not per-epoch thread-pool
 * enqueues); envelopes carry their payloads inline in a 48-byte-SBO
 * InlineFunction, so steady-state cross-shard traffic performs zero heap
 * allocations; and when a barrier finds every mailbox empty, the
 * post-horizon hook lets the group coalesce provably message-free
 * windows into one long epoch.
 */
class ShardGroup {
 public:
  struct RunOptions {
    /**
     * Run each kernel beyond the caller's on its own runner thread for
     * the duration of one Advance call (the caller runs the last kernel);
     * false runs every kernel on the calling thread. Either way the
     * results are bit-identical.
     */
    bool parallel = false;
    /** When nonzero, `probe` fires at barriers every `probe_period`. */
    SimTime probe_period;
    /**
     * Read-only observer; runs on the calling thread with every kernel
     * parked at the barrier, and once more after the group quiesces.
     */
    std::function<void()> probe;
    /**
     * Enables epoch coalescing: a sound per-kernel lower bound on the
     * next simulated time at which that kernel may call Post
     * (SimTime::Max() when it provably never will again). When a barrier
     * finds every mailbox empty, the epoch extends over every whole
     * window that provably contains no cross-shard post. Called only at
     * barriers, with every runner parked. The bound must be schedule- and
     * layout-invariant, or digests will diverge. Null disables coalescing.
     */
    std::function<SimTime(uint32_t kernel)> post_horizon;
  };

  /**
   * The group borrows the kernels (callers keep ownership; they must
   * outlive the group). `window` must be positive.
   */
  ShardGroup(std::vector<Simulator*> kernels, SimTime window);

  /**
   * Buffers a message from kernel `from` to kernel `to`. Must be called
   * from `from`'s runner (or between epochs); `deliver` must be at least
   * `window` past `from`'s clock so the barrier can honor it.
   *
   * The payload is stored inline in the envelope, so it must fit the
   * 48-byte small buffer (enforced at compile time): cross-shard state
   * lives in an owner's recycled record and the payload captures
   * `(owner, record)` (DESIGN.md §17). A warmed-up exchange path then
   * allocates nothing (see exchange_allocs()).
   */
  template <typename F>
  void Post(uint32_t from, uint32_t to, SimTime deliver, uint64_t lane,
            uint64_t seq, F&& payload) {
    static_assert(Simulator::Callback::fits_inline<F>(),
                  "cross-shard payloads must fit the envelope inline: keep "
                  "their state in an owner record and capture a pointer");
    Source& src = sources_[from];
    std::vector<ShardEnvelope>& box = staging_[from * kernels_.size() + to];
    if (box.size() == box.capacity()) ++src.allocs;  // container growth
    box.push_back(ShardEnvelope{deliver, lane, seq, std::forward<F>(payload)});
    ++src.posted;
  }

  /**
   * The group's one epoch loop: advances every kernel to virtual time
   * `until` and pauses. Advance(SimTime::Max()) runs to completion, and
   * advancing in any sequence of horizons executes the exact same events
   * in the exact same order, flips mailboxes at the exact same barriers,
   * and ends with identical epoch/coalescing counts as one Advance(Max)
   * (pinned by the simtest fuzz digest's "determinism-incremental"
   * comparison).
   *
   * The key is that a pause never becomes a barrier: when `until` falls
   * inside a planned epoch, the group runs each kernel to `until` and
   * keeps the epoch *open* — mailboxes are not flipped and the epoch plan
   * is not recomputed — so the next Advance resumes the same epoch and
   * closes it at its original deadline. Epoch plans therefore see exactly
   * the kernel states a one-shot run would see.
   *
   * Returns true while work remains (paused at `until`), false once the
   * group has fully quiesced; quiesce then drains stale cancelled heap
   * entries so kernels report a clean quiesce, and fires the probe once
   * more. With `options.parallel`, runner threads live only inside this
   * call; an exception thrown by any kernel's event stops and joins them
   * before it propagates.
   */
  bool Advance(SimTime until, const RunOptions& options);

  SimTime window() const { return window_; }
  uint64_t epochs() const { return epochs_; }
  /**
   * Extra windows folded into coalesced epochs (the barriers that were
   * provably unnecessary and skipped). A drain-to-quiesce epoch counts
   * once. Schedule- and layout-invariant, so digests may fold it in.
   */
  uint64_t coalesced_epochs() const { return coalesced_epochs_; }
  uint64_t messages_posted() const;
  uint64_t messages_delivered() const;
  /**
   * Envelopes still buffered; zero once Advance() returns false.
   * Maintained from per-source posted and per-destination delivered
   * counters (updated by exactly one thread each), so probing it
   * per-barrier stays O(shards).
   */
  size_t undelivered() const;
  /**
   * Heap allocations attributable to the exchange path: mailbox growth.
   * A warmed-up steady state adds zero. Layout-dependent — never fold
   * into digests.
   */
  uint64_t exchange_allocs() const;
  /**
   * Envelopes that arrived with deliver < the destination clock (then
   * clamped by ScheduleAt). Always zero unless a post_horizon hook lied;
   * checked by the shard-exchange invariant as a coalescing tripwire.
   */
  uint64_t late_deliveries() const;

 private:
  /** Per-source counters; only the source's runner writes mid-epoch. */
  struct alignas(64) Source {
    uint64_t posted = 0;
    uint64_t allocs = 0;
  };

  /** Per-destination counters; only the destination's runner writes. */
  struct alignas(64) Dest {
    uint64_t delivered = 0;
    uint64_t late = 0;
  };

  /**
   * Computes the next epoch deadline from kernel next-event times and
   * staged run heads (applying coalescing when eligible). Returns false
   * on global quiesce. Coordinator only, runners parked.
   */
  bool PlanEpoch(const RunOptions& options, SimTime& start_out,
                 SimTime& deadline);
  /** Flips non-empty staged mailboxes to inboxes. Runners parked. */
  void SwapMailboxes();
  /**
   * Merges kernel `to`'s inbound runs in canonical (deliver, lane, seq)
   * order straight into the kernel, then clears them. Runs on `to`'s
   * runner at the start of each epoch.
   */
  void DeliverInbox(uint32_t to);
  /** Delivers, then advances kernel `k` to `deadline` (Max = drain). */
  void RunKernel(uint32_t k, SimTime deadline);

  class Runners;  // shard_group.cc: one Advance call's runner threads

  std::vector<Simulator*> kernels_;
  SimTime window_;
  // Double-buffered mailboxes, indexed [from * n + to]. Sources append to
  // staging_ during an epoch (single writer, no lock); the coordinator
  // flips non-empty boxes into inbox_ at the barrier; destinations merge
  // and clear inbox_ during the next epoch. Appends arrive in
  // nondecreasing `deliver` order per box (deliver = t + window with t
  // monotone), so each box is a nearly sorted run.
  std::vector<std::vector<ShardEnvelope>> staging_;
  std::vector<std::vector<ShardEnvelope>> inbox_;
  std::vector<Source> sources_;
  std::vector<Dest> dests_;
  std::vector<std::vector<size_t>> merge_scratch_;  // per-dest run cursors
  uint64_t epochs_ = 0;
  uint64_t coalesced_epochs_ = 0;
  // Advance() pause state: the in-progress epoch's planned deadline. An
  // open epoch has had its mailboxes flipped and (possibly partially) run;
  // it completes — and only then is a new epoch planned — once Advance is
  // called with `until` >= the stored deadline.
  bool epoch_open_ = false;
  SimTime epoch_deadline_;
  // The next barrier time at which the probe fires; Max until the first
  // probed epoch is planned, and again after quiesce.
  SimTime next_probe_ = SimTime::Max();
};

}  // namespace hyperprof::sim

#endif  // HYPERPROF_SIM_SHARD_GROUP_H_
