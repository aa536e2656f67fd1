// ShardGroup unit suite: canonical delivery order, epoch coalescing,
// quiesce with in-flight envelopes, stepped vs one-shot Advance, runner
// error propagation, and the zero-steady-state-allocation guarantee of
// the exchange path.
//
// This binary replaces the global allocator with a counting shim (the
// tracer_memory_test pattern); it must stay its own test executable so
// the override can't leak into other suites.
#include <array>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <random>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/shard_group.h"
#include "sim/simulator.h"

namespace {
std::atomic<uint64_t> g_allocation_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* ptr = std::malloc(size ? size : 1)) return ptr;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }

namespace hyperprof::sim {
namespace {

constexpr SimTime kWindow = SimTime::Micros(500);

/** One delivery observation: (destination clock, lane, seq). */
struct LogEntry {
  int64_t at_nanos;
  uint64_t lane;
  uint64_t seq;
  bool operator==(const LogEntry& other) const {
    return at_nanos == other.at_nanos && lane == other.lane &&
           seq == other.seq;
  }
};

/**
 * A ShardGroup over `n` kernels plus per-destination delivery logs. Each
 * log is only ever appended by its own kernel's runner, so the harness is
 * safe under parallel runs without locks.
 */
struct Harness {
  explicit Harness(size_t n) : logs(n) {
    kernels.reserve(n);
    owned.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      owned.push_back(std::make_unique<Simulator>());
      kernels.push_back(owned.back().get());
    }
    group = std::make_unique<ShardGroup>(kernels, kWindow);
    for (auto& log : logs) log.reserve(4096);
  }

  std::vector<std::unique_ptr<Simulator>> owned;
  std::vector<Simulator*> kernels;
  std::unique_ptr<ShardGroup> group;
  std::vector<std::vector<LogEntry>> logs;
};

/**
 * Posts one hop of a round-robin chain from `from`: the payload logs at
 * the destination and, while hops remain, posts the next hop. Captures
 * stay under 48 bytes, so chain traffic exercises the inline path.
 */
void PostHop(Harness* h, uint32_t from, uint64_t lane, uint64_t seq,
             uint32_t remaining) {
  uint32_t to = (from + 1) % static_cast<uint32_t>(h->kernels.size());
  SimTime deliver = h->kernels[from]->Now() + kWindow;
  h->group->Post(from, to, deliver, lane, seq,
                 [h, to, lane, seq, remaining] {
                   h->logs[to].push_back(
                       {h->kernels[to]->Now().nanos(), lane, seq});
                   if (remaining > 0) PostHop(h, to, lane, seq + 1,
                                              remaining - 1);
                 });
}

/** Same chain, but every payload drags a 96-byte pad into the arena. */
void PostFatHop(Harness* h, uint32_t from, uint64_t lane, uint64_t seq,
                uint32_t remaining) {
  uint32_t to = (from + 1) % static_cast<uint32_t>(h->kernels.size());
  SimTime deliver = h->kernels[from]->Now() + kWindow;
  std::array<unsigned char, 96> pad{};
  pad[0] = static_cast<unsigned char>(seq);
  h->group->Post(from, to, deliver, lane, seq,
                 [h, to, lane, seq, remaining, pad] {
                   h->logs[to].push_back(
                       {h->kernels[to]->Now().nanos(), lane + pad[0] - pad[0],
                        seq});
                   if (remaining > 0) PostFatHop(h, to, lane, seq + 1,
                                                 remaining - 1);
                 });
}

/** Kicks `lanes` chains of `hops` messages each from kernel `from`. */
void StartChains(Harness* h, uint32_t from, uint64_t lanes, uint32_t hops) {
  for (uint64_t lane = 0; lane < lanes; ++lane) {
    h->kernels[from]->ScheduleFlagged(
        SimTime::Micros(static_cast<int64_t>(lane) * 40),
        [h, from, lane, hops] { PostHop(h, from, lane, 0, hops); });
  }
}

/** Unflagged self-ticks every 100us on `kernel`: local work, no posts. */
struct Tick {
  Harness* h;
  uint32_t kernel;
  int left;
  void operator()() {
    if (left-- > 0) h->kernels[kernel]->Schedule(SimTime::Micros(100), *this);
  }
};

TEST(ShardGroupTest, AllocationCounterIsLive) {
  uint64_t before = g_allocation_count.load(std::memory_order_relaxed);
  auto* probe = new std::vector<int>(128);
  uint64_t after = g_allocation_count.load(std::memory_order_relaxed);
  delete probe;
  EXPECT_GT(after, before);
}

// Two sources each post a burst to kernel 0 at the same deliver instant
// with lanes in descending order (adversarial: the staging appends are
// out of canonical order within each run, and the runs interleave), plus
// a second wave one window later. Serial and parallel runs must deliver
// in the identical canonical (deliver, lane, seq) order.
TEST(ShardGroupTest, CanonicalDeliveryUnderAdversarialInterleavings) {
  auto run = [](bool parallel) {
    Harness h(3);
    for (uint32_t src : {1u, 2u}) {
      h.kernels[src]->ScheduleFlagged(SimTime::Zero(), [&h, src] {
        SimTime wave1 = h.kernels[src]->Now() + kWindow;
        SimTime wave2 = wave1 + kWindow;
        // src 1 posts odd lanes, src 2 even lanes, both descending.
        for (uint64_t lane : {5, 3, 1}) {
          uint64_t id = lane - (src == 2 ? 1 : 0);
          h.group->Post(src, 0, wave1, id, 0, [&h, id] {
            h.logs[0].push_back({h.kernels[0]->Now().nanos(), id, 0});
          });
          h.group->Post(src, 0, wave2, id, 1, [&h, id] {
            h.logs[0].push_back({h.kernels[0]->Now().nanos(), id, 1});
          });
        }
      });
    }
    ShardGroup::RunOptions options;
    options.parallel = parallel;
    h.group->Advance(SimTime::Max(), options);
    EXPECT_EQ(h.group->late_deliveries(), 0u);
    EXPECT_EQ(h.group->undelivered(), 0u);
    return h.logs[0];
  };
  std::vector<LogEntry> serial = run(false);
  std::vector<LogEntry> parallel = run(true);
  ASSERT_EQ(serial.size(), 12u);
  EXPECT_EQ(serial, parallel);
  // Canonical order: both waves ascend by lane regardless of post order.
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(serial[i].lane, i) << "wave 1 position " << i;
    EXPECT_EQ(serial[6 + i].lane, i) << "wave 2 position " << i;
  }
}

// A sparse cross-shard workload over a kernel with dense local (never
// posting) activity: window-by-window and coalesced runs must be
// bit-identical in delivery logs, with the coalesced run executing
// strictly fewer epochs.
TEST(ShardGroupTest, CoalescedMatchesWindowByWindow) {
  auto run = [](bool coalesce) {
    Harness h(2);
    // Dense unflagged self-ticks on kernel 0 keep every window non-idle.
    h.kernels[0]->Schedule(SimTime::Zero(), Tick{&h, 0, 400});
    // Kernel 1 pings kernel 0 every 10ms; the pong posts nothing.
    for (int64_t ms : {0, 10, 20, 30}) {
      h.kernels[1]->ScheduleFlagged(SimTime::Millis(ms), [&h, ms] {
        PostHop(&h, 1, static_cast<uint64_t>(ms), 0, 1);
      });
    }
    ShardGroup::RunOptions options;
    if (coalesce) {
      std::vector<Simulator*>* kernels = &h.kernels;
      options.post_horizon = [kernels](uint32_t k) {
        return (*kernels)[k]->flagged_horizon();
      };
    }
    EXPECT_FALSE(h.group->Advance(SimTime::Max(), options));
    uint64_t epochs = h.group->epochs();
    EXPECT_EQ(h.group->late_deliveries(), 0u);
    EXPECT_EQ(h.group->undelivered(), 0u);
    return std::make_tuple(h.logs[0], h.logs[1], epochs,
                           h.group->coalesced_epochs());
  };
  auto [log0_a, log1_a, epochs_a, coalesced_a] = run(false);
  auto [log0_b, log1_b, epochs_b, coalesced_b] = run(true);
  EXPECT_EQ(log0_a, log0_b);
  EXPECT_EQ(log1_a, log1_b);
  EXPECT_EQ(coalesced_a, 0u);
  EXPECT_GT(coalesced_b, 0u);
  EXPECT_LT(epochs_b, epochs_a);
  ASSERT_EQ(log0_a.size(), 4u);  // four pings...
  ASSERT_EQ(log1_a.size(), 4u);  // ...four pongs
}

// Deep ping-pong chains leave envelopes in flight at every barrier; once
// Advance(Max) returns the group must account for all of them and the kernels must be
// fully drained, serial and parallel alike.
TEST(ShardGroupTest, QuiesceWithInFlightEnvelopes) {
  for (bool parallel : {false, true}) {
    Harness h(3);
    StartChains(&h, 0, /*lanes=*/5, /*hops=*/15);
    ShardGroup::RunOptions options;
    options.parallel = parallel;
    h.group->Advance(SimTime::Max(), options);
    // 5 lanes x 16 messages (hop 0..15) each.
    EXPECT_EQ(h.group->messages_posted(), 80u) << "parallel=" << parallel;
    EXPECT_EQ(h.group->messages_delivered(), 80u);
    EXPECT_EQ(h.group->undelivered(), 0u);
    EXPECT_EQ(h.group->late_deliveries(), 0u);
    size_t logged = 0;
    for (const auto& log : h.logs) logged += log.size();
    EXPECT_EQ(logged, 80u);
    for (Simulator* kernel : h.kernels) {
      EXPECT_EQ(kernel->pending_events(), 0u);
      EXPECT_EQ(kernel->cancelled_events(), 0u);
    }
  }
}

TEST(ShardGroupTest, UndeliveredCountsBufferedEnvelopes) {
  Harness h(2);
  h.group->Post(1, 0, kWindow, 7, 0, [&h] {
    h.logs[0].push_back({h.kernels[0]->Now().nanos(), 7, 0});
  });
  EXPECT_EQ(h.group->messages_posted(), 1u);
  EXPECT_EQ(h.group->undelivered(), 1u);
  ShardGroup::RunOptions options;
  h.group->Advance(SimTime::Max(), options);
  EXPECT_EQ(h.group->undelivered(), 0u);
  ASSERT_EQ(h.logs[0].size(), 1u);
}

// Oversized payloads land in per-source arena cells that recycle once the
// payload has run: repeating the identical workload on a warmed-up group
// must add no exchange allocations and no heap allocations at all.
TEST(ShardGroupTest, SteadyStateExchangeAllocatesNothing) {
  Harness h(2);
  ShardGroup::RunOptions options;  // serial: runner threads would allocate
  auto workload = [&h] {
    for (uint64_t lane = 0; lane < 4; ++lane) {
      h.kernels[0]->ScheduleFlagged(
          SimTime::Micros(static_cast<int64_t>(lane) * 40),
          [harness = &h, lane] { PostFatHop(harness, 0, lane, 0, 9); });
    }
  };
  // Warm-up: grows mailboxes, arena cells, kernel slot tables, heaps.
  workload();
  h.group->Advance(SimTime::Max(), options);
  EXPECT_EQ(h.group->messages_delivered(), 40u);
  uint64_t warmed_allocs = h.group->exchange_allocs();
  EXPECT_GT(warmed_allocs, 0u);  // the fat payloads did hit the arena
  size_t warmed_log = h.logs[1].size();

  for (auto& log : h.logs) log.clear();
  uint64_t heap_before = g_allocation_count.load(std::memory_order_relaxed);
  workload();
  h.group->Advance(SimTime::Max(), options);
  uint64_t heap_after = g_allocation_count.load(std::memory_order_relaxed);
  EXPECT_EQ(heap_after - heap_before, 0u);
  EXPECT_EQ(h.group->exchange_allocs(), warmed_allocs);
  EXPECT_EQ(h.logs[1].size(), warmed_log);
  EXPECT_EQ(h.group->undelivered(), 0u);
  EXPECT_EQ(h.group->late_deliveries(), 0u);
}

// The inline path is alloc-free even on the very first run: small-capture
// chains touch only containers, which retain capacity across runs.
TEST(ShardGroupTest, InlinePayloadsSkipTheArena) {
  Harness h(2);
  ShardGroup::RunOptions options;
  StartChains(&h, 0, /*lanes=*/2, /*hops=*/5);
  h.group->Advance(SimTime::Max(), options);
  uint64_t after_first = h.group->exchange_allocs();
  StartChains(&h, 0, /*lanes=*/2, /*hops=*/5);
  h.group->Advance(SimTime::Max(), options);
  // No arena cells and no further container growth on the second run.
  EXPECT_EQ(h.group->exchange_allocs(), after_first);
  EXPECT_EQ(h.group->messages_delivered(), 24u);
}

/** What one run of the mixed workload below leaves behind. */
struct Outcome {
  std::vector<std::vector<LogEntry>> logs;
  uint64_t epochs = 0;
  uint64_t coalesced = 0;
  uint64_t probes = 0;
  bool operator==(const Outcome&) const = default;
};

/**
 * Chains in flight, dense local ticks and sparse pings, with coalescing
 * and a probe on. `step_seed` 0 runs one Advance(Max); any other value
 * advances to random horizons drawn from it, including zero-length steps.
 */
Outcome RunMixed(bool parallel, uint64_t step_seed) {
  Harness h(3);
  StartChains(&h, 0, /*lanes=*/4, /*hops=*/12);
  h.kernels[1]->Schedule(SimTime::Zero(), Tick{&h, 1, 400});
  for (int64_t ms : {0, 10, 20, 30}) {
    h.kernels[2]->ScheduleFlagged(SimTime::Millis(ms), [&h, ms] {
      PostHop(&h, 2, 100 + static_cast<uint64_t>(ms), 0, 1);
    });
  }
  Outcome out;
  ShardGroup::RunOptions options;
  options.parallel = parallel;
  options.post_horizon = [&h](uint32_t k) {
    return h.kernels[k]->flagged_horizon();
  };
  options.probe_period = SimTime::Millis(1);
  options.probe = [&out] { ++out.probes; };
  if (step_seed == 0) {
    EXPECT_FALSE(h.group->Advance(SimTime::Max(), options));
  } else {
    std::mt19937_64 rng(step_seed);
    SimTime horizon = SimTime::Zero();
    do {
      horizon += SimTime::Micros(static_cast<int64_t>(rng() % 3000));
    } while (h.group->Advance(horizon, options));
  }
  EXPECT_EQ(h.group->undelivered(), 0u);
  EXPECT_EQ(h.group->late_deliveries(), 0u);
  for (Simulator* kernel : h.kernels) {
    EXPECT_EQ(kernel->pending_events(), 0u);
    EXPECT_EQ(kernel->cancelled_events(), 0u);
  }
  out.logs = h.logs;
  out.epochs = h.group->epochs();
  out.coalesced = h.group->coalesced_epochs();
  return out;
}

// A pause never becomes a barrier, with or without runner threads:
// advancing to random horizons delivers the same logs, plans the same
// epochs (coalesced ones included) and fires the same probes as one
// serial Advance(Max).
TEST(ShardGroupTest, SteppedParallelAdvanceMatchesOneShot) {
  const Outcome reference = RunMixed(/*parallel=*/false, /*step_seed=*/0);
  EXPECT_GT(reference.coalesced, 0u);  // the coalescing path is exercised
  EXPECT_GT(reference.probes, 1u);
  size_t delivered = 0;
  for (const auto& log : reference.logs) delivered += log.size();
  EXPECT_EQ(delivered, 4u * 13u + 4u * 2u);  // chains + pings and pongs
  EXPECT_EQ(RunMixed(/*parallel=*/true, /*step_seed=*/0), reference);
  for (uint64_t step_seed : {1u, 2u, 3u}) {
    for (bool parallel : {false, true}) {
      EXPECT_EQ(RunMixed(parallel, step_seed), reference)
          << "step_seed=" << step_seed << " parallel=" << parallel;
    }
  }
}

// An event that throws on a runner's kernel (kernel 0) or on the calling
// thread's kernel (the last) surfaces from Advance. Destroying a joinable
// std::thread terminates the process, so reaching the end of each round
// shows that every runner was joined.
TEST(ShardGroupTest, RunnerExceptionPropagates) {
  for (uint32_t thrower : {0u, 2u}) {
    Harness h(3);
    StartChains(&h, 0, /*lanes=*/4, /*hops=*/12);  // every kernel busy
    h.kernels[thrower]->Schedule(SimTime::Millis(2), [thrower] {
      throw std::runtime_error("kernel " + std::to_string(thrower));
    });
    ShardGroup::RunOptions options;
    options.parallel = true;
    try {
      h.group->Advance(SimTime::Max(), options);
      ADD_FAILURE() << "Advance returned; kernel " << thrower << " threw";
    } catch (const std::runtime_error& error) {
      EXPECT_EQ(std::string(error.what()), "kernel " + std::to_string(thrower));
    }
  }
}

}  // namespace
}  // namespace hyperprof::sim
