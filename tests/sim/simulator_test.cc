#include "sim/simulator.h"

#include <memory>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace hyperprof::sim {
namespace {

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator simulator;
  std::vector<int> order;
  simulator.Schedule(SimTime::Micros(30), [&] { order.push_back(3); });
  simulator.Schedule(SimTime::Micros(10), [&] { order.push_back(1); });
  simulator.Schedule(SimTime::Micros(20), [&] { order.push_back(2); });
  simulator.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(simulator.Now(), SimTime::Micros(30));
}

TEST(SimulatorTest, SameTimeFiresInScheduleOrder) {
  Simulator simulator;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    simulator.Schedule(SimTime::Micros(1), [&order, i] {
      order.push_back(i);
    });
  }
  simulator.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator simulator;
  int fired = 0;
  simulator.Schedule(SimTime::Micros(1), [&] {
    ++fired;
    simulator.Schedule(SimTime::Micros(1), [&] { ++fired; });
  });
  uint64_t ran = simulator.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(ran, 2u);
  EXPECT_EQ(simulator.Now(), SimTime::Micros(2));
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator simulator;
  simulator.Schedule(SimTime::Micros(5), [] {});
  simulator.Run();
  bool fired = false;
  simulator.Schedule(SimTime::Micros(-10), [&] { fired = true; });
  simulator.Run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(simulator.Now(), SimTime::Micros(5));
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator simulator;
  bool fired = false;
  EventId id = simulator.Schedule(SimTime::Micros(1), [&] { fired = true; });
  EXPECT_TRUE(simulator.Cancel(id));
  simulator.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelInvalidIdReturnsFalse) {
  Simulator simulator;
  EXPECT_FALSE(simulator.Cancel(EventId{}));
  EXPECT_FALSE(simulator.Cancel(EventId{9999}));
}

TEST(SimulatorTest, CancelTwiceReturnsFalse) {
  Simulator simulator;
  EventId id = simulator.Schedule(SimTime::Micros(1), [] {});
  EXPECT_TRUE(simulator.Cancel(id));
  EXPECT_FALSE(simulator.Cancel(id));
  simulator.Run();
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator simulator;
  std::vector<int> fired;
  simulator.Schedule(SimTime::Micros(10), [&] { fired.push_back(1); });
  simulator.Schedule(SimTime::Micros(20), [&] { fired.push_back(2); });
  simulator.Schedule(SimTime::Micros(30), [&] { fired.push_back(3); });
  simulator.RunUntil(SimTime::Micros(20));
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(simulator.Now(), SimTime::Micros(20));
  simulator.Run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, RunUntilAdvancesClockWhenIdle) {
  Simulator simulator;
  simulator.RunUntil(SimTime::Millis(5));
  EXPECT_EQ(simulator.Now(), SimTime::Millis(5));
}

TEST(SimulatorTest, EventCountersTrack) {
  Simulator simulator;
  for (int i = 0; i < 10; ++i) {
    simulator.Schedule(SimTime::Micros(i), [] {});
  }
  EXPECT_EQ(simulator.pending_events(), 10u);
  simulator.Run();
  EXPECT_EQ(simulator.events_executed(), 10u);
  EXPECT_EQ(simulator.pending_events(), 0u);
}

TEST(SimulatorTest, PendingCountsOnlyLiveEvents) {
  Simulator simulator;
  std::vector<EventId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(simulator.Schedule(SimTime::Micros(i + 1), [] {}));
  }
  EXPECT_EQ(simulator.pending_events(), 6u);
  EXPECT_EQ(simulator.cancelled_events(), 0u);
  simulator.Cancel(ids[0]);
  simulator.Cancel(ids[3]);
  // Cancelled tombstones no longer inflate the live count.
  EXPECT_EQ(simulator.pending_events(), 4u);
  EXPECT_EQ(simulator.cancelled_events(), 2u);
  uint64_t ran = simulator.Run();
  EXPECT_EQ(ran, 4u);
  EXPECT_EQ(simulator.pending_events(), 0u);
  EXPECT_EQ(simulator.cancelled_events(), 0u);
}

TEST(SimulatorTest, CancelledIdStaysInvalidAfterSlotReuse) {
  Simulator simulator;
  bool old_fired = false;
  bool new_fired = false;
  EventId old_id =
      simulator.Schedule(SimTime::Micros(5), [&] { old_fired = true; });
  ASSERT_TRUE(simulator.Cancel(old_id));
  // The new event recycles the cancelled slot; the stale id must not be
  // able to cancel it.
  simulator.Schedule(SimTime::Micros(6), [&] { new_fired = true; });
  EXPECT_FALSE(simulator.Cancel(old_id));
  simulator.Run();
  EXPECT_FALSE(old_fired);
  EXPECT_TRUE(new_fired);
}

TEST(SimulatorTest, CancelFromInsideOwnCallbackReturnsFalse) {
  Simulator simulator;
  bool cancel_result = true;
  EventId id;
  id = simulator.Schedule(SimTime::Micros(1),
                          [&] { cancel_result = simulator.Cancel(id); });
  simulator.Run();
  EXPECT_FALSE(cancel_result);
}

TEST(SimulatorTest, MoveOnlyCallbacksAreSupported) {
  Simulator simulator;
  auto payload = std::make_unique<int>(41);
  int seen = 0;
  simulator.Schedule(SimTime::Micros(1),
                     [payload = std::move(payload), &seen] {
                       seen = *payload + 1;
                     });
  simulator.Run();
  EXPECT_EQ(seen, 42);
}

TEST(SimulatorTest, LargeCapturesSurviveSlotRecycling) {
  // Captures past the inline buffer take the heap fallback; interleave
  // scheduling, cancelling, and firing to exercise slot churn.
  Simulator simulator;
  struct Big {
    char bytes[96];
  };
  Big big{};
  big.bytes[95] = 7;
  int total = 0;
  for (int round = 0; round < 50; ++round) {
    EventId doomed = simulator.Schedule(SimTime::Micros(round), [] {});
    simulator.Schedule(SimTime::Micros(round),
                       [big, &total] { total += big.bytes[95]; });
    simulator.Cancel(doomed);
  }
  simulator.Run();
  EXPECT_EQ(total, 50 * 7);
}

TEST(SimulatorTest, DrainedKernelRetainsHeapCapacityAcrossRuns) {
  Simulator simulator;
  simulator.Reserve(1024);
  for (int wave = 0; wave < 3; ++wave) {
    for (int i = 0; i < 1000; ++i) {
      simulator.Schedule(SimTime::Micros(i), [] {});
    }
    simulator.Run();
    EXPECT_EQ(simulator.pending_events(), 0u);
  }
  EXPECT_EQ(simulator.events_executed(), 3000u);
}

TEST(SimulatorTest, ScheduleAtPastClampsToNow) {
  Simulator simulator;
  simulator.Schedule(SimTime::Micros(10), [] {});
  simulator.Run();
  SimTime fired_at;
  simulator.ScheduleAt(SimTime::Micros(3),
                       [&] { fired_at = simulator.Now(); });
  simulator.Run();
  EXPECT_EQ(fired_at, SimTime::Micros(10));
}

TEST(SimulatorTest, FlaggedHorizonTracksEarliestPendingFlagged) {
  Simulator simulator;
  EXPECT_EQ(simulator.flagged_horizon(), SimTime::Max());
  simulator.Schedule(SimTime::Micros(1), [] {});  // unflagged: invisible
  EXPECT_EQ(simulator.flagged_horizon(), SimTime::Max());
  simulator.ScheduleFlagged(SimTime::Micros(20), [] {});
  EventId early = simulator.ScheduleFlagged(SimTime::Micros(5), [] {});
  EXPECT_EQ(simulator.flagged_horizon(), SimTime::Micros(5));
  simulator.Cancel(early);  // pruned lazily at the next query
  EXPECT_EQ(simulator.flagged_horizon(), SimTime::Micros(20));
  simulator.Run();
  EXPECT_EQ(simulator.flagged_horizon(), SimTime::Max());
}

TEST(SimulatorTest, FlaggedEventsFireInScheduleOrderWithUnflagged) {
  Simulator simulator;
  std::vector<int> order;
  simulator.Schedule(SimTime::Micros(7), [&] { order.push_back(1); });
  simulator.ScheduleFlagged(SimTime::Micros(7), [&] { order.push_back(2); });
  simulator.ScheduleFlaggedAt(SimTime::Micros(7),
                              [&] { order.push_back(3); });
  simulator.Schedule(SimTime::Micros(7), [&] { order.push_back(4); });
  simulator.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(SimulatorTest, FlaggedHeapCompactsAcrossRepeatedDrains) {
  Simulator simulator;
  for (int wave = 0; wave < 100; ++wave) {
    for (int i = 0; i < 50; ++i) {
      simulator.ScheduleFlagged(SimTime::Micros(i), [] {});
    }
    simulator.Run();
  }
  // Stale entries are compacted in place, so the flagged bookkeeping
  // stays proportional to pending events, not total ever scheduled.
  EXPECT_LT(simulator.memory_bytes(), 64 * 1024u);
}

/** One fired event and the kernel's view right after its callback. */
struct FiredRecord {
  uint64_t label;
  SimTime now;
  SimTime next;
  SimTime horizon;
  int cancelled;  // -1 no cancel attempted, else Cancel()'s result
  bool operator==(const FiredRecord& o) const {
    return std::tie(label, now, next, horizon, cancelled) ==
           std::tie(o.label, o.now, o.next, o.horizon, o.cancelled);
  }
};

/**
 * A randomized script run either with its known-ahead stream scheduled
 * up front (the reference) or fed through one self-rescheduling cursor
 * per flag class on orders reserved up front. Labels 0..K-1 are stream
 * events; ordinary events are labelled K, K+1, ... in creation order.
 * Each event's reaction (children with zero or small delays, flagged or
 * not, and cancels of earlier ordinary events) is a function of its
 * label, so both runs build the same events if they fire in the same
 * order.
 */
class ScriptRun {
 public:
  struct StreamEvent {
    SimTime when;
    bool flagged;
  };

  ScriptRun(uint64_t seed, const std::vector<StreamEvent>& stream,
            bool cursors)
      : seed_(seed), stream_(stream), cursors_(cursors) {}

  std::vector<FiredRecord> Run() {
    // Ordinary events scheduled before and after the stream straddle its
    // orders.
    for (int i = 0; i < 3; ++i) AddOrdinary(SimTime::Micros(i * 7), i == 1);
    if (cursors_) {
      first_order_ = sim_.ReserveOrders(stream_.size());
      for (int cls = 0; cls < 2; ++cls) ScheduleNext(cls);
    } else {
      for (uint64_t i = 0; i < stream_.size(); ++i) {
        auto fn = [this, i] { Fire(i); };
        if (stream_[i].flagged) {
          sim_.ScheduleFlaggedAt(stream_[i].when, fn);
        } else {
          sim_.ScheduleAt(stream_[i].when, fn);
        }
      }
    }
    for (int i = 0; i < 3; ++i) AddOrdinary(SimTime::Micros(i * 5), i == 2);
    // Step one instant at a time and check the view between steps too.
    while (sim_.next_event_time() != SimTime::Max()) {
      sim_.RunUntil(sim_.next_event_time());
      log_.push_back({~uint64_t{0}, sim_.Now(), sim_.next_event_time(),
                      sim_.flagged_horizon(), -1});
    }
    return log_;
  }

 private:
  void AddOrdinary(SimTime delay, bool flagged) {
    uint64_t label = stream_.size() + ids_.size();
    auto fn = [this, label] { Fire(label); };
    ids_.push_back(flagged ? sim_.ScheduleFlagged(delay, fn)
                           : sim_.Schedule(delay, fn));
  }

  void ScheduleNext(int cls) {
    uint64_t& i = next_[cls];
    while (i < stream_.size() && stream_[i].flagged != (cls == 1)) ++i;
    if (i == stream_.size()) return;
    uint64_t label = i++;
    sim_.ScheduleReservedAt(
        stream_[label].when, first_order_ + label,
        [this, cls, label] {
          ScheduleNext(cls);
          Fire(label);
        },
        cls == 1);
  }

  void Fire(uint64_t label) {
    Rng rng(seed_ * 0x9e3779b97f4a7c15ULL + label + 1);
    uint64_t children = rng.NextBounded(3);
    for (uint64_t c = 0; c < children && ids_.size() < 400; ++c) {
      AddOrdinary(SimTime::Micros(static_cast<int64_t>(rng.NextBounded(4))),
                  rng.NextBool(0.3));
    }
    int cancelled = -1;
    if (rng.NextBool(0.25)) {
      cancelled = sim_.Cancel(ids_[rng.NextBounded(ids_.size())]) ? 1 : 0;
    }
    log_.push_back({label, sim_.Now(), sim_.next_event_time(),
                    sim_.flagged_horizon(), cancelled});
  }

  Simulator sim_;
  uint64_t seed_;
  const std::vector<StreamEvent>& stream_;
  bool cursors_;
  uint64_t first_order_ = 0;
  uint64_t next_[2] = {0, 0};
  std::vector<EventId> ids_;  // ordinary events, by label - K
  std::vector<FiredRecord> log_;
};

TEST(SimulatorTest, ReservedOrdersFireLikeEagerSchedule) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    // Seeds 5, 10, ... leave the flagged class empty.
    double flagged_p = seed % 5 == 0 ? 0.0 : 0.4;
    std::vector<ScriptRun::StreamEvent> stream;
    SimTime when = SimTime::Micros(2);
    for (int i = 0; i < 200; ++i) {
      // Gaps of 0-2 us: many same-instant ties within the stream and
      // with the ordinary events.
      when += SimTime::Micros(static_cast<int64_t>(rng.NextBounded(3)));
      stream.push_back({when, rng.NextBool(flagged_p)});
    }
    std::vector<FiredRecord> eager = ScriptRun(seed, stream, false).Run();
    std::vector<FiredRecord> cursor = ScriptRun(seed, stream, true).Run();
    ASSERT_GT(eager.size(), 2 * stream.size());
    ASSERT_EQ(cursor.size(), eager.size());
    for (size_t i = 0; i < eager.size(); ++i) {
      ASSERT_EQ(cursor[i], eager[i]) << "step " << i << " label "
                                     << eager[i].label;
    }
  }
}

}  // namespace
}  // namespace hyperprof::sim
