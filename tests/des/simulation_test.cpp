#include "des/simulation.h"

#include <gtest/gtest.h>

#include <vector>

namespace mrcp::des {
namespace {

TEST(Simulation, StartsAtZeroAndEmpty) {
  Simulation sim;
  EXPECT_EQ(sim.now(), Time{0});
  EXPECT_TRUE(sim.empty());
}

TEST(Simulation, ProcessesEventsInTimeOrder) {
  Simulation sim;
  std::vector<int> fired;
  sim.schedule_at(Time{30}, [&] { fired.push_back(3); });
  sim.schedule_at(Time{10}, [&] { fired.push_back(1); });
  sim.schedule_at(Time{20}, [&] { fired.push_back(2); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), Time{30});
}

TEST(Simulation, TiesBreakFifo) {
  Simulation sim;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(Time{5}, [&, i] { fired.push_back(i); });
  }
  sim.run();
  std::vector<int> expected(10);
  for (int i = 0; i < 10; ++i) expected[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(fired, expected);
}

TEST(Simulation, ScheduleAfterUsesCurrentTime) {
  Simulation sim;
  Time observed = Time{-1};
  sim.schedule_at(Time{100}, [&] {
    sim.schedule_after(Time{50}, [&] { observed = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(observed, Time{150});
}

TEST(Simulation, EventsScheduledDuringRunAreProcessed) {
  Simulation sim;
  int count = 0;
  std::function<void()> chain = [&] {
    ++count;
    if (count < 5) sim.schedule_after(Time{10}, chain);
  };
  sim.schedule_at(Time{0}, chain);
  sim.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.now(), Time{40});
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation sim;
  bool fired = false;
  EventHandle h = sim.schedule_at(Time{10}, [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  EXPECT_TRUE(sim.cancel(h));
  EXPECT_FALSE(h.pending());
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.stats().cancelled, 1u);
  EXPECT_EQ(sim.stats().skipped_cancelled, 1u);
}

TEST(Simulation, DoubleCancelIsNoop) {
  Simulation sim;
  EventHandle h = sim.schedule_at(Time{10}, [] {});
  EXPECT_TRUE(sim.cancel(h));
  EXPECT_FALSE(sim.cancel(h));
}

TEST(Simulation, CancelAfterFireIsNoop) {
  Simulation sim;
  EventHandle h = sim.schedule_at(Time{10}, [] {});
  sim.run();
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(sim.cancel(h));
}

TEST(Simulation, DefaultHandleIsInvalid) {
  EventHandle h;
  EXPECT_FALSE(h.valid());
  EXPECT_FALSE(h.pending());
  Simulation sim;
  EXPECT_FALSE(sim.cancel(h));
}

TEST(Simulation, RunUntilStopsAtBoundaryInclusive) {
  Simulation sim;
  std::vector<Time> fired;
  sim.schedule_at(Time{10}, [&] { fired.push_back(Time{10}); });
  sim.schedule_at(Time{20}, [&] { fired.push_back(Time{20}); });
  sim.schedule_at(Time{30}, [&] { fired.push_back(Time{30}); });
  sim.run(Time{20});
  EXPECT_EQ(fired, (std::vector<Time>{Time{10}, Time{20}}));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(fired.size(), 3u);
}

TEST(Simulation, StepProcessesOneEvent) {
  Simulation sim;
  int count = 0;
  sim.schedule_at(Time{1}, [&] { ++count; });
  sim.schedule_at(Time{2}, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulation, RequestStopHaltsRun) {
  Simulation sim;
  int count = 0;
  sim.schedule_at(Time{1}, [&] {
    ++count;
    sim.request_stop();
  });
  sim.schedule_at(Time{2}, [&] { ++count; });
  sim.run();
  EXPECT_EQ(count, 1);
  sim.run();  // resumes
  EXPECT_EQ(count, 2);
}

TEST(Simulation, RequestStopBeforeRunHaltsBeforeFirstEvent) {
  Simulation sim;
  int count = 0;
  sim.schedule_at(Time{1}, [&] { ++count; });
  sim.request_stop();
  sim.run();
  EXPECT_EQ(count, 0);
  EXPECT_EQ(sim.now(), Time{0});
  sim.run();  // the stop request was consumed by the first run()
  EXPECT_EQ(count, 1);
}

TEST(Simulation, CancelDuringOwnCallbackIsNoop) {
  Simulation sim;
  EventHandle h;
  bool cancel_result = true;
  h = sim.schedule_at(Time{10}, [&] {
    // The event is firing right now — it is no longer cancellable.
    cancel_result = sim.cancel(h);
  });
  sim.run();
  EXPECT_FALSE(cancel_result);
  EXPECT_EQ(sim.stats().fired, 1u);
  EXPECT_EQ(sim.stats().cancelled, 0u);
}

TEST(Simulation, CancelFiredHandleDoesNotAffectLaterEvents) {
  Simulation sim;
  int count = 0;
  EventHandle h = sim.schedule_at(Time{1}, [&] { ++count; });
  sim.schedule_at(Time{2}, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.cancel(h));  // already fired
  sim.run();
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.stats().cancelled, 0u);
}

TEST(Simulation, StatsCountScheduledAndFired) {
  Simulation sim;
  for (int i = 0; i < 5; ++i) sim.schedule_at(Time{i}, [] {});
  sim.run();
  EXPECT_EQ(sim.stats().scheduled, 5u);
  EXPECT_EQ(sim.stats().fired, 5u);
}

TEST(Simulation, PendingCountTracksQueue) {
  Simulation sim;
  EventHandle h1 = sim.schedule_at(Time{1}, [] {});
  sim.schedule_at(Time{2}, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.cancel(h1);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulation, ManyEventsStressOrdering) {
  Simulation sim;
  Time last = Time{-1};
  bool monotonic = true;
  for (int i = 0; i < 10000; ++i) {
    // Scatter times via a fixed mixing of i.
    const Time t = (static_cast<Time>(i) * 2654435761U) % Time{100000};
    sim.schedule_at(t, [&, t] {
      if (t < last) monotonic = false;
      last = t;
    });
  }
  sim.run();
  EXPECT_TRUE(monotonic);
  EXPECT_EQ(sim.stats().fired, 10000u);
}

TEST(Simulation, SameTickScheduleNowIsAllowed) {
  Simulation sim;
  bool inner = false;
  sim.schedule_at(Time{5}, [&] { sim.schedule_at(Time{5}, [&] { inner = true; }); });
  sim.run();
  EXPECT_TRUE(inner);
}

// Freed slots are handed out again (last freed, first reused), so the
// events below land in the slot of the one cancelled or fired before
// them. A handle to the old event must not see the new one.
TEST(Simulation, StaleHandleOfReusedSlotIsNotPending) {
  Simulation sim;
  int old_fired = 0;
  int new_fired = 0;
  EventHandle old_event = sim.schedule_at(Time{10}, [&] { ++old_fired; });
  ASSERT_TRUE(sim.cancel(old_event));
  EventHandle new_event = sim.schedule_at(Time{10}, [&] { ++new_fired; });
  EXPECT_FALSE(old_event.pending());
  EXPECT_TRUE(new_event.pending());
  EXPECT_FALSE(sim.cancel(old_event));
  EXPECT_TRUE(new_event.pending());
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(old_fired, 0);
  EXPECT_EQ(new_fired, 1);
  EXPECT_EQ(sim.stats().cancelled, 1u);
}

TEST(Simulation, StaleHandleOfFiredEventIgnoresSlotsNewEvent) {
  Simulation sim;
  int fired = 0;
  EventHandle first = sim.schedule_at(Time{1}, [&] { ++fired; });
  ASSERT_TRUE(sim.step());
  EventHandle second = sim.schedule_at(Time{2}, [&] { ++fired; });
  EXPECT_FALSE(first.pending());
  EXPECT_FALSE(sim.cancel(first));
  EXPECT_TRUE(second.pending());
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, CallbackCancellingItselfAfterSlotReuseGetsFalse) {
  // The firing event's slot is released before its callback runs, so an
  // event the callback schedules takes that slot; cancelling the firing
  // event's own handle must neither succeed nor touch the new event.
  Simulation sim;
  EventHandle self;
  EventHandle next;
  bool cancel_result = true;
  bool next_fired = false;
  self = sim.schedule_at(Time{10}, [&] {
    next = sim.schedule_at(Time{20}, [&] { next_fired = true; });
    cancel_result = sim.cancel(self);
  });
  sim.run();
  EXPECT_FALSE(cancel_result);
  EXPECT_TRUE(next_fired);
  EXPECT_EQ(sim.stats().cancelled, 0u);
  EXPECT_EQ(sim.stats().fired, 2u);
}

TEST(Simulation, HandleCopiesAgreeAfterCancel) {
  Simulation sim;
  const EventHandle original = sim.schedule_at(Time{10}, [] {});
  EventHandle copy = original;
  EventHandle other = original;
  EXPECT_TRUE(sim.cancel(copy));
  EXPECT_FALSE(original.pending());
  EXPECT_FALSE(copy.pending());
  EXPECT_FALSE(other.pending());
  EXPECT_FALSE(sim.cancel(other));
  EXPECT_EQ(sim.stats().cancelled, 1u);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulation, SeqAndTimeOutliveFireAndCancel) {
  Simulation sim;
  const EventHandle fired = sim.schedule_at(Time{10}, [] {});
  EventHandle cancelled = sim.schedule_at(Time{20}, [] {});
  ASSERT_TRUE(sim.cancel(cancelled));
  sim.run();
  // Both slots are free now; a new event reuses one with a fresh seq.
  const EventHandle later = sim.schedule_at(Time{30}, [] {});
  EXPECT_EQ(fired.seq(), 0u);
  EXPECT_EQ(fired.time(), Time{10});
  EXPECT_EQ(cancelled.seq(), 1u);
  EXPECT_EQ(cancelled.time(), Time{20});
  EXPECT_EQ(later.seq(), 2u);
  EXPECT_EQ(later.time(), Time{30});
}

TEST(Simulation, CancelRescheduleChurnKeepsCounts) {
  // Ten events at 100..109; five rounds cancel the first five and
  // reschedule them at 200 + 10 * round + i. That leaves 25 stale heap
  // entries (at 100..104 and 200..234) and ten live events (105..109 and
  // 240..244).
  Simulation sim;
  std::vector<Time> fired;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 10; ++i) {
    const Time t{100 + i};
    handles.push_back(sim.schedule_at(t, [&fired, t] { fired.push_back(t); }));
  }
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 5; ++i) {
      EventHandle& h = handles[static_cast<std::size_t>(i)];
      ASSERT_TRUE(sim.cancel(h));
      const Time t{200 + 10 * round + i};
      h = sim.schedule_at(t, [&fired, t] { fired.push_back(t); });
    }
  }
  EXPECT_EQ(sim.pending_events(), 10u);
  EXPECT_EQ(sim.stats().scheduled, 35u);
  EXPECT_EQ(sim.stats().cancelled, 25u);
  EXPECT_EQ(sim.stats().fired, 0u);
  EXPECT_EQ(sim.stats().skipped_cancelled, 0u);

  sim.run(Time{150});
  EXPECT_EQ(sim.pending_events(), 5u);
  EXPECT_EQ(sim.stats().fired, 5u);
  EXPECT_EQ(sim.stats().skipped_cancelled, 5u);

  sim.run();
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.stats().scheduled, 35u);
  EXPECT_EQ(sim.stats().cancelled, 25u);
  EXPECT_EQ(sim.stats().fired, 10u);
  EXPECT_EQ(sim.stats().skipped_cancelled, 25u);
  const std::vector<Time> expected = {
      Time{105}, Time{106}, Time{107}, Time{108}, Time{109},
      Time{240}, Time{241}, Time{242}, Time{243}, Time{244}};
  EXPECT_EQ(fired, expected);
}

}  // namespace
}  // namespace mrcp::des
