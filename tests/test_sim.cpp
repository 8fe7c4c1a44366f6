#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <vector>

#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace erms::sim {
namespace {

TEST(SimTime, ArithmeticAndConversion) {
  const SimTime t{2'500'000};
  EXPECT_DOUBLE_EQ(t.seconds(), 2.5);
  EXPECT_EQ((t + seconds(1.5)).micros(), 4'000'000);
  EXPECT_EQ((t - seconds(0.5)).micros(), 2'000'000);
  EXPECT_EQ((SimTime{5'000'000} - t).micros(), 2'500'000);
}

TEST(SimTime, DurationHelpers) {
  EXPECT_EQ(micros(7).micros(), 7);
  EXPECT_EQ(millis(3).micros(), 3000);
  EXPECT_EQ(seconds(2.0).micros(), 2'000'000);
  EXPECT_EQ(minutes(1.0).micros(), 60'000'000);
  EXPECT_EQ(hours(1.0).micros(), 3'600'000'000ll);
}

TEST(SimTime, Comparisons) {
  EXPECT_LT(SimTime{1}, SimTime{2});
  EXPECT_LE(SimTime{2}, SimTime{2});
  EXPECT_GT(seconds(2.0), seconds(1.0));
}

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(SimTime{30}, [&] { fired.push_back(3); });
  q.schedule(SimTime{10}, [&] { fired.push_back(1); });
  q.schedule(SimTime{20}, [&] { fired.push_back(2); });
  while (!q.empty()) {
    q.pop().fn();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakBySequence) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(SimTime{10}, [&] { fired.push_back(1); });
  q.schedule(SimTime{10}, [&] { fired.push_back(2); });
  q.schedule(SimTime{10}, [&] { fired.push_back(3); });
  while (!q.empty()) {
    q.pop().fn();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, CancelSkipsEvent) {
  EventQueue q;
  int fired = 0;
  EventHandle h = q.schedule(SimTime{10}, [&] { ++fired; });
  q.schedule(SimTime{20}, [&] { ++fired; });
  h.cancel();
  while (!q.empty()) {
    q.pop().fn();
  }
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, EmptyAfterAllCancelled) {
  EventQueue q;
  EventHandle h = q.schedule(SimTime{10}, [] {});
  EXPECT_FALSE(q.empty());
  h.cancel();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, HandlePendingLifecycle) {
  EventQueue q;
  EventHandle h = q.schedule(SimTime{10}, [] {});
  EXPECT_TRUE(h.pending());
  q.pop().fn();
  EXPECT_FALSE(h.pending());
  EXPECT_NO_FATAL_FAILURE(h.cancel());  // cancel after fire is a no-op
}

TEST(EventQueue, StaleHandleCannotCancelReusedSlot) {
  EventQueue q;
  std::vector<int> fired;
  EventHandle stale = q.schedule(SimTime{10}, [&] { fired.push_back(1); });
  q.pop().fn();
  // The freed slot is reused by the next schedule; the old handle's
  // generation no longer matches it.
  EventHandle fresh = q.schedule(SimTime{20}, [&] { fired.push_back(2); });
  EXPECT_FALSE(stale.pending());
  stale.cancel();
  EXPECT_TRUE(fresh.pending());
  EventHandle cancelled = q.schedule(SimTime{30}, [&] { fired.push_back(3); });
  cancelled.cancel();
  EventHandle reuser = q.schedule(SimTime{40}, [&] { fired.push_back(4); });
  cancelled.cancel();
  EXPECT_TRUE(reuser.pending());
  while (!q.empty()) {
    q.pop().fn();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 4}));
}

TEST(EventQueue, CancelAfterFireAndDoubleCancelAreNoOps) {
  EventQueue q;
  int fired = 0;
  EventHandle done = q.schedule(SimTime{1}, [&] { ++fired; });
  EventHandle twice = q.schedule(SimTime{2}, [&] { ++fired; });
  EventHandle copy = twice;
  q.schedule(SimTime{3}, [&] { ++fired; });
  q.pop().fn();
  done.cancel();
  done.cancel();
  twice.cancel();
  EXPECT_FALSE(copy.pending());  // cancelled through the other copy
  copy.cancel();
  twice.cancel();
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) {
    q.pop().fn();
  }
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, CancelSameTimeEventFromCallback) {
  Simulation sim;
  std::vector<int> fired;
  EventHandle second;
  EventHandle third;
  sim.schedule_at(SimTime{10}, [&] {
    fired.push_back(1);
    second.cancel();
    EXPECT_FALSE(second.pending());
    EXPECT_TRUE(third.pending());
  });
  second = sim.schedule_at(SimTime{10}, [&] { fired.push_back(2); });
  third = sim.schedule_at(SimTime{10}, [&] { fired.push_back(3); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(EventQueue, HandleOutlivesSimulation) {
  EventHandle handle;
  EventHandle fired_handle;
  {
    Simulation sim;
    handle = sim.schedule_after(seconds(1.0), [] {});
    fired_handle = sim.schedule_after(seconds(0.5), [] {});
    sim.run_until(SimTime{seconds(0.75).micros()});
    EXPECT_TRUE(handle.pending());
  }
  // The arena is gone: both handles are inert, and cancel must not touch
  // freed memory (ASan builds check this).
  EXPECT_FALSE(handle.pending());
  handle.cancel();
  fired_handle.cancel();
  EXPECT_FALSE(handle.pending());
}

TEST(EventQueue, CancelDestroysCallbackThatOwnsTheHandle) {
  EventQueue q;
  // The callback holds the only reference to the handle cancelling it, so
  // dropping the callback frees the handle mid-cancel.
  auto self = std::make_shared<EventHandle>();
  EventHandle* raw = self.get();
  *self = q.schedule(SimTime{5}, [self] {});
  self.reset();
  raw->cancel();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DroppedCallbackMayCancelOtherEvents) {
  EventQueue q;
  int fired = 0;
  EventHandle victim = q.schedule(SimTime{20}, [&] { ++fired; });
  // Destroying the first callback cancels `victim` from inside cancel().
  struct CancelOnDestroy {
    EventHandle* target;
    ~CancelOnDestroy() { target->cancel(); }
  };
  auto guard = std::make_shared<CancelOnDestroy>(CancelOnDestroy{&victim});
  EventHandle first = q.schedule(SimTime{10}, [guard] {});
  guard.reset();
  q.schedule(SimTime{30}, [&] { ++fired; });
  first.cancel();
  EXPECT_FALSE(victim.pending());
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) {
    q.pop().fn();
  }
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, PopOrderMatchesSortedReference) {
  // Interleaved schedules, cancels and pops against a brute-force list of
  // live (time, seq) keys: every pop must return the smallest live key.
  EventQueue q;
  std::mt19937_64 rng{42};
  struct Live {
    std::int64_t time;
    std::uint64_t seq;
    EventHandle handle;
  };
  std::vector<Live> live;
  std::uint64_t seq = 0;
  std::uint64_t popped_seq = 0;
  std::int64_t floor = 0;  // pops never go back in time, like a Simulation
  for (int step = 0; step < 20000; ++step) {
    const auto op = rng() % 10;
    if (op < 5 || live.empty()) {
      // Few distinct times, so (time, seq) ties are the common case.
      const std::int64_t at = floor + static_cast<std::int64_t>(rng() % 16);
      const std::uint64_t s = seq++;
      live.push_back({at, s, q.schedule(SimTime{at}, [&popped_seq, s] { popped_seq = s; })});
    } else if (op < 8) {
      const std::size_t i = rng() % live.size();
      live[i].handle.cancel();
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      const auto min = std::min_element(live.begin(), live.end(), [](const Live& a, const Live& b) {
        return a.time != b.time ? a.time < b.time : a.seq < b.seq;
      });
      ASSERT_FALSE(q.empty());
      ASSERT_EQ(q.next_time().micros(), min->time);
      EventQueue::Fired fired = q.pop();
      fired.fn();
      ASSERT_EQ(fired.time.micros(), min->time);
      ASSERT_EQ(popped_seq, min->seq);
      ASSERT_FALSE(min->handle.pending());
      floor = min->time;
      live.erase(min);
    }
    ASSERT_EQ(q.size(), live.size());
  }
  std::sort(live.begin(), live.end(), [](const Live& a, const Live& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  });
  for (const Live& want : live) {
    ASSERT_TRUE(want.handle.pending());
    EventQueue::Fired fired = q.pop();
    fired.fn();
    ASSERT_EQ(fired.time.micros(), want.time);
    ASSERT_EQ(popped_seq, want.seq);
  }
  EXPECT_TRUE(q.empty());
}

TEST(Simulation, ClockAdvancesToEventTime) {
  Simulation sim;
  SimTime seen;
  sim.schedule_after(seconds(5.0), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, SimTime{5'000'000});
  EXPECT_EQ(sim.now(), SimTime{5'000'000});
}

TEST(Simulation, NestedScheduling) {
  Simulation sim;
  std::vector<double> times;
  sim.schedule_after(seconds(1.0), [&] {
    times.push_back(sim.now().seconds());
    sim.schedule_after(seconds(1.0), [&] { times.push_back(sim.now().seconds()); });
  });
  sim.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 2.0);
}

TEST(Simulation, RunUntilStopsAtDeadline) {
  Simulation sim;
  int fired = 0;
  sim.schedule_after(seconds(1.0), [&] { ++fired; });
  sim.schedule_after(seconds(10.0), [&] { ++fired; });
  sim.run_until(SimTime{5'000'000});
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), SimTime{5'000'000});
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, RunUntilAdvancesClockPastEmptyQueue) {
  Simulation sim;
  sim.run_until(SimTime{42});
  EXPECT_EQ(sim.now(), SimTime{42});
}

TEST(Simulation, StopBreaksRun) {
  Simulation sim;
  int fired = 0;
  sim.schedule_after(seconds(1.0), [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_after(seconds(2.0), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulation, ScheduleAtPastClampsToNow) {
  Simulation sim;
  sim.schedule_after(seconds(5.0), [] {});
  sim.run();
  SimTime seen;
  sim.schedule_at(SimTime{0}, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, SimTime{5'000'000});
}

TEST(Simulation, CountsEvents) {
  Simulation sim;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_after(micros(i), [] {});
  }
  sim.run();
  EXPECT_EQ(sim.events_executed(), 10u);
}

TEST(Rng, DeterministicForSeed) {
  Rng a{123};
  Rng b{123};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
  }
}

TEST(Rng, UniformIntInRange) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng{11};
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.exponential(4.0);
  }
  EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(Rng, ChanceExtremes) {
  Rng rng{5};
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, PoissonZeroMean) {
  Rng rng{5};
  EXPECT_EQ(rng.poisson(0.0), 0);
}

TEST(Zipf, RejectsEmpty) { EXPECT_THROW(ZipfDistribution(0, 1.0), std::invalid_argument); }

TEST(Zipf, PmfSumsToOne) {
  ZipfDistribution zipf{100, 1.2};
  double sum = 0.0;
  for (std::size_t k = 1; k <= 100; ++k) {
    sum += zipf.pmf(k);
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zipf, PmfMonotoneDecreasing) {
  ZipfDistribution zipf{50, 1.0};
  for (std::size_t k = 2; k <= 50; ++k) {
    EXPECT_LE(zipf.pmf(k), zipf.pmf(k - 1));
  }
}

TEST(Zipf, SampleMatchesPmfHead) {
  ZipfDistribution zipf{100, 1.1};
  Rng rng{99};
  const int n = 50000;
  int rank1 = 0;
  for (int i = 0; i < n; ++i) {
    const std::size_t k = zipf.sample(rng);
    ASSERT_GE(k, 1u);
    ASSERT_LE(k, 100u);
    rank1 += k == 1 ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(rank1) / n, zipf.pmf(1), 0.02);
}

/// Property sweep: the head-probability of the distribution follows the
/// exponent across a range of exponents.
class ZipfExponentTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfExponentTest, HeavierTailForSmallerExponent) {
  const double s = GetParam();
  ZipfDistribution zipf{1000, s};
  // P(rank<=10) grows with the exponent.
  double head = 0.0;
  for (std::size_t k = 1; k <= 10; ++k) {
    head += zipf.pmf(k);
  }
  ZipfDistribution flatter{1000, s - 0.3};
  double flatter_head = 0.0;
  for (std::size_t k = 1; k <= 10; ++k) {
    flatter_head += flatter.pmf(k);
  }
  EXPECT_GT(head, flatter_head);
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfExponentTest,
                         ::testing::Values(0.8, 1.0, 1.2, 1.5, 2.0));

}  // namespace
}  // namespace erms::sim
