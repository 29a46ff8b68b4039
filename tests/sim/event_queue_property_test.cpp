// Property test: the event queue pops randomized schedules in exactly the
// order of a trivially correct model — a std::multimap keyed by time,
// which keeps equal keys in insertion order, so it pops by (time, seq).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "ghs/sim/event_queue.hpp"
#include "ghs/util/rng.hpp"

namespace ghs::sim {
namespace {

struct OpTrace {
  std::vector<std::uint64_t> popped;  // payload ids in pop order
  std::vector<SimTime> times;         // pop timestamps
};

struct Outcome {
  OpTrace queue;
  OpTrace model;
};

// Runs one seeded push/pop schedule against the queue and the model side
// by side and records what each pops. `tie_bias` (percent) pushes at the
// current floor timestamp; `outlier_every` sprinkles far-future events.
// Pushes never go below the last popped time, as in a simulation.

Outcome run_schedule(std::uint64_t seed, std::size_t ops,
                     std::uint64_t tie_bias, std::size_t outlier_every) {
  Rng rng(seed);
  EventQueue q;
  std::multimap<SimTime, std::uint64_t> model;
  Outcome out;
  SimTime floor = 0;
  std::uint64_t next_id = 0;
  std::vector<std::uint64_t>* sink = &out.queue.popped;
  const auto pop_both = [&] {
    out.queue.times.push_back(q.next_time());
    q.pop()();
    const auto first = model.begin();
    out.model.times.push_back(first->first);
    out.model.popped.push_back(first->second);
    model.erase(first);
    floor = out.queue.times.back();
  };
  for (std::size_t op = 0; op < ops; ++op) {
    const bool do_push = q.empty() || rng.next_below(100) < 60;
    if (!do_push) {
      pop_both();
      continue;
    }
    SimTime t;
    if (outlier_every != 0 && op % outlier_every == outlier_every - 1) {
      t = floor + static_cast<SimTime>(rng.next_below(1u << 20)) +
          (SimTime{1} << 44);  // far-future outlier
    } else if (tie_bias != 0 && rng.next_below(100) < tie_bias) {
      t = floor;  // heavy same-timestamp ties
    } else {
      t = floor + static_cast<SimTime>(rng.next_below(5000));
    }
    const std::uint64_t id = next_id++;
    q.push(t, [id, sink] { sink->push_back(id); });
    model.emplace(t, id);
  }
  while (!q.empty()) pop_both();
  EXPECT_TRUE(model.empty());
  return out;
}

class EventQueueProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueProperty, MixedScheduleMatchesModel) {
  const Outcome out = run_schedule(GetParam(), 2000, /*tie_bias=*/30,
                                   /*outlier_every=*/97);
  EXPECT_EQ(out.queue.popped, out.model.popped);
  EXPECT_EQ(out.queue.times, out.model.times);
}

TEST_P(EventQueueProperty, HeavyTiesMatchModel) {
  // 85% of pushes collide on the current floor timestamp: the regime the
  // serve layer produces when a batch completes and retries fan out.
  const Outcome out = run_schedule(GetParam() * 7919 + 13, 3000,
                                   /*tie_bias=*/85, /*outlier_every=*/0);
  EXPECT_EQ(out.queue.popped, out.model.popped);
  EXPECT_EQ(out.queue.times, out.model.times);
}

TEST_P(EventQueueProperty, DrainReadyBatchesMatchSingleStepPops) {
  Rng rng(GetParam() * 104729 + 7);
  // One shared workload, consumed via pop() on one queue and via
  // drain_ready() on another; both must follow the model.
  std::vector<SimTime> times;
  for (int i = 0; i < 1500; ++i) {
    times.push_back(static_cast<SimTime>(rng.next_below(200)) * 100);
  }
  EventQueue stepped;
  EventQueue batched;
  std::multimap<SimTime, std::uint64_t> model;
  std::vector<std::uint64_t> by_pop;
  std::vector<std::uint64_t> by_batch;
  for (std::size_t i = 0; i < times.size(); ++i) {
    stepped.push(times[i], [i, &by_pop] { by_pop.push_back(i); });
    batched.push(times[i], [i, &by_batch] { by_batch.push_back(i); });
    model.emplace(times[i], i);
  }
  while (!stepped.empty()) stepped.pop()();
  std::vector<Event> batch;
  SimTime last = -1;
  while (!batched.empty()) {
    batch.clear();
    const SimTime t = batched.drain_ready(batch);
    EXPECT_GT(t, last);  // one batch per distinct timestamp
    last = t;
    EXPECT_EQ(batch.size(), model.count(t));
    for (Event& fn : batch) fn();
  }
  std::vector<std::uint64_t> expected;
  for (const auto& [time, id] : model) expected.push_back(id);
  EXPECT_EQ(by_pop, expected);
  EXPECT_EQ(by_batch, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueProperty,
                         ::testing::Values(1u, 2u, 3u, 17u, 42u, 1234u,
                                           987654321u));

}  // namespace
}  // namespace ghs::sim
