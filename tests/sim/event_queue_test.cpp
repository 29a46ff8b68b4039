#include "ghs/sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "ghs/util/error.hpp"

namespace ghs::sim {
namespace {

TEST(EventQueueTest, EmptyByDefault) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_THROW(q.next_time(), Error);
  EXPECT_THROW(q.pop(), Error);
  std::vector<Event> out;
  EXPECT_THROW(q.drain_ready(out), Error);
  EXPECT_EQ(q.drain_ready_at(0, out), 0u);
}

TEST(EventQueueTest, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.push(300, [&] { order.push_back(3); });
  q.push(100, [&] { order.push_back(1); });
  q.push(200, [&] { order.push_back(2); });
  while (!q.empty()) q.pop()();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, FifoAmongEqualTimes) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    q.push(42, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop()();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueueTest, NextTimeReportsEarliest) {
  EventQueue q;
  q.push(500, [] {});
  EXPECT_EQ(q.next_time(), 500);
  q.push(100, [] {});
  EXPECT_EQ(q.next_time(), 100);
  q.pop();
  EXPECT_EQ(q.next_time(), 500);
}

TEST(EventQueueTest, RejectsNegativeTime) {
  EventQueue q;
  EXPECT_THROW(q.push(-1, [] {}), Error);
}

TEST(EventQueueTest, SizeTracksPushPop) {
  EventQueue q;
  q.push(1, [] {});
  q.push(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.pop();
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, HoldsMoveOnlyCallables) {
  EventQueue q;
  auto payload = std::make_unique<std::string>("move-only");
  std::string seen;
  q.push(10, [p = std::move(payload), &seen] { seen = *p; });
  q.pop()();
  EXPECT_EQ(seen, "move-only");
}

TEST(EventQueueTest, DrainReadyDrainsOnlyTheEarliestTimestamp) {
  EventQueue q;
  std::vector<int> order;
  q.push(7, [&] { order.push_back(1); });
  q.push(7, [&] { order.push_back(2); });
  q.push(9, [&] { order.push_back(3); });
  std::vector<Event> out;
  EXPECT_EQ(q.drain_ready(out), 7);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), 9);
  for (Event& fn : out) fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  out.clear();
  EXPECT_EQ(q.drain_ready_at(8, out), 0u);
  EXPECT_EQ(q.drain_ready_at(9, out), 1u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, DestroysPendingEventsExactlyOnce) {
  auto tracker = std::make_shared<int>(0);
  {
    EventQueue q;
    q.push(1, [tracker] { ++*tracker; });
    q.push(2, [tracker] { ++*tracker; });
    // Queue destroyed with both events pending.
  }
  EXPECT_EQ(*tracker, 0);
  EXPECT_EQ(tracker.use_count(), 1);
}

TEST(EventQueueTest, InterleavedPushPopKeepsTotalOrder) {
  EventQueue q;
  std::vector<SimTime> popped;
  q.push(10, [] {});
  q.push(30, [] {});
  popped.push_back(q.next_time());
  q.pop();
  q.push(20, [] {});
  q.push(15, [] {});
  while (!q.empty()) {
    popped.push_back(q.next_time());
    q.pop();
  }
  EXPECT_EQ(popped, (std::vector<SimTime>{10, 15, 20, 30}));
}

}  // namespace
}  // namespace ghs::sim
