// The discrete-event simulator's time-ordered event queue.
//
// Events pop in strictly increasing (time, seq) order, where seq is the
// insertion sequence number — so ties are FIFO and execution order is
// deterministic. The structure is a binary min-heap over pool-allocated
// nodes: O(log n) push/pop, which is cheap because every workload in the
// repository keeps the queue a few dozen entries deep at most
// (docs/PERFORMANCE.md §1 has the measured depths).
//
// Events are move-only small-buffer callables (sim/event.hpp) stored in
// pool nodes — no per-event shared_ptr, no per-event malloc.
#pragma once

#include <cstdint>
#include <vector>

#include "ghs/sim/event.hpp"
#include "ghs/util/arena.hpp"
#include "ghs/util/units.hpp"

namespace ghs::sim {

/// Hand-rolled binary min-heap over node pointers, so sift operations move
/// 8-byte pointers instead of whole entries and the events themselves never
/// move after insertion.
class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  ~EventQueue();

  /// Enqueues `fn` at `time` (>= 0). FIFO among equal times.
  void push(SimTime time, Event fn);

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Time of the earliest event; queue must be non-empty.
  SimTime next_time() const;

  /// Removes and returns the earliest event's callback.
  Event pop();

  /// Appends every event whose time equals next_time() to `out`, in pop
  /// order, removes them from the queue and returns that timestamp. The
  /// batched form of pop() the simulator's hot loop uses. Queue must be
  /// non-empty.
  SimTime drain_ready(std::vector<Event>& out);

  /// Drains the earliest timestamp's events into `out` only when that
  /// timestamp equals `t` (same-time follow-ups a handler scheduled
  /// mid-batch); returns the number of events drained, 0 when the queue
  /// is empty or its next event is later.
  std::size_t drain_ready_at(SimTime t, std::vector<Event>& out);

 private:
  struct Node {
    SimTime time = 0;
    std::uint64_t seq = 0;
    Event fn;

    Node(SimTime t, std::uint64_t s, Event f)
        : time(t), seq(s), fn(std::move(f)) {}

    /// The total order the queue pops in.
    bool before(const Node& other) const {
      if (time != other.time) return time < other.time;
      return seq < other.seq;
    }
  };

  void sift_up(std::size_t index);
  void sift_down(std::size_t index);
  Node* pop_node();
  /// Pops the (time == t) run off the heap top into `out`.
  void drain_run(SimTime t, std::vector<Event>& out);

  util::Pool<Node> pool_{1024};
  std::vector<Node*> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace ghs::sim
