// Discrete-event simulator: a monotone clock plus an event queue. All
// substrate models (memory system, GPU, CPU, UM migration engine) schedule
// work here; nothing in the repository reads wall-clock time.
//
// The simulator owns one EventQueue (a binary heap) by value; events
// dispatch in (time, seq) order, so a simulation's output is byte-identical
// across runs at the same seed.
#pragma once

#include <cstddef>
#include <vector>

#include "ghs/sim/event_queue.hpp"
#include "ghs/telemetry/registry.hpp"
#include "ghs/util/units.hpp"

namespace ghs::sim {

class Simulator {
 public:
  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute simulated time `t` (>= now()).
  void schedule_at(SimTime t, Event fn);

  /// Schedules `fn` after a delay of `dt` picoseconds.
  void schedule_after(SimTime dt, Event fn);

  /// Runs until the event queue drains.
  void run();

  /// Runs until the queue drains or the clock would pass `deadline`;
  /// returns true if the queue drained.
  bool run_until(SimTime deadline);

  /// Executes a single event; returns false when the queue is empty.
  bool step();

  /// Advances the clock once and dispatches every event scheduled at that
  /// timestamp — including events a handler schedules at the (new) current
  /// time, which run in the same batch after the existing ones. Dispatch
  /// order is identical to repeated step() calls; the queue just skips the
  /// per-event re-heapify between same-time pops. Returns the number of
  /// events executed (0 when the queue is empty).
  std::size_t drain_batch();

  std::size_t events_processed() const { return events_processed_; }
  bool idle() const { return queue_.empty(); }

  /// High-water mark of the pending-event count, updated at push.
  std::size_t peak_queue_size() const { return peak_queue_size_; }

  /// Registers the event/clock counters (null disables). Counters are
  /// shared by identity, so platforms wired to one registry accumulate.
  void set_telemetry(telemetry::Registry* registry);

 private:
  void advance_to(SimTime t);

  SimTime now_ = 0;
  EventQueue queue_;
  std::vector<Event> batch_;
  std::size_t events_processed_ = 0;
  std::size_t peak_queue_size_ = 0;
  telemetry::Counter* events_counter_ = nullptr;
  telemetry::Counter* advanced_counter_ = nullptr;
};

}  // namespace ghs::sim
