#include "ghs/sim/simulator.hpp"

#include <utility>

#include "ghs/util/error.hpp"

namespace ghs::sim {

void Simulator::schedule_at(SimTime t, Event fn) {
  GHS_REQUIRE(t >= now_, "cannot schedule into the past: t=" << t
                                                             << " now=" << now_);
  queue_.push(t, std::move(fn));
  if (queue_.size() > peak_queue_size_) peak_queue_size_ = queue_.size();
}

void Simulator::schedule_after(SimTime dt, Event fn) {
  GHS_REQUIRE(dt >= 0, "negative delay " << dt);
  schedule_at(now_ + dt, std::move(fn));
}

void Simulator::advance_to(SimTime t) {
  GHS_CHECK(t >= now_, "clock would move backwards");
  if (advanced_counter_ != nullptr) advanced_counter_->inc(t - now_);
  now_ = t;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  const SimTime t = queue_.next_time();
  Event fn = queue_.pop();
  advance_to(t);
  if (events_counter_ != nullptr) events_counter_->inc();
  ++events_processed_;
  fn();
  return true;
}

std::size_t Simulator::drain_batch() {
  if (queue_.empty()) return 0;
  // Steal the scratch buffer so a handler that re-enters the simulator
  // cannot clobber the batch mid-dispatch; hand the capacity back at the
  // end so steady-state batches never allocate.
  std::vector<Event> batch = std::move(batch_);
  batch.clear();
  const SimTime t = queue_.drain_ready(batch);
  advance_to(t);
  std::size_t executed = 0;
  for (;;) {
    if (events_counter_ != nullptr) {
      events_counter_->inc(static_cast<std::int64_t>(batch.size()));
    }
    events_processed_ += batch.size();
    executed += batch.size();
    for (Event& fn : batch) fn();
    batch.clear();
    // Handlers may schedule more work at the current time; those events
    // have higher seq numbers, so collecting them on the next round
    // preserves the exact step()-wise order.
    if (queue_.drain_ready_at(t, batch) == 0) break;
  }
  batch_ = std::move(batch);
  return executed;
}

void Simulator::run() {
  while (drain_batch() > 0) {
  }
}

bool Simulator::run_until(SimTime deadline) {
  while (!queue_.empty() && queue_.next_time() <= deadline) {
    drain_batch();
  }
  if (queue_.empty()) return true;
  if (deadline > now_) advance_to(deadline);
  return false;
}

void Simulator::set_telemetry(telemetry::Registry* registry) {
  if (registry == nullptr) {
    events_counter_ = nullptr;
    advanced_counter_ = nullptr;
    return;
  }
  events_counter_ = &registry->counter(
      "ghs_sim_events_total", {}, "Discrete events executed by the simulator");
  advanced_counter_ = &registry->counter(
      "ghs_sim_advanced_ps_total", {},
      "Simulated picoseconds the event clock has advanced");
}

}  // namespace ghs::sim
