#include "ghs/sim/event_queue.hpp"

#include <utility>

#include "ghs/util/error.hpp"

namespace ghs::sim {

EventQueue::~EventQueue() {
  for (Node* node : heap_) pool_.release(node);
}

void EventQueue::push(SimTime time, Event fn) {
  GHS_REQUIRE(time >= 0, "event time " << time);
  heap_.push_back(pool_.make(time, next_seq_++, std::move(fn)));
  sift_up(heap_.size() - 1);
}

SimTime EventQueue::next_time() const {
  GHS_REQUIRE(!heap_.empty(), "next_time on empty queue");
  return heap_.front()->time;
}

EventQueue::Node* EventQueue::pop_node() {
  Node* top = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  return top;
}

Event EventQueue::pop() {
  GHS_REQUIRE(!heap_.empty(), "pop on empty queue");
  Node* node = pop_node();
  Event fn = std::move(node->fn);
  pool_.release(node);
  return fn;
}

void EventQueue::drain_run(SimTime t, std::vector<Event>& out) {
  do {
    Node* node = pop_node();
    out.push_back(std::move(node->fn));
    pool_.release(node);
  } while (!heap_.empty() && heap_.front()->time == t);
}

SimTime EventQueue::drain_ready(std::vector<Event>& out) {
  GHS_REQUIRE(!heap_.empty(), "drain_ready on empty queue");
  const SimTime t = heap_.front()->time;
  drain_run(t, out);
  return t;
}

std::size_t EventQueue::drain_ready_at(SimTime t, std::vector<Event>& out) {
  if (heap_.empty() || heap_.front()->time != t) return 0;
  const std::size_t before = out.size();
  drain_run(t, out);
  return out.size() - before;
}

void EventQueue::sift_up(std::size_t index) {
  Node* node = heap_[index];
  while (index > 0) {
    const std::size_t parent = (index - 1) / 2;
    if (!node->before(*heap_[parent])) break;
    heap_[index] = heap_[parent];
    index = parent;
  }
  heap_[index] = node;
}

void EventQueue::sift_down(std::size_t index) {
  Node* node = heap_[index];
  const std::size_t size = heap_.size();
  for (;;) {
    std::size_t child = 2 * index + 1;
    if (child >= size) break;
    if (child + 1 < size && heap_[child + 1]->before(*heap_[child])) ++child;
    if (!heap_[child]->before(*node)) break;
    heap_[index] = heap_[child];
    index = child;
  }
  heap_[index] = node;
}

}  // namespace ghs::sim
