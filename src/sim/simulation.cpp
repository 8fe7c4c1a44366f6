#include "sim/simulation.h"

namespace erms::sim {

Simulation::PreDispatch::PreDispatch(Simulation& sim, std::function<void()> flush)
    : sim_(&sim), flush_(std::move(flush)) {
  sim.hooks_.push_back(this);
}

Simulation::PreDispatch::~PreDispatch() {
  if (sim_ != nullptr) {
    std::erase(sim_->hooks_, this);
  }
}

Simulation::~Simulation() {
  for (PreDispatch* hook : hooks_) {
    hook->sim_ = nullptr;
  }
}

void Simulation::run_hooks() {
  flush_pending_ = false;
  for (PreDispatch* hook : hooks_) {
    hook->flush_();
  }
}

bool Simulation::step() {
  flush();
  if (queue_.empty()) {
    return false;
  }
  EventQueue::Fired fired = queue_.pop();
  now_ = fired.time;
  ++events_executed_;
  fired.fn();
  return true;
}

void Simulation::run() {
  stopped_ = false;
  while (!stopped_ && step()) {
  }
}

void Simulation::run_until(SimTime deadline) {
  stopped_ = false;
  while (true) {
    flush();
    if (stopped_ || queue_.empty() || queue_.next_time() > deadline) {
      break;
    }
    step();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
}

}  // namespace erms::sim
