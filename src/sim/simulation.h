#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace erms::sim {

/// Discrete-event simulation driver: a virtual clock plus the event queue.
/// All simulated components hold a reference to one Simulation and schedule
/// callbacks on it; `run()` advances the clock event by event.
///
/// Pre-dispatch contract. A component may defer work that only matters once
/// the simulation looks ahead: it holds a PreDispatch hook and calls
/// `request()` when it has something to settle. Before the simulation
/// inspects or pops its queue, and before every move of the clock, it runs
/// every hook, once, if any was requested since the last run:
///  * in step() (and so in run()), before the empty test and the pop;
///  * in run_until(), before each look at the next event's time, and before
///    the final jump to the deadline, also when the loop ends through stop();
///  * in restore_clock().
/// So a hook runs at the instant its work was requested, however many
/// requests that instant made, and whatever it schedules is in the queue
/// before the next event is chosen. Hooks run on the simulation thread and
/// may schedule events. A simulation holds any number of hooks; each
/// deregisters when destroyed.
class Simulation {
 public:
  /// Registration of one pre-dispatch flush. Not copyable or movable: the
  /// simulation keeps its address.
  class PreDispatch {
   public:
    PreDispatch(Simulation& sim, std::function<void()> flush);
    ~PreDispatch();
    PreDispatch(const PreDispatch&) = delete;
    PreDispatch& operator=(const PreDispatch&) = delete;

    /// Ask for `flush` to run before the simulation next inspects its queue
    /// or moves its clock. Cheap; repeated requests run it once.
    void request() {
      if (sim_ != nullptr) {
        sim_->flush_pending_ = true;
      }
    }

   private:
    friend class Simulation;
    Simulation* sim_;
    std::function<void()> flush_;
  };

  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;
  /// Hooks that outlive the simulation go inert.
  ~Simulation();

  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `fn` to run `delay` after the current time.
  EventHandle schedule_after(SimDuration delay, EventQueue::Callback fn) {
    return queue_.schedule(now_ + delay, std::move(fn));
  }

  /// Schedule `fn` at absolute time `at` (must be >= now()).
  EventHandle schedule_at(SimTime at, EventQueue::Callback fn) {
    return queue_.schedule(at < now_ ? now_ : at, std::move(fn));
  }

  /// Reserve a tie-break seq now for an event scheduled later with
  /// schedule_reserved() (see EventQueue::reserve_seq).
  std::uint64_t reserve_seq() { return queue_.reserve_seq(); }

  /// Schedule `fn` at absolute time `at` (clamped to now()) with a seq from
  /// reserve_seq().
  EventHandle schedule_reserved(SimTime at, std::uint64_t seq, EventQueue::Callback fn) {
    return queue_.schedule(at < now_ ? now_ : at, seq, std::move(fn));
  }

  /// Run one event. Returns false if the queue was empty.
  bool step();

  /// Run until the queue drains or `stop()` is called.
  void run();

  /// Run until the virtual clock reaches `deadline` (events at exactly
  /// `deadline` are executed). The clock is advanced to `deadline` even if
  /// the queue drains earlier or `stop()` ends the loop.
  void run_until(SimTime deadline);

  /// Ask a running `run()`/`run_until()` loop to return after the current
  /// event.
  void stop() { stopped_ = true; }

  [[nodiscard]] std::uint64_t events_executed() const { return events_executed_; }

  /// Snapshot support: restore the clock and event counter verbatim. Pending
  /// events are closures and cannot be serialized — a restored run starts
  /// with an empty queue and every component re-arms its own events, which
  /// is why snapshots are only taken at quiescent points (DESIGN.md §16).
  void restore_clock(SimTime now, std::uint64_t events_executed) {
    flush();
    now_ = now;
    events_executed_ = events_executed;
    stopped_ = false;
  }

 private:
  /// Run every hook if any was requested (see the contract above).
  void flush() {
    if (flush_pending_) {
      run_hooks();
    }
  }
  void run_hooks();

  SimTime now_{};
  EventQueue queue_;
  bool stopped_{false};
  bool flush_pending_{false};
  std::uint64_t events_executed_{0};
  std::vector<PreDispatch*> hooks_;
};

}  // namespace erms::sim
