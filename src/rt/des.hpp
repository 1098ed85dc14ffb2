// Discrete-event simulation kernel.
//
// The simulated embedded target (nodes, CPUs, links, the debugger host)
// all advance on one event queue with nanosecond resolution. Events at the
// same timestamp execute in scheduling order (stable FIFO).
//
// Checkpoint/restore (gmdf::replay) support: every event carries a stable
// id assigned at scheduling time; periodic events keep their id across
// re-arms. A snapshot records (id, time, seq, period) per pending periodic
// event plus the time and counters; restoring re-times the still-live
// periodic closures in place and drops one-shot events (their owners —
// rt::Target's pending-operation registry — re-create them from data).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "rt/state.hpp"

namespace gmdf::rt {

/// Simulated time in nanoseconds since simulation start.
using SimTime = std::int64_t;

constexpr SimTime kUs = 1'000;            ///< one microsecond
constexpr SimTime kMs = 1'000'000;        ///< one millisecond
constexpr SimTime kSec = 1'000'000'000;   ///< one second

/// Minimal event-queue simulator.
class Simulator {
public:
    /// Identity of one scheduled event: the stable id (periodic events
    /// keep it across re-arms) and the FIFO tie-break sequence number.
    struct ScheduledEvent {
        std::uint64_t id = 0;
        std::uint64_t seq = 0;
    };

    /// Current simulation time (time of the last dispatched event, or the
    /// horizon reached by run_until).
    [[nodiscard]] SimTime now() const { return now_; }

    /// Schedules `fn` at absolute time `t`; `t` must be >= now().
    /// Throws std::invalid_argument on an attempt to schedule in the past.
    ScheduledEvent at(SimTime t, std::function<void()> fn);

    /// Schedules `fn` at now() + dt (dt >= 0).
    ScheduledEvent after(SimTime dt, std::function<void()> fn) {
        return at(now_ + dt, std::move(fn));
    }

    /// Schedules `fn` at `start` and then every `period` thereafter, until
    /// the simulation stops being run. `period` must be positive.
    ScheduledEvent every(SimTime start, SimTime period, std::function<void()> fn);

    /// Re-creates a one-shot event from a snapshot with its original
    /// sequence number, so same-time ordering ties break exactly as in
    /// the recorded run. Restore path only.
    void schedule_restored(SimTime t, std::uint64_t seq, std::function<void()> fn);

    /// Dispatches the next event; false when the queue is empty.
    bool step();

    /// Dispatches all events with time <= horizon, then sets now() to the
    /// horizon (even if the queue still has later events).
    void run_until(SimTime horizon);

    /// Dispatches events until the queue is empty.
    void run_all();

    [[nodiscard]] std::size_t pending() const { return queue_.size(); }

    /// Pending one-shot (period == 0) events; a snapshot owner uses this
    /// to verify every one-shot in flight is re-creatable from its own
    /// records.
    [[nodiscard]] std::size_t pending_one_shot() const;

    /// Time, counters, and the pending periodic events (by id). One-shot
    /// events are deliberately not part of it — closures cannot be; their
    /// owners snapshot the data to re-create them. Restore is in place:
    /// it rewinds time and counters, drops every one-shot event, and
    /// re-times the live periodic events by id. It throws
    /// std::runtime_error when the snapshot names a periodic event that
    /// no longer exists (its closure is gone, so the state cannot be
    /// reached), and leaves the queue untouched when it does.
    void state(StateIo& io);

private:
    struct Event {
        SimTime t;
        std::uint64_t seq;
        std::function<void()> fn;
        SimTime period = 0;     ///< > 0: re-armed after dispatch (every())
        std::uint64_t id = 0;   ///< stable across re-arms
    };
    struct Later {
        bool operator()(const Event& a, const Event& b) const {
            return a.t != b.t ? a.t > b.t : a.seq > b.seq;
        }
    };

    void push(Event ev);
    Event pop();

    SimTime now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t next_id_ = 1;
    /// Min-heap (std::push_heap/pop_heap with Later) — a plain vector so
    /// state() can iterate and rebuild it.
    std::vector<Event> queue_;
};

} // namespace gmdf::rt
