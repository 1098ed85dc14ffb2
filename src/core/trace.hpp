// Execution trace recording and replay (paper: model-level animation may
// occur in milliseconds, so GDM records the execution trace; the user can
// replay it against a timing diagram).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "core/observer.hpp"
#include "link/commands.hpp"
#include "meta/model.hpp"
#include "obs/ring.hpp"
#include "render/timing.hpp"
#include "render/vcd.hpp"
#include "rt/des.hpp"

namespace gmdf::core {

struct TraceEvent {
    rt::SimTime t = 0;
    link::Command cmd;
};

/// Timestamped record of every command the debugger observed. Registers
/// on the engine as an observer (on_command) or is fed directly.
///
/// Optionally bounded: with a ring capacity set, the oldest events are
/// evicted once the recorder is full, so long-running sessions hold the
/// most recent window instead of growing without bound.
class TraceRecorder final : public EngineObserver {
public:
    void on_command(const link::Command& cmd, rt::SimTime t) override { record(cmd, t); }

    void record(const link::Command& cmd, rt::SimTime t) {
        if (auto evicted = events_.push({t, cmd})) dropped_through_ = evicted->t;
    }
    void clear() {
        events_.clear();
        dropped_through_ = 0;
    }

    /// Drops events after simulated time `t` (rewind discards the
    /// abandoned future). Eviction accounting is untouched — only the
    /// newest entries go.
    void truncate_after(rt::SimTime t) {
        while (!events_.empty() && events_.back().t > t) events_.pop_back();
    }

    /// Ring capacity in events; 0 (the default) records unbounded.
    /// Shrinking below the current size evicts the oldest events.
    void set_capacity(std::size_t capacity) {
        if (capacity != 0 && events_.size() > capacity)
            dropped_through_ = events_[events_.size() - capacity - 1].t;
        events_.set_capacity(capacity);
    }
    [[nodiscard]] std::size_t capacity() const { return events_.capacity(); }

    /// Events evicted because the ring was full (since the last clear()).
    [[nodiscard]] std::uint64_t dropped() const { return events_.dropped(); }

    /// Timestamp of the newest evicted event: history at or before this
    /// time is gone from the ring. 0 when nothing was dropped.
    [[nodiscard]] rt::SimTime dropped_through() const { return dropped_through_; }

    /// Simulated time of the oldest retained event; nullopt when empty.
    /// With drops, [earliest_retained, back] is the replayable window.
    [[nodiscard]] std::optional<rt::SimTime> earliest_retained() const {
        if (events_.empty()) return std::nullopt;
        return events_.front().t;
    }

    [[nodiscard]] const std::deque<TraceEvent>& events() const { return events_.items(); }
    [[nodiscard]] std::size_t size() const { return events_.size(); }

    /// Events of one kind, in order.
    [[nodiscard]] std::vector<TraceEvent> filter(link::Cmd kind) const;

    /// Builds the timing diagram: one lane per state machine (value =
    /// state name) and one per signal (value = formatted number); element
    /// names resolved against the design model.
    [[nodiscard]] render::TimingDiagram timing_diagram(const meta::Model& design) const;

    /// Exports the trace as VCD (SM state indices + signal reals).
    [[nodiscard]] std::string to_vcd(const meta::Model& design) const;

private:
    obs::Ring<TraceEvent> events_;
    rt::SimTime dropped_through_ = 0;
};

} // namespace gmdf::core
