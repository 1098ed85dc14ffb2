// The runtime debugger engine (paper Fig. 2/Fig. 3).
//
// An event-driven state machine: normally waiting for commands from the
// executing code, reacting by fanning typed events out to its observers
// (scene animators, the trace recorder, the divergence log, anything
// else), enforcing model-level breakpoints (pausing the target), and
// cross-checking observed behaviour against the design model (state-
// sequence consistency: the runtime detector for implementation errors
// introduced by model transformation).
//
// The engine owns no scene, no trace, and no divergence storage — it
// emits through EngineObserver only. It is itself a link::CommandSink,
// so any link::Transport can feed it directly.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/bindings.hpp"
#include "core/observer.hpp"
#include "expr/vm.hpp"
#include "link/commands.hpp"
#include "link/transport.hpp"
#include "meta/model.hpp"
#include "rt/des.hpp"

namespace gmdf::core {

/// Engine-facing aliases for the link-level control types.
using StepFilter = link::StepFilter;
using TargetControl = link::TargetControl;

struct EngineStats {
    std::uint64_t commands = 0;
    std::uint64_t reactions = 0;
    std::uint64_t breakpoints_hit = 0;
    std::uint64_t divergences = 0;
    // Control-plane counters (maintained by the proto layer; surfaced
    // through `query stats`).
    std::uint64_t requests = 0;       ///< protocol requests served
    std::uint64_t request_errors = 0; ///< requests answered with an error
    std::uint64_t events_emitted = 0; ///< asynchronous events queued
    std::uint64_t events_dropped = 0; ///< events evicted from a full queue
};

/// The debugger engine. Owns neither the design model nor its observers;
/// all must outlive it.
class DebuggerEngine final : public link::CommandSink {
public:
    explicit DebuggerEngine(const meta::Model& design);

    /// Registers an observer (non-owning; registration order = delivery
    /// order). Observers must not mutate the engine during a callback.
    void add_observer(EngineObserver* observer);

    /// Unregisters; false when it was not registered.
    bool remove_observer(EngineObserver* observer);

    [[nodiscard]] const std::vector<EngineObserver*>& observers() const {
        return observers_;
    }

    void set_bindings(CommandBindingTable bindings) { bindings_ = std::move(bindings); }
    [[nodiscard]] const CommandBindingTable& bindings() const { return bindings_; }

    void set_control(TargetControl control) { control_ = std::move(control); }

    /// Restricts model-level stepping (empty filter: any task's next
    /// release consumes the step).
    void set_step_filter(StepFilter filter) { step_filter_ = std::move(filter); }
    [[nodiscard]] const StepFilter& step_filter() const { return step_filter_; }

    /// Ingests one command observed at simulated time `t`: fans it out,
    /// applies bound reactions, checks consistency and breakpoints.
    void ingest(const link::Command& cmd, rt::SimTime t);

    /// Replay mode (time-travel catch-up): the engine processes commands
    /// exactly as live — mirrors, consistency checks, breakpoints,
    /// target pausing, data-plane counters — but fans events out only to
    /// observers whose replay_aware() is true, so the trace recorder,
    /// divergence log, and protocol event queue don't double-report the
    /// history being re-executed.
    void set_replay_mode(bool on) { replay_mode_ = on; }
    [[nodiscard]] bool replay_mode() const { return replay_mode_; }

    /// link::CommandSink: transports deliver straight into the engine.
    void deliver(const link::Command& cmd, rt::SimTime at) override { ingest(cmd, at); }

    [[nodiscard]] EngineState state() const { return state_; }

    /// Halts the target (engine to Paused); no-op when already paused.
    void pause();

    /// Resumes a paused target (engine back to Animating).
    void resume();

    /// Model-level step: asks the target to run one task release (honouring
    /// the step filter), then pauses again at the next command.
    void step();

    /// Breakpoint management; returns a handle usable with remove_breakpoint.
    int add_breakpoint(Breakpoint bp);
    bool remove_breakpoint(int handle);
    [[nodiscard]] const std::map<int, Breakpoint>& breakpoints() const { return breaks_; }

    /// Re-creates a breakpoint under its original handle (time-travel
    /// journal replay / snapshot restore). Replaces any breakpoint
    /// already holding the handle.
    void restore_breakpoint(int handle, Breakpoint bp);

    /// The engine's model-level mirror state: per-SM current states,
    /// pending transitions, signal values, engine FSM state, breakpoints,
    /// and the data-plane counters. The control-plane counters (requests,
    /// events) are host-side bookkeeping and are deliberately not part of
    /// a snapshot. Restore is silent (no observer callbacks) and checks
    /// the engine state, breakpoint kinds and signal-slot layout against
    /// this engine.
    void state(rt::StateIo& io);

    /// Most recent value per signal element id (from SIGNAL_UPDATE).
    [[nodiscard]] std::optional<double> signal_value(meta::ObjectId signal) const;

    /// Current state per state machine element id (from STATE_ENTER).
    [[nodiscard]] std::optional<meta::ObjectId> current_state(meta::ObjectId sm) const;

    [[nodiscard]] const EngineStats& stats() const { return stats_; }

    /// Control-plane accounting (called by proto::SessionController).
    void note_request() { ++stats_.requests; }
    void note_request_error() { ++stats_.request_errors; }
    void note_event() { ++stats_.events_emitted; }
    void note_event_dropped() { ++stats_.events_dropped; }

private:
    /// Delivers one callback to every observer eligible under the
    /// current mode (all of them live; replay-aware only during replay).
    template <class F> void notify(F&& deliver);

    void compile_predicate(int handle, const Breakpoint& bp);
    void set_state(EngineState next);
    void diverge(const link::Command& cmd, rt::SimTime t, std::string message);
    void check_consistency(const link::Command& cmd, rt::SimTime t);
    void check_breakpoints(const link::Command& cmd, rt::SimTime t);
    void hit_breakpoint(int handle, const Breakpoint& bp, const link::Command& cmd,
                        rt::SimTime t);

    const meta::Model* design_;
    std::vector<EngineObserver*> observers_;
    CommandBindingTable bindings_ = CommandBindingTable::defaults();
    TargetControl control_;
    StepFilter step_filter_;
    EngineState state_ = EngineState::Waiting;
    bool pause_on_next_command_ = false;
    bool replay_mode_ = false;

    std::map<int, Breakpoint> breaks_;
    /// Bytecode-compiled predicate per SignalPredicate breakpoint
    /// (absent for malformed predicates, which never fire). Signal names
    /// are resolved to dense slot indices once at add_breakpoint time;
    /// evaluation reads signal_slots_ directly — no name lookup, no
    /// boxing, no exceptions on the per-command hot path.
    std::map<int, expr::CompiledExpr> predicates_;
    int next_break_ = 1;

    std::map<std::uint64_t, std::uint64_t> current_state_;   // sm -> state
    std::map<std::uint64_t, std::uint32_t> pending_transition_; // sm -> transition
    /// Values for signal ids with no pre-indexed slot (generic models).
    std::map<std::uint64_t, double> signal_values_;
    /// Dense predicate slot table: slot i = i-th design-model signal,
    /// defaulting to 0.0 until the first SIGNAL_UPDATE (the same default
    /// the old per-name lookup supplied). slot_updated_ distinguishes
    /// "never seen" for signal_value().
    std::vector<double> signal_slots_;
    std::vector<bool> slot_updated_;
    std::unordered_map<std::uint64_t, int> slot_of_signal_;  // signal id -> slot
    std::map<std::string, int, std::less<>> signal_slot_by_name_;

    EngineStats stats_;
};

} // namespace gmdf::core
