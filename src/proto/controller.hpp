// SessionController: the protocol face of one DebugSession.
//
// Owns the Dispatcher with the debugger verb set, executes Requests
// against the session, and — as an EngineObserver — turns breakpoint
// hits, divergences, and engine-state changes into asynchronous Events
// queued for the client. DebugSession's own control methods route
// through the same handlers (see core/session.cpp), so the C++ API and
// the protocol cannot drift.
//
// The verb registry (names, usage, summaries, handler bindings) is one
// shared table constructed once per process; a controller instance holds
// strictly per-session state — the session pointer, the run hook, and
// the event queue — so a hub hosting many sessions pays per session only
// for the handler bindings, never for the registry itself.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "core/observer.hpp"
#include "obs/ring.hpp"
#include "proto/dispatcher.hpp"
#include "proto/message.hpp"
#include "rt/des.hpp"

namespace gmdf::core {
class DebugSession;
} // namespace gmdf::core

namespace gmdf::replay {
class Timeline;
} // namespace gmdf::replay

namespace gmdf::proto {

/// Advances the host clock (wall time of the attached platform) by the
/// given simulated duration; what the `run` verb drives. The REPL binds
/// this to rt::Target::run_for; scripted harnesses pump their transport.
using RunHook = std::function<void(rt::SimTime)>;

class SessionController final : public core::EngineObserver {
public:
    /// Registers the debugger verbs and subscribes to `session`'s engine.
    /// The session must outlive the controller.
    explicit SessionController(core::DebugSession& session);
    ~SessionController() override;

    SessionController(const SessionController&) = delete;
    SessionController& operator=(const SessionController&) = delete;

    [[nodiscard]] Dispatcher& dispatcher() { return dispatcher_; }
    [[nodiscard]] const Dispatcher& dispatcher() const { return dispatcher_; }

    /// Executes one request; counts it in the session's EngineStats.
    /// Never throws.
    Response execute(const Request& req);

    /// Parses and executes one request line.
    Response execute_line(std::string_view line);

    /// Installs the `run` verb's clock hook; without one, `run` reports
    /// bad-state.
    void set_run_hook(RunHook hook) { run_hook_ = std::move(hook); }

    /// Attaches the session's time-travel timeline (non-owning; may be
    /// null). With one attached, the checkpoint/rewind/step-back/bisect
    /// verbs work and every execution-affecting verb is journaled so
    /// rewind can re-apply it during catch-up re-execution.
    void set_timeline(replay::Timeline* timeline) { timeline_ = timeline; }
    [[nodiscard]] replay::Timeline* timeline() { return timeline_; }

    /// Queued asynchronous events, oldest first; the queue is emptied.
    [[nodiscard]] std::vector<Event> drain_events();

    [[nodiscard]] bool has_events() const { return !events_.empty(); }

    /// Events dropped because the queue hit its bound (client not
    /// draining); counted in the session's EngineStats::events_dropped.
    [[nodiscard]] std::uint64_t dropped_events() const;

    // EngineObserver: queue asynchronous notifications.
    void on_breakpoint_hit(int handle, const core::Breakpoint& bp,
                           const link::Command& cmd, rt::SimTime t) override;
    void on_divergence(const core::Divergence& d) override;
    void on_state_change(core::EngineState from, core::EngineState to) override;

private:
    struct VerbEntry; ///< one row of the shared verb table (controller.cpp)

    /// The process-wide verb registry: constructed once, shared by every
    /// controller instance.
    static const std::vector<VerbEntry>& verb_table();

    void bind_verbs();
    void push_event(Event ev);

    // Verb handlers.
    Response cmd_help(const Request& req);
    Response cmd_info(const Request& req);
    Response cmd_run(const Request& req);
    Response cmd_pause(const Request& req);
    Response cmd_resume(const Request& req);
    Response cmd_step(const Request& req);
    Response cmd_step_filter(const Request& req);
    Response cmd_break(const Request& req);
    Response cmd_query(const Request& req);
    Response cmd_render(const Request& req);
    Response cmd_trace_profile(const Request& req);
    Response cmd_trace(const Request& req);
    Response cmd_replay(const Request& req);
    Response cmd_checkpoint(const Request& req);
    Response cmd_rewind(const Request& req);
    Response cmd_step_back(const Request& req);
    Response cmd_bisect(const Request& req);
    Response cmd_quit(const Request& req);

    core::DebugSession* session_;
    Dispatcher dispatcher_;
    RunHook run_hook_;
    replay::Timeline* timeline_ = nullptr;
    obs::Ring<Event> events_;
};

} // namespace gmdf::proto
