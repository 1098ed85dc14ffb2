#include "core/engine.hpp"

#include <algorithm>

#include "comdes/metamodel.hpp"
#include "expr/compile.hpp"
#include "expr/parser.hpp"

namespace gmdf::core {

using meta::MObject;
using meta::ObjectId;

template <class F> void DebuggerEngine::notify(F&& deliver) {
    for (EngineObserver* obs : observers_)
        if (!replay_mode_ || obs->replay_aware()) deliver(*obs);
}

const char* to_string(EngineState s) {
    switch (s) {
    case EngineState::Waiting: return "waiting";
    case EngineState::Animating: return "animating";
    case EngineState::Paused: return "paused";
    }
    return "?";
}

const char* to_string(Breakpoint::Kind kind) {
    switch (kind) {
    case Breakpoint::Kind::StateEnter: return "state-enter";
    case Breakpoint::Kind::TransitionFired: return "transition";
    case Breakpoint::Kind::SignalPredicate: return "signal-predicate";
    }
    return "?";
}

DebuggerEngine::DebuggerEngine(const meta::Model& design) : design_(&design) {
    // Pre-index signals into dense predicate slots: compiled predicates
    // address them by integer index, so each SIGNAL_UPDATE costs one id
    // lookup and each predicate evaluation costs none.
    const auto& c = comdes::comdes_metamodel();
    if (&design.metamodel() == &c.mm) {
        for (const MObject* sig : design.all_of(*c.signal)) {
            int slot = static_cast<int>(signal_slots_.size());
            slot_of_signal_[sig->id().raw] = slot;
            signal_slot_by_name_[sig->name()] = slot;
            signal_slots_.push_back(0.0);
        }
        slot_updated_.assign(signal_slots_.size(), false);
    }
}

void DebuggerEngine::add_observer(EngineObserver* observer) {
    if (observer == nullptr) return;
    if (std::find(observers_.begin(), observers_.end(), observer) != observers_.end())
        return;
    observers_.push_back(observer);
}

bool DebuggerEngine::remove_observer(EngineObserver* observer) {
    auto it = std::find(observers_.begin(), observers_.end(), observer);
    if (it == observers_.end()) return false;
    observers_.erase(it);
    return true;
}

void DebuggerEngine::set_state(EngineState next) {
    if (next == state_) return;
    EngineState from = state_;
    state_ = next;
    notify([&](EngineObserver& obs) { obs.on_state_change(from, next); });
}

void DebuggerEngine::ingest(const link::Command& cmd, rt::SimTime t) {
    ++stats_.commands;
    notify([&](EngineObserver& obs) { obs.on_command(cmd, t); });
    if (state_ == EngineState::Waiting) set_state(EngineState::Animating);

    // Track model-level state before reactions so breakpoints and
    // consistency checks see the up-to-date picture.
    if (cmd.kind == link::Cmd::SignalUpdate) {
        double v = static_cast<double>(cmd.value);
        if (auto it = slot_of_signal_.find(cmd.a); it != slot_of_signal_.end()) {
            auto slot = static_cast<std::size_t>(it->second);
            signal_slots_[slot] = v;
            slot_updated_[slot] = true;
        } else {
            // Ids outside the design model's signal set (generic models)
            // fall back to the sparse map.
            signal_values_[cmd.a] = v;
        }
    }

    check_consistency(cmd, t);

    ReactionSpec spec = bindings_.lookup(cmd.kind);
    if (spec.type != ReactionType::None) {
        ++stats_.reactions;
        notify([&](EngineObserver& obs) { obs.on_reaction(cmd, spec, t); });
    }

    if (cmd.kind == link::Cmd::StateEnter || cmd.kind == link::Cmd::ModeChange)
        current_state_[cmd.a] = cmd.b;

    if (pause_on_next_command_) {
        pause_on_next_command_ = false;
        set_state(EngineState::Paused);
        if (control_.pause) control_.pause();
    } else {
        check_breakpoints(cmd, t);
    }
}

void DebuggerEngine::diverge(const link::Command& cmd, rt::SimTime t,
                             std::string message) {
    ++stats_.divergences;
    Divergence d{t, cmd, std::move(message)};
    notify([&](EngineObserver& obs) { obs.on_divergence(d); });
}

void DebuggerEngine::check_consistency(const link::Command& cmd, rt::SimTime t) {
    const auto& c = comdes::comdes_metamodel();
    if (&design_->metamodel() != &c.mm) return; // generic models: no domain checks

    if (cmd.kind == link::Cmd::Transition) {
        const MObject* tr = design_->get(ObjectId{cmd.b});
        if (tr == nullptr || !tr->meta_class().is_subtype_of(*c.transition)) {
            diverge(cmd, t,
                    "TRANSITION names element #" + std::to_string(cmd.b) +
                        " which is not a transition in the design model");
            return;
        }
        auto cur = current_state_.find(cmd.a);
        if (cur != current_state_.end() && tr->ref("from").raw != cur->second)
            diverge(cmd, t,
                    "transition '" + std::to_string(cmd.b) + "' fired from state #" +
                        std::to_string(cur->second) +
                        " but the design model sources it at #" +
                        std::to_string(tr->ref("from").raw));
        pending_transition_[cmd.a] = cmd.b;
        return;
    }

    if (cmd.kind == link::Cmd::StateEnter) {
        const MObject* sm = design_->get(ObjectId{cmd.a});
        const MObject* state = design_->get(ObjectId{cmd.b});
        if (sm == nullptr || state == nullptr ||
            !sm->meta_class().is_subtype_of(*c.sm_fb) ||
            !state->meta_class().is_subtype_of(*c.state)) {
            diverge(cmd, t, "STATE_ENTER names unknown elements");
            return;
        }
        bool member = false;
        for (ObjectId s : sm->refs("states"))
            if (s.raw == cmd.b) member = true;
        if (!member) {
            diverge(cmd, t,
                    "state '" + state->name() + "' is not part of machine '" +
                        sm->name() + "'");
            return;
        }
        auto pend = pending_transition_.find(cmd.a);
        if (pend != pending_transition_.end()) {
            const MObject* tr = design_->get(ObjectId{pend->second});
            if (tr != nullptr && tr->ref("to").raw != cmd.b)
                diverge(cmd, t,
                        "transition #" + std::to_string(pend->second) +
                            " should enter state #" + std::to_string(tr->ref("to").raw) +
                            " but the target entered '" + state->name() + "'");
            pending_transition_.erase(pend);
            return;
        }
        auto cur = current_state_.find(cmd.a);
        if (cur == current_state_.end()) {
            // First entry must be the design model's initial state.
            if (sm->ref("initial").raw != cmd.b)
                diverge(cmd, t,
                        "machine '" + sm->name() + "' started in '" + state->name() +
                            "' but the design model starts in '" +
                            design_->at(sm->ref("initial")).name() + "'");
            return;
        }
        if (cur->second == cmd.b) return; // re-entry reported passively
        // No TRANSITION command seen (passive mode): require that some
        // design transition connects the two states.
        bool connected = false;
        for (ObjectId t_id : sm->refs("transitions")) {
            const MObject& tr = design_->at(t_id);
            if (tr.ref("from").raw == cur->second && tr.ref("to").raw == cmd.b)
                connected = true;
        }
        if (!connected)
            diverge(cmd, t,
                    "machine '" + sm->name() + "' jumped from state #" +
                        std::to_string(cur->second) + " to '" + state->name() +
                        "' without a design-model transition");
    }
}

void DebuggerEngine::check_breakpoints(const link::Command& cmd, rt::SimTime t) {
    for (auto it = breaks_.begin(); it != breaks_.end();) {
        const Breakpoint& bp = it->second;
        bool hit = false;
        if (bp.enabled) {
            switch (bp.kind) {
            case Breakpoint::Kind::StateEnter:
                hit = cmd.kind == link::Cmd::StateEnter && cmd.b == bp.element.raw;
                break;
            case Breakpoint::Kind::TransitionFired:
                hit = cmd.kind == link::Cmd::Transition && cmd.b == bp.element.raw;
                break;
            case Breakpoint::Kind::SignalPredicate: {
                if (cmd.kind != link::Cmd::SignalUpdate) break;
                auto ce = predicates_.find(it->first);
                if (ce == predicates_.end()) break; // malformed: never fires
                double v;
                // Evaluation faults (unknown signal name) never fire —
                // they are result codes now, not exceptions.
                hit = ce->second.run(signal_slots_, v) == expr::VmStatus::Ok && v != 0.0;
                break;
            }
            }
        }
        if (hit) {
            int handle = it->first;
            bool one_shot = bp.one_shot;
            hit_breakpoint(handle, bp, cmd, t);
            if (one_shot) {
                breaks_.erase(it);
                predicates_.erase(handle);
            }
            return; // at most one break per command
        }
        ++it;
    }
}

void DebuggerEngine::hit_breakpoint(int handle, const Breakpoint& bp,
                                    const link::Command& cmd, rt::SimTime t) {
    ++stats_.breakpoints_hit;
    notify([&](EngineObserver& obs) { obs.on_breakpoint_hit(handle, bp, cmd, t); });
    set_state(EngineState::Paused);
    if (control_.pause) control_.pause();
}

void DebuggerEngine::pause() {
    if (state_ == EngineState::Paused) return;
    set_state(EngineState::Paused);
    if (control_.pause) control_.pause();
}

void DebuggerEngine::resume() {
    if (state_ != EngineState::Paused) return;
    set_state(EngineState::Animating);
    if (control_.resume) control_.resume();
}

void DebuggerEngine::step() {
    if (state_ != EngineState::Paused) return;
    pause_on_next_command_ = true;
    if (control_.step) control_.step(step_filter_);
}

void DebuggerEngine::compile_predicate(int handle, const Breakpoint& bp) {
    if (bp.kind != Breakpoint::Kind::SignalPredicate) return;
    try {
        auto ast = expr::parse(bp.predicate);
        predicates_.insert_or_assign(
            handle, expr::compile(*ast, [&](std::string_view name) -> int {
                auto it = signal_slot_by_name_.find(name);
                return it == signal_slot_by_name_.end() ? -1 : it->second;
            }));
    } catch (const std::exception&) {
        // Malformed predicate: breakpoint exists but never fires.
    }
}

int DebuggerEngine::add_breakpoint(Breakpoint bp) {
    int handle = next_break_++;
    compile_predicate(handle, bp);
    breaks_.emplace(handle, std::move(bp));
    return handle;
}

void DebuggerEngine::restore_breakpoint(int handle, Breakpoint bp) {
    predicates_.erase(handle);
    compile_predicate(handle, bp);
    breaks_.insert_or_assign(handle, std::move(bp));
    if (handle >= next_break_) next_break_ = handle + 1;
}

bool DebuggerEngine::remove_breakpoint(int handle) {
    predicates_.erase(handle);
    return breaks_.erase(handle) > 0;
}

std::optional<double> DebuggerEngine::signal_value(ObjectId signal) const {
    if (auto it = slot_of_signal_.find(signal.raw); it != slot_of_signal_.end()) {
        auto slot = static_cast<std::size_t>(it->second);
        if (!slot_updated_[slot]) return std::nullopt;
        return signal_slots_[slot];
    }
    auto it = signal_values_.find(signal.raw);
    if (it == signal_values_.end()) return std::nullopt;
    return it->second;
}

std::optional<ObjectId> DebuggerEngine::current_state(ObjectId sm) const {
    auto it = current_state_.find(sm.raw);
    if (it == current_state_.end()) return std::nullopt;
    return ObjectId{it->second};
}

void DebuggerEngine::state(rt::StateIo& io) {
    io.enum8(state_, EngineState::Waiting, EngineState::Paused,
             "snapshot engine state is unknown");
    io.b(pause_on_next_command_);
    io.str(step_filter_.actor);
    io.u64(stats_.commands);
    io.u64(stats_.reactions);
    io.u64(stats_.breakpoints_hit);
    io.u64(stats_.divergences);
    io.entries(current_state_, 16, [&](std::uint64_t& sm, std::uint64_t& state) {
        io.u64(sm);
        io.u64(state);
    });
    io.entries(pending_transition_, 12, [&](std::uint64_t& sm, std::uint32_t& tr) {
        io.u64(sm);
        io.u32(tr);
    });
    io.entries(signal_values_, 16, [&](std::uint64_t& sig, double& value) {
        io.u64(sig);
        io.f64(value);
    });
    io.same_count(signal_slots_.size(), "snapshot signal slots do not match this engine");
    io.f64s(signal_slots_);
    io.same_count(slot_updated_.size(), "snapshot signal slots do not match this engine");
    for (std::size_t i = 0; i < slot_updated_.size(); ++i) {
        bool updated = slot_updated_[i];
        io.b(updated);
        slot_updated_[i] = updated;
    }
    io.i32(next_break_);
    io.entries(breaks_, 23, [&](int& handle, Breakpoint& bp) {
        io.i32(handle);
        io.enum8(bp.kind, Breakpoint::Kind::StateEnter, Breakpoint::Kind::SignalPredicate,
                 "snapshot breakpoint kind is unknown");
        io.u64(bp.element.raw);
        io.str(bp.predicate);
        io.b(bp.enabled);
        io.b(bp.one_shot);
    });
    if (io.loading()) {
        // Compiled predicates are derived from the breakpoints: rebuild.
        predicates_.clear();
        for (const auto& [handle, bp] : breaks_) compile_predicate(handle, bp);
    }
}

} // namespace gmdf::core
