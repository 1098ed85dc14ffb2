#include "rt/des.hpp"

#include <algorithm>
#include <stdexcept>

namespace gmdf::rt {

void Simulator::push(Event ev) {
    queue_.push_back(std::move(ev));
    std::push_heap(queue_.begin(), queue_.end(), Later{});
}

Simulator::Event Simulator::pop() {
    std::pop_heap(queue_.begin(), queue_.end(), Later{});
    Event ev = std::move(queue_.back());
    queue_.pop_back();
    return ev;
}

Simulator::ScheduledEvent Simulator::at(SimTime t, std::function<void()> fn) {
    if (t < now_) throw std::invalid_argument("cannot schedule event in the past");
    ScheduledEvent handle{next_id_++, seq_++};
    push({t, handle.seq, std::move(fn), 0, handle.id});
    return handle;
}

Simulator::ScheduledEvent Simulator::every(SimTime start, SimTime period,
                                           std::function<void()> fn) {
    if (period <= 0) throw std::invalid_argument("period must be positive");
    if (start < now_) throw std::invalid_argument("cannot schedule event in the past");
    // One closure for the task's whole lifetime: step() re-arms periodic
    // events by moving the same Event back into the queue, so a periodic
    // tick allocates nothing.
    ScheduledEvent handle{next_id_++, seq_++};
    push({start, handle.seq, std::move(fn), period, handle.id});
    return handle;
}

void Simulator::schedule_restored(SimTime t, std::uint64_t seq,
                                  std::function<void()> fn) {
    // One-shot ids are never matched (only periodic events restore by
    // id), and consuming next_id_ here would make a restored simulator
    // drift from the original id sequence — breaking bit-identical
    // re-capture. Restored one-shots use the reserved id 0.
    push({t, seq, std::move(fn), 0, 0});
}

bool Simulator::step() {
    if (queue_.empty()) return false;
    Event ev = pop();
    now_ = ev.t;
    ev.fn();
    if (ev.period > 0) {
        // Re-arm after the handler, matching one-shot ordering: events
        // the handler scheduled get earlier sequence numbers.
        ev.t += ev.period;
        ev.seq = seq_++;
        push(std::move(ev));
    }
    return true;
}

void Simulator::run_until(SimTime horizon) {
    while (!queue_.empty() && queue_.front().t <= horizon) step();
    if (now_ < horizon) now_ = horizon;
}

void Simulator::run_all() {
    while (step()) {}
}

std::size_t Simulator::pending_one_shot() const {
    std::size_t n = 0;
    for (const Event& ev : queue_)
        if (ev.period == 0) ++n;
    return n;
}

void Simulator::state(StateIo& io) {
    io.i64(now_);
    io.check(now_ >= 0, "snapshot clock is negative");
    io.u64(seq_);
    io.u64(next_id_);
    // Canonical order (by id), not heap-layout order: the heap's vector
    // layout is rebuilt on restore, and a snapshot of the restored
    // simulator must be bit-identical to the original.
    struct Periodic {
        std::uint64_t id = 0;
        SimTime t = 0;
        std::uint64_t seq = 0;
        SimTime period = 0;
    };
    std::vector<Periodic> periodic;
    for (const Event& ev : queue_)
        if (ev.period > 0) periodic.push_back({ev.id, ev.t, ev.seq, ev.period});
    auto by_id = [](const Periodic& a, const Periodic& b) { return a.id < b.id; };
    std::sort(periodic.begin(), periodic.end(), by_id);
    io.items(periodic, 32, [&](Periodic& p) {
        io.u64(p.id);
        io.i64(p.t);
        io.u64(p.seq);
        io.i64(p.period);
        io.check(p.period > 0, "snapshot periodic event has a non-positive period");
        io.check(p.t >= now_, "snapshot event is due before the snapshot clock");
    });
    if (io.loading()) {
        // One-shots are dropped (their owners re-create them); periodic
        // events registered after the snapshot didn't exist then and are
        // dropped too; surviving periodic events rewind to their recorded
        // fire time and sequence number. Every recorded id is matched
        // before anything moves.
        io.check(std::adjacent_find(periodic.begin(), periodic.end(),
                                    [](const Periodic& a, const Periodic& b) {
                                        return a.id >= b.id;
                                    }) == periodic.end(),
                 "snapshot periodic events are not in id order");
        auto find = [&](std::uint64_t id) {
            auto it = std::lower_bound(periodic.begin(), periodic.end(), Periodic{id}, by_id);
            return it != periodic.end() && it->id == id ? &*it : nullptr;
        };
        std::size_t live = 0;
        for (const Event& ev : queue_)
            if (ev.period > 0 && find(ev.id) != nullptr) ++live;
        io.check(live == periodic.size(),
                 "snapshot names a periodic event that no longer exists");
        std::vector<Event> kept;
        kept.reserve(queue_.size());
        for (Event& ev : queue_) {
            const Periodic* p = ev.period > 0 ? find(ev.id) : nullptr;
            if (p == nullptr) continue;
            ev.t = p->t;
            ev.seq = p->seq;
            ev.period = p->period;
            kept.push_back(std::move(ev));
        }
        queue_ = std::move(kept);
        std::make_heap(queue_.begin(), queue_.end(), Later{});
    }
}

} // namespace gmdf::rt
