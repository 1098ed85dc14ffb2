#include "rt/target.hpp"

#include <cmath>
#include <stdexcept>

#include "rt/symtab.hpp"

namespace gmdf::rt {

int SignalStore::add(const std::string& name, double init) {
    auto it = name_lower_bound(by_name_, name);
    if (it != by_name_.end() && it->first == name)
        throw std::invalid_argument("duplicate signal '" + name + "'");
    int idx = static_cast<int>(names_.size());
    names_.push_back(name);
    init_.push_back(init);
    by_name_.emplace(it, name, idx);
    return idx;
}

int SignalStore::index_of(std::string_view name) const {
    auto it = name_lower_bound(by_name_, name);
    return it == by_name_.end() || it->first != name ? -1 : it->second;
}

void TaskContext::send_debug(std::span<const std::uint8_t> bytes) {
    instr_cycles_ += uart_cycles_per_frame_ +
                     uart_cycles_per_byte_ * static_cast<std::uint64_t>(bytes.size());
    debug_bytes_.insert(debug_bytes_.end(), bytes.begin(), bytes.end());
}

void TaskContext::poke_u32(std::uint32_t addr, std::uint32_t value) {
    pokes_.emplace_back(addr, value);
}

void TaskContext::poke_f32(std::uint32_t addr, float value) {
    poke_u32(addr, std::bit_cast<std::uint32_t>(value));
}

Node::Node(Target& target, int id, double clock_hz)
    : target_(&target), id_(id), clock_hz_(clock_hz) {}

void Node::add_task(TaskConfig cfg, std::unique_ptr<TaskBody> body) {
    if (cfg.period <= 0) throw std::invalid_argument("task period must be positive");
    if (cfg.deadline == 0) cfg.deadline = cfg.period;
    if (cfg.deadline < 0 || cfg.deadline > cfg.period)
        throw std::invalid_argument("task deadline must be in (0, period]");
    auto task = std::make_unique<Task>();
    task->cfg = std::move(cfg);
    task->body = std::move(body);
    task->in_latch.resize(task->cfg.input_signals.size());
    task->index = tasks_.size();
    tasks_.push_back(std::move(task));
}

void Node::publish_signal(int index, double value) {
    set_local_signal(index, value);
    target_->broadcast(id_, index, value);
}

void Node::map_signal_memory(int sig_index, std::uint32_t addr) {
    signal_memory_[sig_index] = addr;
}

const TaskStats& Node::task_stats(std::string_view task_name) const {
    for (const auto& t : tasks_)
        if (t->cfg.name == task_name) return t->stats;
    throw std::out_of_range("no task '" + std::string(task_name) + "' on node " +
                            std::to_string(id_));
}

double Node::cpu_utilization(SimTime elapsed) const {
    return elapsed <= 0 ? 0.0
                        : static_cast<double>(busy_ns_) / static_cast<double>(elapsed);
}

void Node::start_tasks() {
    local_signals_.resize(target_->signals_.size());
    for (std::size_t i = 0; i < local_signals_.size(); ++i)
        set_local_signal(static_cast<int>(i), target_->signals_.init(static_cast<int>(i)));
    for (auto& task : tasks_) {
        Task* t = task.get();
        target_->sim_.every(t->cfg.offset == 0 ? t->cfg.period : t->cfg.offset,
                            t->cfg.period, [this, t] { on_release(*t); });
    }
}

void Node::on_release(Task& task) {
    if (target_->paused_) {
        bool matches = target_->single_step_ &&
                       (target_->step_filter_.empty() ||
                        target_->step_filter_ == task.cfg.name);
        if (!matches) {
            ++task.stats.suppressed;
            return;
        }
        target_->single_step_ = false; // consume the single-step budget
    }
    if (task.job_pending) {
        ++task.stats.overruns;
        return;
    }
    ++task.stats.releases;
    task.job_pending = true;
    // Input latch: copy the signal replica at the release instant.
    for (std::size_t i = 0; i < task.cfg.input_signals.size(); ++i)
        task.in_latch[i] = local_signals_[static_cast<std::size_t>(task.cfg.input_signals[i])];
    ready_.push_back({&task, target_->sim_.now(), job_seq_++});
    if (!cpu_busy_) start_next_job();
}

void Node::start_next_job() {
    if (ready_.empty()) {
        cpu_busy_ = false;
        return;
    }
    // Non-preemptive fixed priority: pick the most urgent ready job
    // (lowest priority value), FIFO within a priority level.
    std::size_t best = 0;
    for (std::size_t i = 1; i < ready_.size(); ++i) {
        if (ready_[i].task->cfg.priority < ready_[best].task->cfg.priority) best = i;
    }
    ReadyJob job = ready_[best];
    ready_.erase(ready_.begin() + static_cast<std::ptrdiff_t>(best));
    cpu_busy_ = true;

    Task& task = *job.task;
    // Each job owns its output buffer: a deferred deadline latch of job k
    // must not be clobbered by job k+1 executing before it fires.
    std::vector<double> job_out(task.cfg.output_signals.size(), 0.0);
    TaskContext ctx;
    ctx.in_ = task.in_latch;
    ctx.out_ = job_out;
    ctx.dt_ = static_cast<double>(task.cfg.period) / static_cast<double>(kSec);
    ctx.release_ = job.release;
    ctx.uart_cycles_per_byte_ = target_->uart_.cycles_per_byte;
    ctx.uart_cycles_per_frame_ = target_->uart_.cycles_per_frame;

    std::uint64_t app = task.body->execute(ctx);
    app_cycles_ += app;
    instr_cycles_ += ctx.instr_cycles_;

    std::uint64_t total_cycles = app + ctx.instr_cycles_;
    auto duration = static_cast<SimTime>(
        std::ceil(static_cast<double>(total_cycles) / clock_hz_ * static_cast<double>(kSec)));
    busy_ns_ += static_cast<std::uint64_t>(duration);

    SimTime completion = target_->sim_.now() + duration;
    // Completion applies memory pokes, emits debug bytes, and hands the
    // outputs to the latch policy. Scheduled as a typed pending op so a
    // checkpoint can serialize the in-flight job.
    Target::PendingOp op;
    op.kind = Target::PendingOp::Kind::JobComplete;
    op.node = id_;
    op.task = task.index;
    op.release = job.release;
    op.out = std::move(job_out);
    op.pokes = std::move(ctx.pokes_);
    op.bytes = std::move(ctx.debug_bytes_);
    target_->schedule_op(completion, std::move(op));
}

void Node::complete_job(std::size_t task_index, SimTime release,
                        std::vector<double> out,
                        std::vector<std::pair<std::uint32_t, std::uint32_t>> pokes,
                        std::vector<std::uint8_t> bytes) {
    for (auto [addr, value] : pokes) memory_.write_u32(addr, value);
    if (!bytes.empty()) {
        // Serialized UART wire: 10 bits per byte (8N1 framing).
        SimTime start = std::max(target_->sim_.now(), uart_busy_until_);
        auto wire_ns = static_cast<SimTime>(
            static_cast<double>(bytes.size()) * 10.0 / target_->uart_.baud *
            static_cast<double>(kSec));
        uart_busy_until_ = start + wire_ns;
        target_->deliver_debug(id_, std::move(bytes), uart_busy_until_);
    }
    finish_job(*tasks_[task_index], release, std::move(out));
    start_next_job();
}

void Node::finish_job(Task& task, SimTime release, std::vector<double> out) {
    SimTime now = target_->sim_.now();
    ++task.stats.completions;
    task.stats.worst_response = std::max(task.stats.worst_response, now - release);
    task.job_pending = false;

    SimTime deadline_at = release + task.cfg.deadline;
    if (target_->mode_ == OutputMode::Immediate) {
        latch_outputs(task, release, out);
        return;
    }
    if (now > deadline_at) {
        ++task.stats.deadline_misses;
        latch_outputs(task, release, out); // late latch, recorded as a miss
        return;
    }
    // Timed multitasking: defer the output latch to the deadline instant.
    Target::PendingOp op;
    op.kind = Target::PendingOp::Kind::OutputLatch;
    op.node = id_;
    op.task = task.index;
    op.release = release;
    op.out = std::move(out);
    target_->schedule_op(deadline_at, std::move(op));
}

void Node::latch_outputs(Task& task, SimTime release, const std::vector<double>& out) {
    SimTime now = target_->sim_.now();
    task.stats.output_offsets.push_back(now - release);
    for (std::size_t i = 0; i < task.cfg.output_signals.size(); ++i)
        publish_signal(task.cfg.output_signals[i], out[i]);
}

void Node::state(StateIo& io) {
    memory_.state(io);
    io.same_count(local_signals_.size(), "snapshot signal replica does not match this node");
    io.f64s(local_signals_);
    io.b(cpu_busy_);
    io.u64(job_seq_);
    io.u64(app_cycles_);
    io.u64(instr_cycles_);
    io.u64(busy_ns_);
    io.i64(uart_busy_until_);
    const SimTime now = target_->sim_.now();
    io.items(ready_, 24, [&](ReadyJob& j) {
        std::size_t task = j.task != nullptr ? j.task->index : 0;
        io.u64(task);
        io.index(task, tasks_.size(), "snapshot ready-queue names an unknown task");
        j.task = tasks_[task].get();
        io.i64(j.release);
        io.u64(j.seq);
        io.check(j.release >= 0 && j.release <= now,
                 "snapshot job was released outside the snapshot clock");
    });
    io.same_count(tasks_.size(), "snapshot task count does not match this node");
    for (auto& t : tasks_) {
        io.same_count(t->in_latch.size(), "snapshot input latch does not match its task");
        io.f64s(t->in_latch);
        io.b(t->job_pending);
        TaskStats& s = t->stats;
        io.u64(s.releases);
        io.u64(s.completions);
        io.u64(s.overruns);
        io.u64(s.deadline_misses);
        io.u64(s.suppressed);
        io.i64(s.worst_response);
        io.items(s.output_offsets, 8, [&](SimTime& o) { io.i64(o); });
        io.block([&] { t->body->state(io); });
    }
}

void Node::set_local_signal(int index, double value) {
    local_signals_[static_cast<std::size_t>(index)] = value;
    auto it = signal_memory_.find(index);
    if (it != signal_memory_.end())
        memory_.write_f32(it->second, static_cast<float>(value));
}

Node& Target::add_node(double clock_hz) {
    if (started_) throw std::logic_error("cannot add nodes after start()");
    nodes_.push_back(std::make_unique<Node>(*this, static_cast<int>(nodes_.size()), clock_hz));
    return *nodes_.back();
}

void Target::start() {
    if (started_) throw std::logic_error("Target::start() called twice");
    started_ = true;
    for (auto& n : nodes_) n->start_tasks();
}

void Target::run_for(SimTime duration) {
    SimTime horizon = sim_.now() + duration;
    if (fault_at_ >= 0 && fault_at_ <= horizon) {
        SimTime at = fault_at_;
        if (at > sim_.now()) sim_.run_until(at);
        fault_at_ = -1; // one-shot: a revived session runs clean
        std::string message = std::move(fault_message_);
        fault_message_.clear();
        throw std::runtime_error(message.empty() ? "injected fault" : message);
    }
    sim_.run_until(horizon);
}

std::uint64_t Target::total_instr_cycles() const {
    std::uint64_t total = 0;
    for (const auto& n : nodes_) total += n->instr_cycles();
    return total;
}

void Target::state(StateIo& io) {
    io.check(started_, "cannot snapshot a target before start()");
    sim_.state(io);
    io.b(paused_);
    io.b(single_step_);
    io.str(step_filter_);
    io.u64(next_op_);
    const SimTime now = sim_.now();
    // id, t, seq, kind, node, task, release, sig, value + three counts
    constexpr std::size_t kOpMinBytes = 81;
    io.entries(ops_, kOpMinBytes, [&](std::uint64_t& id, PendingOpRec& rec) {
        io.u64(id);
        io.i64(rec.t);
        io.u64(rec.seq);
        PendingOp& op = rec.op;
        io.enum8(op.kind, PendingOp::Kind::JobComplete, PendingOp::Kind::PublishSignal,
                 "snapshot op kind is unknown");
        io.i32(op.node);
        io.u64(op.task);
        io.i64(op.release);
        io.i32(op.sig);
        io.f64(op.value);
        io.doubles(op.out);
        io.items(op.pokes, 8, [&](std::pair<std::uint32_t, std::uint32_t>& p) {
            io.u32(p.first);
            io.u32(p.second);
        });
        io.bytes(op.bytes);
        io.check(rec.t >= now, "snapshot event is due before the snapshot clock");
        io.index(op.node, nodes_.size(), "snapshot op names an unknown node");
        switch (op.kind) {
        case PendingOp::Kind::JobComplete:
        case PendingOp::Kind::OutputLatch: {
            const Node& n = *nodes_[static_cast<std::size_t>(op.node)];
            io.index(op.task, n.tasks_.size(), "snapshot op names an unknown task");
            io.check(op.out.size() == n.tasks_[op.task]->cfg.output_signals.size(),
                     "snapshot op outputs do not match its task");
            io.check(op.release >= 0 && op.release <= now,
                     "snapshot job was released outside the snapshot clock");
            break;
        }
        case PendingOp::Kind::NetDeliver:
        case PendingOp::Kind::PublishSignal:
            io.index(op.sig, signals_.size(), "snapshot op names an unknown signal");
            break;
        case PendingOp::Kind::DebugDeliver:
            break;
        }
    });
    if (io.loading()) {
        // The simulator dropped every one-shot; re-create the registry's
        // with their original sequence numbers, so same-time ties break
        // exactly as in the recorded run.
        for (const auto& entry : ops_) {
            std::uint64_t id = entry.first;
            sim_.schedule_restored(entry.second.t, entry.second.seq,
                                   [this, id] { run_op(id); });
        }
    }
    io.same_count(nodes_.size(), "snapshot node count does not match this target");
    for (auto& n : nodes_) n->state(io);
    io.check(sim_.pending_one_shot() == ops_.size(),
             "one-shot simulator events pending outside the op registry "
             "(raw closures cannot be restored)");
}

void Target::broadcast(int from_node, int sig_index, double value) {
    for (auto& n : nodes_) {
        if (n->id() == from_node) continue;
        PendingOp op;
        op.kind = PendingOp::Kind::NetDeliver;
        op.node = n->id();
        op.sig = sig_index;
        op.value = value;
        schedule_op(sim_.now() + net_latency_, std::move(op));
    }
}

void Target::deliver_debug(int node_id, std::vector<std::uint8_t> bytes, SimTime at) {
    if (!debug_sink_) return;
    PendingOp op;
    op.kind = PendingOp::Kind::DebugDeliver;
    op.node = node_id;
    op.bytes = std::move(bytes);
    schedule_op(at, std::move(op));
}

void Target::schedule_publish(SimTime at, int node, int sig_index, double value) {
    PendingOp op;
    op.kind = PendingOp::Kind::PublishSignal;
    op.node = node;
    op.sig = sig_index;
    op.value = value;
    schedule_op(at, std::move(op));
}

void Target::schedule_op(SimTime t, PendingOp op) {
    std::uint64_t id = next_op_++;
    Simulator::ScheduledEvent ev = sim_.at(t, [this, id] { run_op(id); });
    ops_.emplace(id, PendingOpRec{std::move(op), t, ev.seq});
}

void Target::run_op(std::uint64_t id) {
    auto it = ops_.find(id);
    if (it == ops_.end()) return; // dropped by a restore between schedule and fire
    PendingOp op = std::move(it->second.op);
    ops_.erase(it);
    dispatch_op(std::move(op));
}

void Target::dispatch_op(PendingOp op) {
    switch (op.kind) {
    case PendingOp::Kind::JobComplete:
        nodes_[static_cast<std::size_t>(op.node)]->complete_job(
            op.task, op.release, std::move(op.out), std::move(op.pokes),
            std::move(op.bytes));
        break;
    case PendingOp::Kind::OutputLatch: {
        Node& n = *nodes_[static_cast<std::size_t>(op.node)];
        n.latch_outputs(*n.tasks_[op.task], op.release, op.out);
        break;
    }
    case PendingOp::Kind::NetDeliver:
        nodes_[static_cast<std::size_t>(op.node)]->set_local_signal(op.sig, op.value);
        break;
    case PendingOp::Kind::DebugDeliver:
        if (debug_sink_) debug_sink_(op.node, op.bytes, sim_.now());
        break;
    case PendingOp::Kind::PublishSignal:
        nodes_[static_cast<std::size_t>(op.node)]->publish_signal(op.sig, op.value);
        break;
    }
}

} // namespace gmdf::rt
