// Simulated embedded target: nodes, CPUs, tasks, and state-message signals.
//
// Implements the COMDES execution platform the paper's debugger attaches
// to: Distributed Timed Multitasking. Actors run as periodic tasks on
// per-node CPUs (non-preemptive fixed-priority); task inputs are latched
// at release and outputs are latched at the deadline instant, which
// eliminates I/O jitter. An alternative immediate-output mode exists to
// quantify that claim (bench C2).
//
// The debugger connects in two ways, matching the paper:
//  - active: generated code calls TaskContext::send_debug() — costs target
//    CPU cycles and UART bandwidth (both accounted);
//  - passive: the host reads the node MemoryMap via JTAG with no CPU cost.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "rt/des.hpp"
#include "rt/memory.hpp"

namespace gmdf::rt {

/// Named signal definitions shared by the whole distributed system
/// (COMDES labeled messages). Each node keeps a local replica of the
/// values; the definitions live here. Name lookup is a binary search
/// over a sorted flat vector (signals are added at build time, looked
/// up on hot paths).
class SignalStore {
public:
    /// Adds a signal; returns its index. Throws on duplicate names.
    int add(const std::string& name, double init = 0.0);

    [[nodiscard]] int index_of(std::string_view name) const; ///< -1 when absent
    [[nodiscard]] std::size_t size() const { return names_.size(); }
    [[nodiscard]] const std::string& name(int i) const { return names_[static_cast<std::size_t>(i)]; }
    [[nodiscard]] double init(int i) const { return init_[static_cast<std::size_t>(i)]; }

private:
    std::vector<std::string> names_;
    std::vector<double> init_;
    std::vector<std::pair<std::string, int>> by_name_; ///< sorted by name
};

class Node;
class Target;

/// Execution context handed to a task body for one scan.
class TaskContext {
public:
    /// Input pin values latched at release (order = TaskConfig::input_signals).
    [[nodiscard]] std::span<const double> inputs() const { return in_; }

    /// Output values; latched to signals at the deadline (or immediately,
    /// depending on the target's output mode).
    [[nodiscard]] std::span<double> outputs() { return out_; }

    /// Task period in seconds (the dt of clocked synchronous execution).
    [[nodiscard]] double dt() const { return dt_; }

    [[nodiscard]] SimTime release_time() const { return release_; }

    /// Active command interface: queues one debug frame on the node's
    /// debug UART. Charges instrumentation cycles (frame + per byte).
    void send_debug(std::span<const std::uint8_t> bytes);

    /// Buffers a word write into the node memory map, applied when the
    /// job completes (models the generated code updating its variables).
    void poke_u32(std::uint32_t addr, std::uint32_t value);
    void poke_f32(std::uint32_t addr, float value);

    /// Instrumentation cycles accumulated so far in this scan.
    [[nodiscard]] std::uint64_t instr_cycles() const { return instr_cycles_; }

private:
    friend class Node;
    std::span<const double> in_;
    std::span<double> out_;
    double dt_ = 0.0;
    SimTime release_ = 0;
    std::uint64_t instr_cycles_ = 0;
    std::vector<std::uint8_t> debug_bytes_;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pokes_;
    std::uint32_t uart_cycles_per_byte_ = 0;
    std::uint32_t uart_cycles_per_frame_ = 0;
};

/// One periodic activity (a COMDES actor after code generation).
class TaskBody {
public:
    virtual ~TaskBody() = default;

    /// Re-establishes initial state (integrators, SM states).
    virtual void reset() {}

    /// One scan: read ctx.inputs(), write ctx.outputs(); returns the
    /// application cycles consumed (instrumentation cycles are charged
    /// separately through the context).
    virtual std::uint64_t execute(TaskContext& ctx) = 0;

    /// Checkpoint support: describes the body's mutable state inside its
    /// snapshot block (StateIo::block) — f64 values only, with flags,
    /// indices and counts widened through StateIo's f64_* helpers. One
    /// function serves capture and restore. Stateless bodies keep the
    /// no-op default.
    virtual void state(StateIo& io) { (void)io; }
};

struct TaskConfig {
    std::string name;
    SimTime period = kMs;
    SimTime deadline = 0; ///< 0 means "equals period"
    SimTime offset = 0;
    int priority = 0; ///< lower value = more urgent
    std::vector<int> input_signals;
    std::vector<int> output_signals;
};

/// Per-task execution statistics.
struct TaskStats {
    std::uint64_t releases = 0;
    std::uint64_t completions = 0;
    std::uint64_t overruns = 0;         ///< releases skipped: previous job still running
    std::uint64_t deadline_misses = 0;
    std::uint64_t suppressed = 0;       ///< releases skipped while target paused
    SimTime worst_response = 0;
    /// Output-latch instants relative to release, one per completion
    /// (the jitter study reads these).
    std::vector<SimTime> output_offsets;
};

/// Debug UART cost/wire model for the active command interface.
struct UartModel {
    double baud = 115'200;
    std::uint32_t cycles_per_byte = 100; ///< CPU cost to enqueue one byte
    std::uint32_t cycles_per_frame = 60; ///< CPU cost per send_debug call
};

enum class OutputMode { LatchAtDeadline, Immediate };

/// Host-side delivery of active-mode debug bytes (after wire delay).
using ByteSink = std::function<void(int node_id, std::span<const std::uint8_t>, SimTime)>;

/// One processing node: CPU + RAM + local signal replica + debug UART.
class Node {
public:
    Node(Target& target, int id, double clock_hz);

    Node(const Node&) = delete;
    Node& operator=(const Node&) = delete;

    [[nodiscard]] int id() const { return id_; }
    [[nodiscard]] double clock_hz() const { return clock_hz_; }

    [[nodiscard]] MemoryMap& memory() { return memory_; }
    [[nodiscard]] const MemoryMap& memory() const { return memory_; }

    /// Registers a periodic task; call before Target::start().
    void add_task(TaskConfig cfg, std::unique_ptr<TaskBody> body);

    /// Local replica of a signal value.
    [[nodiscard]] double signal(int index) const {
        return local_signals_[static_cast<std::size_t>(index)];
    }

    /// Writes a local signal and propagates it to all other nodes
    /// (used by the environment/test harness; tasks publish via outputs).
    void publish_signal(int index, double value);

    /// Mirrors a signal into the memory map at every publish (passive
    /// debugging reads it from there).
    void map_signal_memory(int sig_index, std::uint32_t addr);

    [[nodiscard]] const TaskStats& task_stats(std::string_view task_name) const;
    [[nodiscard]] std::uint64_t app_cycles() const { return app_cycles_; }
    [[nodiscard]] std::uint64_t instr_cycles() const { return instr_cycles_; }

    /// Fraction of wall time the CPU was busy over [0, elapsed].
    [[nodiscard]] double cpu_utilization(SimTime elapsed) const;

private:
    friend class Target;
    friend class TaskContext;

    struct Task {
        TaskConfig cfg;
        std::unique_ptr<TaskBody> body;
        std::vector<double> in_latch;
        TaskStats stats;
        bool job_pending = false;
        std::size_t index = 0; ///< position in tasks_ (op serialization)
    };

    void start_tasks();
    void on_release(Task& task);
    void start_next_job();
    void complete_job(std::size_t task_index, SimTime release, std::vector<double> out,
                      std::vector<std::pair<std::uint32_t, std::uint32_t>> pokes,
                      std::vector<std::uint8_t> bytes);
    void finish_job(Task& task, SimTime release, std::vector<double> out);
    void latch_outputs(Task& task, SimTime release, const std::vector<double>& out);
    void set_local_signal(int index, double value);
    void state(StateIo& io);

    Target* target_;
    int id_;
    double clock_hz_;
    MemoryMap memory_;
    std::vector<std::unique_ptr<Task>> tasks_;
    std::vector<double> local_signals_;
    std::map<int, std::uint32_t> signal_memory_;

    struct ReadyJob {
        Task* task;
        SimTime release;
        std::uint64_t seq;
    };
    std::deque<ReadyJob> ready_;
    bool cpu_busy_ = false;
    std::uint64_t job_seq_ = 0;
    std::uint64_t app_cycles_ = 0;
    std::uint64_t instr_cycles_ = 0;
    std::uint64_t busy_ns_ = 0;
    SimTime uart_busy_until_ = 0;
};

/// The whole simulated platform: simulator + nodes + broadcast network.
///
/// Checkpoint/restore: every one-shot simulator event the platform
/// schedules (job completions, deferred output latches, network
/// deliveries, debug-UART deliveries, scheduled environment stimuli)
/// flows through a typed pending-operation registry, so a snapshot can
/// serialize the in-flight work as data and a restore can re-create it
/// with the original dispatch ordering. Environment/test harnesses that
/// want their stimuli to survive a rewind must use schedule_publish()
/// instead of scheduling raw closures on sim().
class Target {
public:
    explicit Target(OutputMode mode = OutputMode::LatchAtDeadline) : mode_(mode) {}

    [[nodiscard]] Simulator& sim() { return sim_; }
    [[nodiscard]] SignalStore& signals() { return signals_; }
    [[nodiscard]] const SignalStore& signals() const { return signals_; }

    /// Adds a node (default clock models a small ARM7-class MCU).
    Node& add_node(double clock_hz = 48e6);

    [[nodiscard]] Node& node(int id) { return *nodes_[static_cast<std::size_t>(id)]; }
    [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }

    /// One-hop delivery latency for signal propagation between nodes.
    void set_network_latency(SimTime latency) { net_latency_ = latency; }
    [[nodiscard]] SimTime network_latency() const { return net_latency_; }

    void set_uart(UartModel uart) { uart_ = uart; }
    [[nodiscard]] const UartModel& uart() const { return uart_; }

    /// Receives all active-mode debug traffic (the debugger host).
    void set_debug_sink(ByteSink sink) { debug_sink_ = std::move(sink); }

    [[nodiscard]] OutputMode output_mode() const { return mode_; }

    /// Initializes node signal replicas and schedules periodic releases.
    /// Call exactly once, before running the simulator.
    void start();

    /// Runs the simulation forward by `duration`. With a fault armed
    /// (inject_fault_at) whose instant falls inside the span, runs up to
    /// that instant, disarms the hook, and throws std::runtime_error.
    void run_for(SimTime duration);

    /// Arms a one-shot deterministic fault: the first run_for whose span
    /// reaches `at` advances the clock to `at` and throws `message` as a
    /// std::runtime_error. Testing/chaos hook for the hub's session
    /// crash isolation; one-shot so a revived session runs clean, and
    /// deliberately NOT serialized into snapshots (a restored timeline
    /// replays the healthy execution).
    void inject_fault_at(SimTime at, std::string message) {
        fault_at_ = at;
        fault_message_ = std::move(message);
    }
    [[nodiscard]] bool fault_armed() const { return fault_at_ >= 0; }

    /// Target halt control (what a JTAG halt / model-level breakpoint
    /// does): while paused, task releases are suppressed.
    void pause() { paused_ = true; }
    void resume() { paused_ = false; single_step_ = false; }
    [[nodiscard]] bool paused() const { return paused_; }

    /// Lets exactly one task release execute, then re-pauses. When
    /// `task_filter` is non-empty only a release of that task consumes
    /// the step (model-level stepping of one actor).
    void request_single_step(std::string task_filter = {}) {
        single_step_ = true;
        step_filter_ = std::move(task_filter);
    }

    /// Total instrumentation cycles across all nodes.
    [[nodiscard]] std::uint64_t total_instr_cycles() const;

    /// Schedules a rewind-safe environment stimulus: at time `at`,
    /// node `node` publishes `value` on signal `sig_index`. Unlike a raw
    /// sim().at() closure, the stimulus lives in the pending-operation
    /// registry and survives checkpoint/restore.
    void schedule_publish(SimTime at, int node, int sig_index, double value);

    /// The whole platform: simulator, pause/step state, the
    /// pending-operation registry, and every node (RAM, signal replicas,
    /// scheduler state, task statistics, task-body state). Capture throws
    /// std::runtime_error when a one-shot simulator event exists outside
    /// the registry (a raw closure that could not be restored). Restore
    /// is in place, onto the platform the snapshot was taken from, and
    /// checks every restored op and index against it.
    void state(StateIo& io);

private:
    friend class Node;
    friend class TaskContext;

    /// One serialized in-flight operation (the data behind what used to
    /// be a one-shot closure).
    struct PendingOp {
        enum class Kind : std::uint8_t {
            JobComplete = 1,  ///< apply pokes, emit UART bytes, finish the job
            OutputLatch = 2,  ///< timed-multitasking deferred output latch
            NetDeliver = 3,   ///< one-hop signal delivery to another node
            DebugDeliver = 4, ///< debug bytes reach the host sink
            PublishSignal = 5 ///< scheduled environment stimulus
        };
        Kind kind = Kind::JobComplete;
        int node = 0;
        std::size_t task = 0;
        SimTime release = 0;
        int sig = 0;
        double value = 0.0;
        std::vector<double> out;
        std::vector<std::pair<std::uint32_t, std::uint32_t>> pokes;
        std::vector<std::uint8_t> bytes;
    };
    struct PendingOpRec {
        PendingOp op;
        SimTime t = 0;
        std::uint64_t seq = 0;
    };

    void schedule_op(SimTime t, PendingOp op);
    void run_op(std::uint64_t id);
    void dispatch_op(PendingOp op);

    void broadcast(int from_node, int sig_index, double value);
    void deliver_debug(int node_id, std::vector<std::uint8_t> bytes, SimTime at);

    Simulator sim_;
    SignalStore signals_;
    std::vector<std::unique_ptr<Node>> nodes_;
    OutputMode mode_;
    SimTime net_latency_ = 200 * kUs;
    UartModel uart_;
    ByteSink debug_sink_;
    bool started_ = false;
    SimTime fault_at_ = -1; ///< armed one-shot fault instant; -1: disarmed
    std::string fault_message_;
    bool paused_ = false;
    bool single_step_ = false;
    std::string step_filter_;
    std::map<std::uint64_t, PendingOpRec> ops_; ///< in-flight one-shot work
    std::uint64_t next_op_ = 1;
};

} // namespace gmdf::rt
