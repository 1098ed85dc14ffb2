// Loads a COMDES system model onto the simulated target.
//
// This is the "executable code" half of the paper's user input: actors
// become rt:: tasks running flattened programs; instrumentation options
// select the active command interface (paper Fig. 2: code emits commands
// through extra functional code) and/or the passive memory mirror (state
// variables placed in RAM for JTAG watch).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "codegen/flatten.hpp"
#include "link/commands.hpp"
#include "rt/target.hpp"

namespace gmdf::codegen {

/// What the generated code reports at runtime.
struct InstrumentOptions {
    bool task_events = false;   ///< TASK_START / TASK_END commands
    bool sm_events = false;     ///< STATE_ENTER / TRANSITION / MODE_CHANGE
    bool signal_events = false; ///< SIGNAL_UPDATE on changed actor outputs
    bool memory_mirror = true;  ///< SM states & signals mirrored into RAM

    /// Everything on: the paper's active RS-232 solution.
    [[nodiscard]] static InstrumentOptions active() { return {true, true, true, true}; }
    /// Nothing emitted; RAM mirror only: the passive JTAG solution.
    [[nodiscard]] static InstrumentOptions passive() { return {false, false, false, true}; }
    /// Release build: no debug support at all.
    [[nodiscard]] static InstrumentOptions none() { return {false, false, false, false}; }
};

/// Memory placement of one observable element (SM state / modal mode).
struct ElementMemory {
    meta::ObjectId element;               ///< SM or modal FB
    std::uint32_t addr = 0;               ///< word holding the current index
    std::vector<meta::ObjectId> indexed;  ///< state/mode id by index value
};

/// Task body running a flattened actor program; implements the command
/// interface (active) and the memory mirror (passive).
class ProgramBody final : public rt::TaskBody, public ProgramObserver {
public:
    ProgramBody(SubProgram program, meta::ObjectId actor_id, InstrumentOptions opts);

    /// Installs the program after construction. Needed because kernels
    /// capture the observer (this body) while the program is flattened.
    void set_program(SubProgram program) { program_ = std::move(program); }

    /// Registers the RAM placement for an SM / modal FB of this actor.
    void add_element_memory(ElementMemory em);

    /// Model element ids of the actor's output signals (binding order);
    /// enables SIGNAL_UPDATE emission.
    void set_output_elements(std::vector<meta::ObjectId> ids);

    void reset() override;
    std::uint64_t execute(rt::TaskContext& ctx) override;
    void state(rt::StateIo& io) override;

    // ProgramObserver (called from kernels during execute()):
    void on_state_enter(meta::ObjectId sm, meta::ObjectId state) override;
    void on_transition(meta::ObjectId sm, meta::ObjectId transition) override;
    void on_mode_change(meta::ObjectId modal_fb, meta::ObjectId mode) override;

private:
    void emit(const link::Command& cmd);
    void mirror(meta::ObjectId element, meta::ObjectId value_id);

    SubProgram program_;
    meta::ObjectId actor_;
    InstrumentOptions opts_;
    rt::TaskContext* ctx_ = nullptr;
    std::vector<ElementMemory> elements_;
    std::vector<meta::ObjectId> out_ids_;
    std::vector<double> last_out_;
    bool first_scan_ = true;
    std::vector<std::uint8_t> frame_; ///< emit() scratch, reused across frames
};

/// One loaded actor: where it runs and what can be observed.
struct LoadedActor {
    meta::ObjectId actor;
    std::string name;
    int node = 0;
    std::vector<ElementMemory> elements; ///< SM/modal RAM placements
};

/// Result of loading a system: the element <-> runtime correspondence the
/// debugger needs.
struct LoadedSystem {
    std::vector<LoadedActor> actors;
    std::vector<meta::ObjectId> signal_ids;        ///< by rt signal index
    std::map<std::uint64_t, int> signal_index;     ///< signal element id -> rt index

    /// RAM symbol carrying a signal's latched value (same name on every node).
    [[nodiscard]] static std::string signal_symbol(const std::string& signal_name) {
        return "sig_" + signal_name;
    }
};

/// Generates and loads the whole system: creates signals, nodes (one per
/// distinct actor `node` attribute), tasks, and memory symbols.
/// The model must validate cleanly (validate_comdes) first; loading a
/// broken model throws std::invalid_argument.
/// Call before Target::start().
[[nodiscard]] LoadedSystem load_system(rt::Target& target, const meta::Model& model,
                                       const InstrumentOptions& opts);

} // namespace gmdf::codegen
