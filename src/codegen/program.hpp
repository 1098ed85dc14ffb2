// Executable program IR produced by model transformation.
//
// The code generator flattens a COMDES actor network into a SubProgram: a
// net-list of function-block kernels over a persistent slot array, plus
// external input/output maps. The rt:: layer executes it inside a
// TimedTask exactly where generated C would run on the real target.
//
// Nested structure (composite / modal FBs) is preserved as kernels that
// own nested SubPrograms, so observers see events from any depth.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "comdes/fblib.hpp"
#include "meta/value.hpp"

namespace gmdf::codegen {

/// Extends the state-machine observer with modal-FB mode changes; the
/// debugger instrumentation implements this interface.
class ProgramObserver : public comdes::SmObserver {
public:
    virtual void on_mode_change(meta::ObjectId modal_fb, meta::ObjectId mode) = 0;
};

/// One kernel invocation in dataflow order.
struct Step {
    std::size_t kernel_index = 0;
    /// Slot per kernel input pin; -1 reads constant zero.
    std::vector<int> in_slots;
    /// Slot per kernel output pin.
    std::vector<int> out_slots;
    /// Model element this step was generated from (debugger correlation).
    meta::ObjectId source;
    /// WCET-style static cycle estimate, precomputed at flatten time.
    std::uint32_t cost = 0;
};

/// A flattened network: kernels + steps over a persistent slot array.
/// Slots persist across runs, which gives delay_ blocks their semantics
/// (a consumer ordered before the producer reads last scan's value).
class SubProgram {
public:
    int n_slots = 0;
    std::vector<std::unique_ptr<comdes::FBKernel>> kernels;
    std::vector<Step> steps;
    /// (external input index, slot): copied in before the steps run.
    std::vector<std::pair<int, int>> ext_in;
    /// (slot, external output index): copied out after the steps run.
    std::vector<std::pair<int, int>> ext_out;

    /// Resets kernels and clears all slots to zero.
    void reset();

    /// One synchronous scan; returns consumed cycles (steps + copy cost).
    std::uint64_t run(std::span<const double> in, std::span<double> out, double dt);

    /// Checkpoint support: the slot array + every kernel's internal state,
    /// inside the owning body's snapshot block (see
    /// comdes::FBKernel::state).
    void state(rt::StateIo& io);

private:
    void ensure_ready();

    std::vector<double> slots_;
    std::vector<double> gather_;
    std::vector<double> scatter_;
};

} // namespace gmdf::codegen
