#include "codegen/program.hpp"

#include <algorithm>
#include <stdexcept>

namespace gmdf::codegen {

void SubProgram::reset() {
    for (auto& k : kernels) k->reset();
    std::fill(slots_.begin(), slots_.end(), 0.0);
}

void SubProgram::ensure_ready() {
    if (static_cast<int>(slots_.size()) != n_slots) slots_.assign(static_cast<std::size_t>(n_slots), 0.0);
    std::size_t max_in = 1, max_out = 1;
    for (const Step& s : steps) {
        max_in = std::max(max_in, s.in_slots.size());
        max_out = std::max(max_out, s.out_slots.size());
    }
    gather_.resize(max_in);
    scatter_.resize(max_out);
}

void SubProgram::state(rt::StateIo& io) {
    // A program that never ran still has an empty slot array; record the
    // allocated count so restore can tell the two apart.
    io.f64_doubles(slots_);
    for (auto& k : kernels) k->state(io);
}

std::uint64_t SubProgram::run(std::span<const double> in, std::span<double> out, double dt) {
    ensure_ready();
    std::uint64_t cycles = 0;

    for (auto [ext, slot] : ext_in) {
        slots_[static_cast<std::size_t>(slot)] = in[static_cast<std::size_t>(ext)];
        cycles += 2; // one load + one store, as the generated copy loop would
    }

    // Phase A: two-phase kernels (delays) publish last scan's value so
    // every consumer, regardless of order, sees out(k) = in(k-1).
    for (const Step& s : steps) {
        comdes::FBKernel& k = *kernels[s.kernel_index];
        if (!k.is_two_phase()) continue;
        k.publish({scatter_.data(), s.out_slots.size()});
        for (std::size_t i = 0; i < s.out_slots.size(); ++i)
            slots_[static_cast<std::size_t>(s.out_slots[i])] = scatter_[i];
    }

    for (const Step& s : steps) {
        comdes::FBKernel& k = *kernels[s.kernel_index];
        if (k.is_two_phase()) {
            cycles += s.cost; // charged here; executes in the pre/post passes
            continue;
        }
        for (std::size_t i = 0; i < s.in_slots.size(); ++i)
            gather_[i] = s.in_slots[i] < 0 ? 0.0 : slots_[static_cast<std::size_t>(s.in_slots[i])];
        k.step({gather_.data(), s.in_slots.size()},
               {scatter_.data(), s.out_slots.size()}, dt);
        for (std::size_t i = 0; i < s.out_slots.size(); ++i)
            slots_[static_cast<std::size_t>(s.out_slots[i])] = scatter_[i];
        cycles += s.cost;
    }

    // Phase B: delays capture this scan's inputs.
    for (const Step& s : steps) {
        comdes::FBKernel& k = *kernels[s.kernel_index];
        if (!k.is_two_phase()) continue;
        for (std::size_t i = 0; i < s.in_slots.size(); ++i)
            gather_[i] = s.in_slots[i] < 0 ? 0.0 : slots_[static_cast<std::size_t>(s.in_slots[i])];
        k.capture({gather_.data(), s.in_slots.size()});
    }

    for (auto [slot, ext] : ext_out) {
        out[static_cast<std::size_t>(ext)] = slots_[static_cast<std::size_t>(slot)];
        cycles += 2;
    }
    return cycles;
}

} // namespace gmdf::codegen
