// Simulated target memory map.
//
// The passive (JTAG) debug path reads target RAM without involving the
// CPU. Generated code places its observable variables (current SM states,
// latched signal values) at known addresses; the debugger polls them via
// the JTAG memory-access port.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "rt/state.hpp"

namespace gmdf::rt {

/// Word-addressed RAM image with a symbol table. Addresses are byte
/// addresses, 4-byte aligned; cells are 32-bit words.
class MemoryMap {
public:
    /// Base address of the first allocated word (mimics an MCU SRAM base).
    static constexpr std::uint32_t kBase = 0x2000'0000;

    /// Allocates one word for `name`; returns its byte address.
    /// Throws std::invalid_argument on duplicate names.
    std::uint32_t alloc(const std::string& name);

    /// Address of a symbol; throws std::out_of_range when unknown.
    [[nodiscard]] std::uint32_t address_of(std::string_view name) const;

    [[nodiscard]] bool has_symbol(std::string_view name) const;

    /// Word access; throws std::out_of_range for unmapped/unaligned addresses.
    [[nodiscard]] std::uint32_t read_u32(std::uint32_t addr) const;
    void write_u32(std::uint32_t addr, std::uint32_t value);

    /// Float access (IEEE-754 single, as the generated code would store).
    [[nodiscard]] float read_f32(std::uint32_t addr) const {
        return std::bit_cast<float>(read_u32(addr));
    }
    void write_f32(std::uint32_t addr, float value) {
        write_u32(addr, std::bit_cast<std::uint32_t>(value));
    }

    [[nodiscard]] std::size_t word_count() const { return words_.size(); }

    /// Symbol table in allocation order: (name, address).
    [[nodiscard]] const std::vector<std::pair<std::string, std::uint32_t>>& symbols() const {
        return symbols_;
    }

    /// The RAM image (words only — the symbol table is fixed at load
    /// time and shared by every snapshot of the same system). Restore
    /// throws std::runtime_error when the snapshot's word count differs
    /// from this map's layout.
    void state(StateIo& io);

private:
    [[nodiscard]] std::size_t index_of(std::uint32_t addr) const;

    std::vector<std::uint32_t> words_;
    std::vector<std::pair<std::string, std::uint32_t>> symbols_;
    std::vector<std::pair<std::string, std::uint32_t>> by_name_; ///< sorted by name
};

} // namespace gmdf::rt
