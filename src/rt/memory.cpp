#include "rt/memory.hpp"

#include <stdexcept>

#include "rt/symtab.hpp"

namespace gmdf::rt {

std::uint32_t MemoryMap::alloc(const std::string& name) {
    auto it = name_lower_bound(by_name_, name);
    if (it != by_name_.end() && it->first == name)
        throw std::invalid_argument("memory symbol '" + name + "' already allocated");
    std::uint32_t addr = kBase + static_cast<std::uint32_t>(words_.size()) * 4u;
    words_.push_back(0);
    symbols_.emplace_back(name, addr);
    by_name_.emplace(it, name, addr);
    return addr;
}

std::uint32_t MemoryMap::address_of(std::string_view name) const {
    auto it = name_lower_bound(by_name_, name);
    if (it == by_name_.end() || it->first != name)
        throw std::out_of_range("no memory symbol '" + std::string(name) + "'");
    return it->second;
}

bool MemoryMap::has_symbol(std::string_view name) const {
    auto it = name_lower_bound(by_name_, name);
    return it != by_name_.end() && it->first == name;
}

std::size_t MemoryMap::index_of(std::uint32_t addr) const {
    if (addr < kBase || (addr - kBase) % 4 != 0)
        throw std::out_of_range("unaligned or out-of-range address");
    std::size_t idx = (addr - kBase) / 4;
    if (idx >= words_.size()) throw std::out_of_range("address beyond allocated memory");
    return idx;
}

std::uint32_t MemoryMap::read_u32(std::uint32_t addr) const { return words_[index_of(addr)]; }

void MemoryMap::write_u32(std::uint32_t addr, std::uint32_t value) {
    words_[index_of(addr)] = value;
}

void MemoryMap::state(StateIo& io) {
    io.same_count(words_.size(), "memory snapshot does not match this map's layout");
    for (std::uint32_t& word : words_) io.u32(word);
}

} // namespace gmdf::rt
