#include "link/framing.hpp"

#include <array>

namespace gmdf::link {

namespace {

/// kCrcTable[i] is the CRC register after shifting byte i through a
/// zero register, so one lookup replaces eight shift/xor steps.
constexpr std::array<std::uint16_t, 256> kCrcTable = [] {
    std::array<std::uint16_t, 256> table{};
    for (unsigned i = 0; i < 256; ++i) {
        auto crc = static_cast<std::uint16_t>(i << 8);
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc & 0x8000) != 0 ? static_cast<std::uint16_t>((crc << 1) ^ 0x1021)
                                      : static_cast<std::uint16_t>(crc << 1);
        table[i] = crc;
    }
    return table;
}();

void push_escaped(std::vector<std::uint8_t>& out, std::uint8_t byte) {
    if (byte == kFlag || byte == kEscape) {
        out.push_back(kEscape);
        out.push_back(byte ^ kEscapeXor);
    } else {
        out.push_back(byte);
    }
}

} // namespace

std::uint16_t crc16_ccitt(std::span<const std::uint8_t> data) {
    std::uint16_t crc = 0xFFFF;
    for (std::uint8_t byte : data)
        crc = static_cast<std::uint16_t>((crc << 8) ^ kCrcTable[(crc >> 8) ^ byte]);
    return crc;
}

void append_frame(std::vector<std::uint8_t>& out, std::span<const std::uint8_t> payload) {
    out.push_back(kFlag);
    for (std::uint8_t b : payload) push_escaped(out, b);
    std::uint16_t crc = crc16_ccitt(payload);
    push_escaped(out, static_cast<std::uint8_t>(crc >> 8));
    push_escaped(out, static_cast<std::uint8_t>(crc & 0xFF));
    out.push_back(kFlag);
}

std::size_t FrameDecoder::end_frame() {
    if (current_.empty()) return 0; // idle flags between frames
    if (current_.size() < 3) {
        ++corrupt_; // cannot even hold a CRC
        return 0;
    }
    std::size_t n = current_.size() - 2;
    std::uint16_t expected = static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(current_[n]) << 8) | current_[n + 1]);
    if (crc16_ccitt({current_.data(), n}) != expected) {
        ++corrupt_;
        return 0;
    }
    return n;
}

} // namespace gmdf::link
