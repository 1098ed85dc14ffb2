// Byte-stream framing for the serial (RS-232) command interface.
//
// Wire format per frame:
//   FLAG (0x7E) | escaped( payload | crc16-ccitt(payload), big-endian ) | FLAG
//
// Escaping: 0x7E -> 0x7D 0x5E, 0x7D -> 0x7D 0x5D (HDLC-style). The CRC is
// table-driven (one 256-entry constexpr table, same values as the bitwise
// CRC-16/CCITT-FALSE). Both directions are allocation-free per frame:
// append_frame() appends to a caller-owned buffer, and the decoder hands
// each CRC-valid payload to a callback as a span into its own reused frame
// buffer. That span is valid only during the callback. The decoder is a
// resynchronizing state machine: garbage between frames and corrupted
// frames are skipped and counted, valid frames are delivered in order.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace gmdf::link {

inline constexpr std::uint8_t kFlag = 0x7E;
inline constexpr std::uint8_t kEscape = 0x7D;
inline constexpr std::uint8_t kEscapeXor = 0x20;

/// CRC-16-CCITT (poly 0x1021, init 0xFFFF, no reflection).
[[nodiscard]] std::uint16_t crc16_ccitt(std::span<const std::uint8_t> data);

/// Appends one wire frame carrying `payload` to `out`.
void append_frame(std::vector<std::uint8_t>& out, std::span<const std::uint8_t> payload);

/// Streaming decoder: feed arbitrary byte chunks, receive whole payloads.
class FrameDecoder {
public:
    /// Feeds bytes; calls `on_payload(std::span<const std::uint8_t>)` for
    /// every completed, CRC-valid payload, in wire order. The span points
    /// into the decoder and is valid only during the call.
    template <class OnPayload>
    void feed(std::span<const std::uint8_t> bytes, OnPayload&& on_payload) {
        for (std::uint8_t b : bytes) {
            switch (state_) {
            case State::Hunting:
                if (b == kFlag) {
                    state_ = State::InFrame;
                    current_.clear();
                } else {
                    ++junk_;
                }
                break;
            case State::InFrame:
                if (b == kFlag) {
                    // Either a frame terminator or (after back-to-back
                    // frames) an opening flag; empty frames are skipped.
                    if (std::size_t n = end_frame(); n > 0)
                        on_payload(std::span<const std::uint8_t>(current_.data(), n));
                    current_.clear();
                } else if (b == kEscape) {
                    state_ = State::InEscape;
                } else {
                    current_.push_back(b);
                }
                break;
            case State::InEscape: {
                std::uint8_t unescaped = b ^ kEscapeXor;
                if (unescaped != kFlag && unescaped != kEscape) {
                    // Invalid escape sequence: drop the frame, resync.
                    ++corrupt_;
                    state_ = State::Hunting;
                } else {
                    current_.push_back(unescaped);
                    state_ = State::InFrame;
                }
                break;
            }
            }
        }
    }

    /// Frames dropped due to CRC mismatch or malformed escaping.
    [[nodiscard]] std::uint64_t corrupt_frames() const { return corrupt_; }

    /// Bytes discarded while hunting for a frame flag.
    [[nodiscard]] std::uint64_t junk_bytes() const { return junk_; }

    /// Restores the decoder to a clean between-frames state with the
    /// given counter values (checkpoint restore).
    void reset_stream(std::uint64_t corrupt, std::uint64_t junk) {
        state_ = State::Hunting;
        current_.clear();
        corrupt_ = corrupt;
        junk_ = junk;
    }

private:
    /// Closes the frame in current_: the payload length when its CRC
    /// checks, else 0 (a non-empty bad frame counts as corrupt).
    std::size_t end_frame();

    enum class State { Hunting, InFrame, InEscape };
    State state_ = State::Hunting;
    std::vector<std::uint8_t> current_;
    std::uint64_t corrupt_ = 0;
    std::uint64_t junk_ = 0;
};

} // namespace gmdf::link
