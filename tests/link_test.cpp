// Unit tests for the communication substrate: command codec, framing,
// JTAG TAP controller, probe, and the watch poller.
#include <gtest/gtest.h>

#include <random>
#include <span>
#include <string>

#include "link/commands.hpp"
#include "link/framing.hpp"
#include "link/jtag.hpp"
#include "link/watch.hpp"

namespace gl = gmdf::link;
namespace rt = gmdf::rt;

namespace {

TEST(Commands, EncodeDecodeRoundTrip) {
    gl::Command cmd{gl::Cmd::StateEnter, 42, 99, 3.5f};
    auto payload = gl::encode_command(cmd);
    EXPECT_EQ(payload.size(), gl::kCommandPayloadSize);
    auto decoded = gl::decode_command(payload);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, cmd);
}

TEST(Commands, RejectsBadSizeAndKind) {
    std::vector<std::uint8_t> short_payload(5, 0);
    EXPECT_FALSE(gl::decode_command(short_payload).has_value());
    auto payload = gl::encode_command({gl::Cmd::Hello, 1, 2, 0.0f});
    payload[0] = 0xEE; // invalid kind
    EXPECT_FALSE(gl::decode_command(payload).has_value());
}

TEST(Commands, ToStringNames) {
    EXPECT_STREQ(gl::to_string(gl::Cmd::Transition), "TRANSITION");
    gl::Command cmd{gl::Cmd::SignalUpdate, 7, 0, 1.5f};
    EXPECT_NE(cmd.to_string().find("SIGNAL_UPDATE"), std::string::npos);
}

// Bit-at-a-time CRC-16/CCITT-FALSE, the definition the table must match.
std::uint16_t crc16_bitwise(std::span<const std::uint8_t> data) {
    std::uint16_t crc = 0xFFFF;
    for (std::uint8_t byte : data) {
        crc ^= static_cast<std::uint16_t>(byte << 8);
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc & 0x8000) != 0 ? static_cast<std::uint16_t>((crc << 1) ^ 0x1021)
                                      : static_cast<std::uint16_t>(crc << 1);
    }
    return crc;
}

std::vector<std::uint8_t> frame(std::span<const std::uint8_t> payload) {
    std::vector<std::uint8_t> out;
    gl::append_frame(out, payload);
    return out;
}

// A decoder plus copies of what it delivered (the callback span does not
// outlive the call).
struct Collect {
    gl::FrameDecoder dec;
    std::vector<std::vector<std::uint8_t>> got;

    void feed(std::span<const std::uint8_t> bytes) {
        dec.feed(bytes,
                 [&](std::span<const std::uint8_t> p) { got.emplace_back(p.begin(), p.end()); });
    }
};

TEST(Framing, Crc16KnownVector) {
    // CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
    std::vector<std::uint8_t> data{'1', '2', '3', '4', '5', '6', '7', '8', '9'};
    EXPECT_EQ(gl::crc16_ccitt(data), 0x29B1);
}

TEST(Framing, Crc16TableMatchesBitwiseReference) {
    for (unsigned b = 0; b < 256; ++b) {
        std::uint8_t byte = static_cast<std::uint8_t>(b);
        EXPECT_EQ(gl::crc16_ccitt({&byte, 1}), crc16_bitwise({&byte, 1})) << "byte " << b;
    }
    std::mt19937 rng(7);
    std::uniform_int_distribution<int> len_dist(0, 300);
    std::uniform_int_distribution<int> byte_dist(0, 255);
    for (int i = 0; i < 200; ++i) {
        std::vector<std::uint8_t> data(static_cast<std::size_t>(len_dist(rng)));
        for (auto& b : data) b = static_cast<std::uint8_t>(byte_dist(rng));
        EXPECT_EQ(gl::crc16_ccitt(data), crc16_bitwise(data)) << "buffer " << i;
    }
}

// The exact wire bytes of a fixed command list, pinned as a literal so no
// encoder rewrite can move a byte. The list exercises every escape site:
// flag/escape bytes in the ids (0x7E, 0x7D) and in the value (63.5f is
// 0x427E0000), and in the CRC (TASK_END a=4 ends its CRC in 0x7D,
// TRANSITION a=12 starts its CRC with 0x7E).
TEST(Framing, PinnedWireBytes) {
    const std::vector<gl::Command> cmds = {
        {gl::Cmd::Hello, 1, 2, 0.0f},
        {gl::Cmd::StateEnter, 0x7E, 0x7D, 0.0f},
        {gl::Cmd::SignalUpdate, 0x7D7E, 0, 63.5f},
        {gl::Cmd::TaskEnd, 4, 0, 0.0f},
        {gl::Cmd::Transition, 12, 0, 0.0f},
        {gl::Cmd::ModeChange, 0xFFFFFFFF, 7, -0.0f},
        {gl::Cmd::Pause, 0, 0, 0.0f},
    };
    std::vector<std::uint8_t> wire;
    for (const auto& c : cmds) gl::append_frame(wire, gl::encode_command(c));
    const char* expected = // one frame per line
        "7e01010000000200000000000000e1bc7e"
        "7e047d5e0000007d5d000000000000005fef7e"
        "7e067d5e7d5d00000000000000007d5e42e0837e"
        "7e03040000000000000000000000ea7d5d7e"
        "7e050c00000000000000000000007d5ebe7e"
        "7e07ffffffff0700000000000080d1547e"
        "7e100000000000000000000000003eb87e";
    std::string hex;
    for (std::uint8_t b : wire) {
        static const char digits[] = "0123456789abcdef";
        hex += digits[b >> 4];
        hex += digits[b & 0xF];
    }
    EXPECT_EQ(hex, expected);

    Collect c;
    c.feed(wire);
    ASSERT_EQ(c.got.size(), cmds.size());
    for (std::size_t i = 0; i < cmds.size(); ++i) EXPECT_EQ(gl::decode_command(c.got[i]), cmds[i]);
}

TEST(Framing, RoundTripSimple) {
    std::vector<std::uint8_t> payload{1, 2, 3, 0x7E, 0x7D, 4};
    Collect c;
    c.feed(frame(payload));
    ASSERT_EQ(c.got.size(), 1u);
    EXPECT_EQ(c.got[0], payload);
    EXPECT_EQ(c.dec.corrupt_frames(), 0u);
}

TEST(Framing, AppendKeepsExistingBytes) {
    std::vector<std::uint8_t> p1{1, 2, 3}, p2{4, 5};
    std::vector<std::uint8_t> wire{0xAA};
    gl::append_frame(wire, p1);
    gl::append_frame(wire, p2);
    std::vector<std::uint8_t> expected{0xAA};
    for (const auto& f : {frame(p1), frame(p2)})
        expected.insert(expected.end(), f.begin(), f.end());
    EXPECT_EQ(wire, expected);
}

TEST(Framing, ByteAtATime) {
    std::vector<std::uint8_t> payload{0x7E, 0x7E, 0x7D, 0x00, 0xFF};
    Collect c;
    for (std::uint8_t b : frame(payload)) c.feed({&b, 1});
    ASSERT_EQ(c.got.size(), 1u);
    EXPECT_EQ(c.got[0], payload);
}

TEST(Framing, BackToBackFrames) {
    std::vector<std::uint8_t> p1{1, 2, 3}, p2{4, 5};
    auto w1 = frame(p1);
    auto w2 = frame(p2);
    w1.insert(w1.end(), w2.begin(), w2.end());
    Collect c;
    c.feed(w1);
    ASSERT_EQ(c.got.size(), 2u);
    EXPECT_EQ(c.got[0], p1);
    EXPECT_EQ(c.got[1], p2);
}

TEST(Framing, JunkBeforeFrameSkipped) {
    std::vector<std::uint8_t> payload{9, 8, 7};
    std::vector<std::uint8_t> wire{0x00, 0x55, 0xAA};
    auto f = frame(payload);
    wire.insert(wire.end(), f.begin(), f.end());
    Collect c;
    c.feed(wire);
    ASSERT_EQ(c.got.size(), 1u);
    EXPECT_EQ(c.dec.junk_bytes(), 3u);
}

TEST(Framing, CorruptCrcDropped) {
    std::vector<std::uint8_t> payload{1, 2, 3, 4};
    auto wire = frame(payload);
    wire[2] ^= 0x01; // flip a payload bit
    Collect c;
    c.feed(wire);
    EXPECT_TRUE(c.got.empty());
    EXPECT_EQ(c.dec.corrupt_frames(), 1u);
}

TEST(Framing, RecoversAfterCorruption) {
    std::vector<std::uint8_t> p1{1, 2}, p2{3, 4};
    auto w1 = frame(p1);
    w1[1] ^= 0xFF;
    Collect c;
    c.feed(w1);
    c.feed(frame(p2));
    ASSERT_EQ(c.got.size(), 1u);
    EXPECT_EQ(c.got[0], p2);
}

// Property: random payloads of random lengths round-trip through
// frame/decode even when concatenated.
class FramingFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(FramingFuzz, RandomPayloadsRoundTrip) {
    std::mt19937 rng(GetParam());
    std::uniform_int_distribution<int> len_dist(1, 64);
    std::uniform_int_distribution<int> byte_dist(0, 255);
    std::vector<std::vector<std::uint8_t>> payloads;
    std::vector<std::uint8_t> wire;
    for (int i = 0; i < 50; ++i) {
        std::vector<std::uint8_t> p(static_cast<std::size_t>(len_dist(rng)));
        for (auto& b : p) b = static_cast<std::uint8_t>(byte_dist(rng));
        gl::append_frame(wire, p);
        payloads.push_back(std::move(p));
    }
    Collect c;
    // Feed in randomly sized chunks.
    std::size_t pos = 0;
    while (pos < wire.size()) {
        std::size_t n = std::min<std::size_t>(static_cast<std::size_t>(len_dist(rng)),
                                              wire.size() - pos);
        c.feed({wire.data() + pos, n});
        pos += n;
    }
    ASSERT_EQ(c.got.size(), payloads.size());
    for (std::size_t i = 0; i < c.got.size(); ++i) EXPECT_EQ(c.got[i], payloads[i]);
    EXPECT_EQ(c.dec.corrupt_frames(), 0u);
}

// Property: with junk between frames and bits flipped anywhere on the
// wire, feeding in random chunks delivers the same payloads and counts the
// same corrupt frames and junk bytes as feeding the whole buffer at once.
TEST_P(FramingFuzz, ChunkedFeedMatchesWholeFeedUnderDamage) {
    std::mt19937 rng(GetParam());
    std::uniform_int_distribution<int> len_dist(1, 32);
    std::uniform_int_distribution<int> byte_dist(0, 255);
    std::uniform_int_distribution<int> pct(0, 99);
    std::vector<std::uint8_t> wire;
    for (int i = 0; i < 200; ++i) {
        if (pct(rng) < 30) {
            int junk = len_dist(rng) % 8 + 1;
            for (int j = 0; j < junk; ++j)
                wire.push_back(static_cast<std::uint8_t>(byte_dist(rng)));
        }
        std::vector<std::uint8_t> p(static_cast<std::size_t>(len_dist(rng)));
        for (auto& b : p) b = static_cast<std::uint8_t>(byte_dist(rng));
        gl::append_frame(wire, p);
    }
    std::uniform_int_distribution<std::size_t> pos_dist(0, wire.size() - 1);
    for (int i = 0; i < 40; ++i)
        wire[pos_dist(rng)] ^= static_cast<std::uint8_t>(1u << (byte_dist(rng) % 8));

    Collect whole;
    whole.feed(wire);
    Collect chunked;
    std::size_t pos = 0;
    while (pos < wire.size()) {
        std::size_t n = std::min<std::size_t>(static_cast<std::size_t>(len_dist(rng)) - 1,
                                              wire.size() - pos);
        chunked.feed({wire.data() + pos, n}); // includes empty chunks
        pos += n;
    }
    EXPECT_GT(whole.got.size(), 100u);
    EXPECT_GT(whole.dec.corrupt_frames(), 0u);
    EXPECT_EQ(chunked.got, whole.got);
    EXPECT_EQ(chunked.dec.corrupt_frames(), whole.dec.corrupt_frames());
    EXPECT_EQ(chunked.dec.junk_bytes(), whole.dec.junk_bytes());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FramingFuzz, ::testing::Values(1u, 2u, 3u, 42u, 1234u));

// --- JTAG -------------------------------------------------------------------

TEST(Tap, ResetFromAnyStateWithFiveTmsOnes) {
    // Walk the TAP into every reachable state, then check the reset property.
    rt::MemoryMap mem;
    for (int walk = 0; walk < 64; ++walk) {
        gl::JtagTap tap(mem);
        // Pseudo-random walk.
        unsigned bits = static_cast<unsigned>(walk * 2654435761u);
        for (int i = 0; i < 12; ++i) tap.clock((bits >> i) & 1, false);
        for (int i = 0; i < 5; ++i) tap.clock(true, false);
        EXPECT_EQ(tap.state(), gl::TapState::TestLogicReset);
    }
}

TEST(Tap, StateDiagramSpotChecks) {
    using S = gl::TapState;
    EXPECT_EQ(gl::tap_next(S::TestLogicReset, false), S::RunTestIdle);
    EXPECT_EQ(gl::tap_next(S::RunTestIdle, true), S::SelectDrScan);
    EXPECT_EQ(gl::tap_next(S::SelectDrScan, false), S::CaptureDr);
    EXPECT_EQ(gl::tap_next(S::ShiftDr, false), S::ShiftDr);
    EXPECT_EQ(gl::tap_next(S::Exit1Dr, true), S::UpdateDr);
    EXPECT_EQ(gl::tap_next(S::Exit2Dr, false), S::ShiftDr);
    EXPECT_EQ(gl::tap_next(S::SelectIrScan, true), S::TestLogicReset);
    EXPECT_EQ(gl::tap_next(S::UpdateIr, false), S::RunTestIdle);
}

TEST(Probe, ReadsIdcode) {
    rt::MemoryMap mem;
    gl::JtagTap tap(mem, 0x1234ABCD);
    gl::JtagProbe probe(tap);
    probe.reset();
    EXPECT_EQ(probe.read_idcode(), 0x1234ABCDu);
}

TEST(Probe, MemoryReadIsPassiveAndCorrect) {
    rt::MemoryMap mem;
    auto a = mem.alloc("x");
    auto b = mem.alloc("y");
    mem.write_u32(a, 0xCAFEBABE);
    mem.write_u32(b, 0x12345678);
    gl::JtagTap tap(mem);
    gl::JtagProbe probe(tap);
    probe.reset();
    EXPECT_EQ(probe.read_word(a), 0xCAFEBABEu);
    EXPECT_EQ(probe.read_word(b), 0x12345678u);
    // Reads must not disturb memory.
    EXPECT_EQ(mem.read_u32(a), 0xCAFEBABEu);
    EXPECT_EQ(mem.read_u32(b), 0x12345678u);
}

TEST(Probe, MemoryWriteWorks) {
    rt::MemoryMap mem;
    auto a = mem.alloc("x");
    gl::JtagTap tap(mem);
    gl::JtagProbe probe(tap);
    probe.reset();
    probe.write_word(a, 0xDEAD0001);
    EXPECT_EQ(mem.read_u32(a), 0xDEAD0001u);
}

TEST(Probe, UnmappedReadReturnsZero) {
    rt::MemoryMap mem;
    gl::JtagTap tap(mem);
    gl::JtagProbe probe(tap);
    probe.reset();
    EXPECT_EQ(probe.read_word(0x0000'0000), 0u);
}

TEST(Probe, TckAccounting) {
    rt::MemoryMap mem;
    mem.alloc("x");
    gl::JtagTap tap(mem);
    gl::JtagProbe probe(tap, 1e6); // 1 MHz TCK
    probe.reset();
    auto cycles = probe.cycles_per_read();
    EXPECT_GT(cycles, 50u);  // two IR loads + two DR scans
    EXPECT_LT(cycles, 200u);
    EXPECT_GT(probe.elapsed_seconds(), 0.0);
}

// --- Watch poller -----------------------------------------------------------

TEST(Watch, DetectsChange) {
    rt::Simulator sim;
    rt::MemoryMap mem;
    auto addr = mem.alloc("state");
    gl::JtagTap tap(mem);
    gl::JtagProbe probe(tap, 1e6);
    gl::WatchPoller poller(sim, probe, rt::kMs);
    poller.watch(addr);
    std::vector<gl::WatchEvent> events;
    poller.set_callback([&](const gl::WatchEvent& e) { events.push_back(e); });
    poller.start();

    sim.at(5 * rt::kMs + 1, [&] { mem.write_u32(addr, 3); });
    sim.run_until(10 * rt::kMs);
    poller.stop();
    sim.run_until(20 * rt::kMs);

    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].addr, addr);
    EXPECT_EQ(events[0].old_value, 0u);
    EXPECT_EQ(events[0].new_value, 3u);
    // Detected at the next poll after the change (6 ms round).
    EXPECT_GE(events[0].at, 6 * rt::kMs);
    EXPECT_LT(events[0].at, 7 * rt::kMs);
}

TEST(Watch, FirstPollPrimesWithoutEvent) {
    rt::Simulator sim;
    rt::MemoryMap mem;
    auto addr = mem.alloc("v");
    mem.write_u32(addr, 77); // non-zero before the first poll
    gl::JtagTap tap(mem);
    gl::JtagProbe probe(tap, 1e6);
    gl::WatchPoller poller(sim, probe, rt::kMs);
    poller.watch(addr);
    int events = 0;
    poller.set_callback([&](const gl::WatchEvent&) { ++events; });
    poller.start();
    sim.run_until(5 * rt::kMs);
    EXPECT_EQ(events, 0);
    EXPECT_GE(poller.polls(), 4u);
}

TEST(Watch, AliasingMissesFastToggles) {
    rt::Simulator sim;
    rt::MemoryMap mem;
    auto addr = mem.alloc("v");
    gl::JtagTap tap(mem);
    gl::JtagProbe probe(tap, 1e6);
    gl::WatchPoller poller(sim, probe, 10 * rt::kMs); // slow poll
    poller.watch(addr);
    int events = 0;
    poller.set_callback([&](const gl::WatchEvent&) { ++events; });
    poller.start();
    // Value pulses 0 -> 5 -> 0 entirely between two polls: invisible.
    sim.at(12 * rt::kMs, [&] { mem.write_u32(addr, 5); });
    sim.at(13 * rt::kMs, [&] { mem.write_u32(addr, 0); });
    sim.run_until(50 * rt::kMs);
    EXPECT_EQ(events, 0);
}

TEST(Watch, RoundCostGrowsWithWatchList) {
    rt::Simulator sim;
    rt::MemoryMap mem;
    std::vector<std::uint32_t> addrs;
    for (int i = 0; i < 8; ++i) addrs.push_back(mem.alloc("v" + std::to_string(i)));
    gl::JtagTap tap(mem);
    gl::JtagProbe probe(tap, 1e6);
    gl::WatchPoller poller(sim, probe, rt::kMs);
    for (auto a : addrs) poller.watch(a);
    poller.start();
    sim.run_until(2 * rt::kMs);
    // 8 reads x ~100 TCK @ 1 MHz ~= 800 us per round.
    EXPECT_GT(poller.round_cost(), 400 * rt::kUs);
    EXPECT_LT(poller.round_cost(), 2 * rt::kMs);
}

} // namespace
