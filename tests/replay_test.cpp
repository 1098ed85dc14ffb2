// Time-travel debugging tests: snapshot round-trips, checkpoint-ring
// accounting, rewind + re-execution byte-identity, step-back after a
// breakpoint, bisect fault localization, hub-routed rewind isolation,
// and the typed refusals (non-deterministic transports, out-of-range
// targets).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "codegen/loader.hpp"
#include "comdes/build.hpp"
#include "core/session.hpp"
#include "core/transports.hpp"
#include "hub/controller.hpp"
#include "proto/scenarios.hpp"
#include "proto/script.hpp"
#include "replay/checkpoint.hpp"
#include "replay/snapshot.hpp"
#include "replay/timeline.hpp"

namespace gp = gmdf::proto;
namespace gr = gmdf::replay;
namespace rt = gmdf::rt;
using gmdf::core::EngineState;

namespace {

gp::Response exec(gp::Scenario& s, const std::string& line) {
    return s.controller().execute_line(line);
}

void expect_ok(gp::Scenario& s, const std::string& line) {
    auto resp = exec(s, line);
    EXPECT_TRUE(resp.ok()) << line << " -> " << resp.message;
}

/// FNV-1a 64: a fixed, dependency-free digest for pinning image bytes.
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

/// One of each snapshot shape: a single SM, a multi-task cell with
/// in-flight stimuli, a faulted generated lift, and a generated model.
const char* const kImageScenarios[] = {"blinker", "turntable", "lift_fault", "gen:7"};

} // namespace

// ---- snapshot layer ---------------------------------------------------------

// Capture / restore / re-capture yields bit-identical bytes, and the
// restored platform re-executes into a bit-identical future: the full
// deterministic state (signal replicas, RAM, DES queue incl. in-flight
// ops and re-armed periods, task stats, FB internals) round-trips.
TEST(Snapshot, RoundTripAndReExecutionAreBitIdentical) {
    auto s = gp::make_scenario("turntable");
    ASSERT_NE(s, nullptr);
    // 130 ms: the part stimulus fired, the at-position stimulus is still
    // an in-flight pending op, jobs and latches are mid-air.
    s->target.run_for(130 * rt::kMs);
    gr::Snapshot a = gr::capture_snapshot(s->target, *s->session);
    EXPECT_EQ(a.time, 130 * rt::kMs);
    EXPECT_GT(a.size_bytes(), 0u);

    s->target.run_for(100 * rt::kMs);
    gr::Snapshot b = gr::capture_snapshot(s->target, *s->session);

    gr::restore_snapshot(a, s->target, *s->session);
    EXPECT_EQ(s->target.sim().now(), 130 * rt::kMs);
    gr::Snapshot a2 = gr::capture_snapshot(s->target, *s->session);
    EXPECT_EQ(a.bytes, a2.bytes) << "restore + re-capture must be bit-identical";

    s->target.run_for(100 * rt::kMs);
    gr::Snapshot b2 = gr::capture_snapshot(s->target, *s->session);
    EXPECT_EQ(b.bytes, b2.bytes)
        << "re-execution from a restored snapshot must be bit-identical";
}

TEST(Snapshot, RestoreRejectsGarbage) {
    auto s = gp::make_scenario("blinker");
    ASSERT_NE(s, nullptr);
    s->target.run_for(50 * rt::kMs);
    gr::Snapshot snap = gr::capture_snapshot(s->target, *s->session);
    snap.bytes[0] ^= 0xFF; // break the magic
    EXPECT_THROW(gr::restore_snapshot(snap, s->target, *s->session),
                 gr::SnapshotError);
}

// The exact image bytes of each scenario at fixed instants, pinned as
// size + digest so no codec rewrite can move a byte of the format.
TEST(Snapshot, PinnedSnapshotBytes) {
    struct Pin {
        const char* scenario;
        const char* setup; ///< one control line run first (breakpoints), or null
        rt::SimTime at;
        std::size_t bytes;
        std::uint64_t digest;
    };
    const Pin pins[] = {
        {"blinker", nullptr, 130 * rt::kMs, 650, 0x7eaa60a5aa7b2088ull},
        {"blinker", nullptr, 500 * rt::kMs, 776, 0xfb87d4aae5b9fe7dull},
        {"turntable", nullptr, 130 * rt::kMs, 1522, 0x6593508514187853ull},
        {"turntable", nullptr, 500 * rt::kMs, 2068, 0x4f99a0c98d4e5a9bull},
        {"lift_fault", nullptr, 130 * rt::kMs, 1065, 0x54f8317d78350d98ull},
        {"lift_fault", nullptr, 500 * rt::kMs, 1118, 0x1ed8a22c58e5b9a6ull},
        {"gen:7", nullptr, 130 * rt::kMs, 2064, 0xd3e8ef4f43269e76ull},
        {"gen:7", nullptr, 500 * rt::kMs, 5295, 0x8806afd4dcfacb7eull},
        {"blinker", "break add state on", 500 * rt::kMs, 592, 0xc3464b942e779a86ull},
        {"turntable", "break add signal drill>0.5", 300 * rt::kMs, 1877, 0x513020c176a46d53ull},
    };
    for (const Pin& p : pins) {
        auto s = gp::make_scenario(p.scenario);
        ASSERT_NE(s, nullptr) << p.scenario;
        if (p.setup != nullptr) expect_ok(*s, p.setup);
        s->target.run_for(p.at);
        gr::Snapshot snap = gr::capture_snapshot(s->target, *s->session);
        EXPECT_EQ(snap.size_bytes(), p.bytes) << p.scenario << " @" << p.at;
        EXPECT_EQ(fnv1a(snap.bytes), p.digest) << p.scenario << " @" << p.at;
    }
}

// Raw one-shot closures on the simulator (outside the target's pending
// op registry) cannot be restored — capture refuses loudly instead of
// producing a snapshot that would silently drop them.
TEST(Snapshot, RefusesUnrestorableOneShotEvents) {
    auto s = gp::make_scenario("blinker");
    ASSERT_NE(s, nullptr);
    s->target.run_for(10 * rt::kMs);
    s->target.sim().after(5 * rt::kMs, [] {});
    EXPECT_THROW((void)gr::capture_snapshot(s->target, *s->session),
                 gr::SnapshotError);
}

// Seeded, budgeted mutation fuzz over snapshot images, in the idiom of
// expr_vm_test's differential fuzz. Each mutant (1-4 bit flips, a 0x00 or
// 0xFF byte run, or a truncation of a 130 ms capture) is restored and run
// for 50 ms: it must either be accepted and run, or fail with a
// std::exception. A crash or a sanitizer report fails the suite.
TEST(SnapshotFuzz, MutatedImagesRestoreOrFailTyped) {
    std::mt19937 rng(20261020);
    auto pick = [&](std::size_t n) {
        return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
    };
    constexpr int kMutantsPerScenario = 2000;
    int accepted = 0;
    int rejected = 0;
    for (const char* name : kImageScenarios) {
        auto s = gp::make_scenario(name);
        ASSERT_NE(s, nullptr) << name;
        s->target.run_for(130 * rt::kMs);
        const gr::Snapshot good = gr::capture_snapshot(s->target, *s->session);
        for (int i = 0; i < kMutantsPerScenario; ++i) {
            gr::Snapshot bad = good;
            std::vector<std::uint8_t>& b = bad.bytes;
            switch (pick(3)) {
            case 0:
                for (std::size_t f = 0, n = 1 + pick(4); f < n; ++f)
                    b[pick(b.size())] ^= static_cast<std::uint8_t>(1u << pick(8));
                break;
            case 1: {
                std::size_t at = pick(b.size());
                std::size_t len = std::min(1 + pick(8), b.size() - at);
                std::fill_n(b.begin() + static_cast<std::ptrdiff_t>(at), len,
                            pick(2) == 0 ? 0x00 : 0xFF);
                break;
            }
            default:
                b.resize(pick(b.size()));
                break;
            }
            try {
                gr::restore_snapshot(bad, s->target, *s->session);
                s->target.run_for(50 * rt::kMs);
                ++accepted;
            } catch (const std::exception&) {
                ++rejected;
            }
            // Back to the known-good image; a mutant that left the
            // platform unrestorable gets a fresh scenario instead.
            try {
                gr::restore_snapshot(good, s->target, *s->session);
            } catch (const gr::SnapshotError&) {
                s = gp::make_scenario(name);
                s->target.run_for(130 * rt::kMs);
            }
        }
    }
    std::cout << "snapshot mutants: " << accepted << " accepted, " << rejected
              << " rejected\n";
    EXPECT_EQ(accepted + rejected, 4 * kMutantsPerScenario);
    EXPECT_GT(rejected, 0);
    EXPECT_GT(accepted, 0);
}

// ---- checkpoint ring --------------------------------------------------------

TEST(CheckpointStore, ByteBudgetEvictsOldestAndAccounts) {
    gr::CheckpointStore store;
    store.set_byte_limit(1000);
    auto make = [](rt::SimTime t, std::size_t bytes) {
        gr::Checkpoint cp;
        cp.snap.time = t;
        cp.snap.bytes.assign(bytes, 0xAB);
        return cp;
    };
    store.add(make(0, 400));
    store.add(make(100, 400));
    ASSERT_EQ(store.stats().count, 2u);
    EXPECT_EQ(store.stats().bytes, 800u);
    EXPECT_EQ(store.stats().evictions, 0u);

    store.add(make(200, 400)); // 1200 > 1000: oldest out
    EXPECT_EQ(store.stats().count, 2u);
    EXPECT_EQ(store.stats().bytes, 800u);
    EXPECT_EQ(store.stats().evictions, 1u);
    EXPECT_EQ(store.stats().captures, 3u);
    EXPECT_EQ(store.earliest_time().value(), 100);

    // The newest checkpoint always survives, even over budget.
    store.add(make(300, 5000));
    EXPECT_EQ(store.stats().count, 1u);
    EXPECT_EQ(store.stats().bytes, 5000u);
    EXPECT_EQ(store.stats().evictions, 3u);

    EXPECT_EQ(store.nearest_at_or_before(299), nullptr);
    EXPECT_EQ(store.nearest_at_or_before(301)->snap.time, 300);
    store.drop_after(250);
    EXPECT_EQ(store.stats().count, 0u);
}

// ---- trace ring satellite ---------------------------------------------------

TEST(TraceRecorder, EvictionRecordsTheLostWindow) {
    gmdf::core::TraceRecorder trace;
    trace.set_capacity(3);
    for (int i = 1; i <= 5; ++i)
        trace.record({gmdf::link::Cmd::Hello, 0, 0, 0.0f}, i * rt::kMs);
    EXPECT_EQ(trace.dropped(), 2u);
    EXPECT_EQ(trace.dropped_through(), 2 * rt::kMs);
    EXPECT_EQ(trace.earliest_retained().value(), 3 * rt::kMs);
    trace.truncate_after(4 * rt::kMs);
    EXPECT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace.dropped(), 2u) << "truncation is not eviction";
}

// ---- rewind -----------------------------------------------------------------

// The acceptance criterion: rewind <t> then run re-produces the original
// forward transcript byte-identically (VCD over the whole run).
TEST(Rewind, ReExecutionReproducesTheForwardTranscript) {
    auto s = gp::make_scenario("blinker");
    ASSERT_NE(s, nullptr);
    expect_ok(*s, "checkpoint auto 100");
    expect_ok(*s, "run 1000");
    std::string vcd1 = s->session->vcd();
    std::size_t events1 = s->session->trace().size();
    ASSERT_GT(events1, 0u);

    auto resp = exec(*s, "rewind 400");
    ASSERT_TRUE(resp.ok()) << resp.message;
    EXPECT_EQ(s->target.sim().now(), 400 * rt::kMs);
    EXPECT_LT(s->session->trace().size(), events1);

    expect_ok(*s, "run 600");
    EXPECT_EQ(s->target.sim().now(), 1000 * rt::kMs);
    EXPECT_EQ(s->session->trace().size(), events1);
    EXPECT_EQ(s->session->vcd(), vcd1)
        << "rewind + run must reproduce the original transcript";
}

// Rewinding to a time between checkpoints restores the nearest one and
// deterministically catches up, without double-reporting into the trace
// or divergence log.
TEST(Rewind, CatchUpDoesNotDoubleReport) {
    auto s = gp::make_scenario("turntable");
    ASSERT_NE(s, nullptr);
    expect_ok(*s, "checkpoint auto 100");
    expect_ok(*s, "run 400");
    std::string vcd1 = s->session->vcd();
    std::size_t events1 = s->session->trace().size();

    // 250 ms sits between the 200 and 300 ms checkpoints.
    auto resp = exec(*s, "rewind 250");
    ASSERT_TRUE(resp.ok()) << resp.message;
    EXPECT_EQ(s->target.sim().now(), 250 * rt::kMs);
    for (const auto& ev : s->session->trace().events())
        EXPECT_LE(ev.t, 250 * rt::kMs);

    expect_ok(*s, "run 150");
    EXPECT_EQ(s->session->trace().size(), events1);
    EXPECT_EQ(s->session->vcd(), vcd1);
}

// Control actions issued after a checkpoint (breakpoint adds, resumes)
// are journaled and re-applied during catch-up, so a rewind across them
// reproduces the exact pause/resume shape of the original run.
TEST(Rewind, ReplaysJournaledControlActions) {
    auto s = gp::make_scenario("blinker");
    ASSERT_NE(s, nullptr);
    expect_ok(*s, "checkpoint auto 100");
    expect_ok(*s, "run 300");
    expect_ok(*s, "break add state on"); // added AFTER the 300 ms checkpoint
    expect_ok(*s, "run 700");            // hits just past 300 ms, stays paused
    ASSERT_EQ(s->session->engine().state(), EngineState::Paused);
    rt::SimTime hit_t = s->session->trace().events().back().t;
    expect_ok(*s, "resume");
    expect_ok(*s, "run 500");            // re-hits at the next 'on' entry
    ASSERT_EQ(s->session->engine().state(), EngineState::Paused);
    std::string vcd1 = s->session->vcd();

    // 320 ms is after the hit: catch-up must replay the breakpoint add
    // from the journal and re-pause the target at the same spot.
    auto resp = exec(*s, "rewind 320");
    ASSERT_TRUE(resp.ok()) << resp.message;
    ASSERT_GT(hit_t, 300 * rt::kMs);
    ASSERT_LT(hit_t, 320 * rt::kMs);
    EXPECT_EQ(s->session->engine().state(), EngineState::Paused)
        << "the replayed breakpoint must have re-paused the target";

    expect_ok(*s, "run 680");
    expect_ok(*s, "resume");
    expect_ok(*s, "run 500");
    EXPECT_EQ(s->session->vcd(), vcd1);
}

// A control op stamped exactly at the rewind target belongs to time t
// (trace events at t are kept, so the journal boundary must match):
// pausing at 100 ms and rewinding to 100 ms lands on a paused session.
TEST(Rewind, ControlsAtTheExactTargetInstantAreReplayed) {
    auto s = gp::make_scenario("blinker");
    ASSERT_NE(s, nullptr);
    expect_ok(*s, "checkpoint auto 50");
    expect_ok(*s, "run 100");
    expect_ok(*s, "pause"); // journaled at exactly 100 ms, after the checkpoint
    expect_ok(*s, "run 200");
    std::string vcd1 = s->session->vcd();

    auto resp = exec(*s, "rewind 100");
    ASSERT_TRUE(resp.ok()) << resp.message;
    EXPECT_EQ(s->session->engine().state(), EngineState::Paused)
        << "the pause issued at the rewind instant must be replayed";

    expect_ok(*s, "run 200");
    EXPECT_EQ(s->session->vcd(), vcd1);
}

TEST(Rewind, OutOfRangeIsAStructuredErrorWithTheReachableWindow) {
    auto s = gp::make_scenario("blinker");
    ASSERT_NE(s, nullptr);
    expect_ok(*s, "run 300");

    // No checkpoints at all: typed refusal.
    auto none = exec(*s, "rewind 100");
    EXPECT_EQ(none.code, gp::ErrorCode::BadState);

    // A checkpoint at 300 ms makes [300, now] reachable; 100 ms is not.
    expect_ok(*s, "checkpoint now");
    expect_ok(*s, "run 100");
    auto early = exec(*s, "rewind 100");
    EXPECT_EQ(early.code, gp::ErrorCode::BadArgument);
    EXPECT_NE(early.message.find("reachable window"), std::string::npos)
        << early.message;
    EXPECT_NE(early.message.find(std::to_string(300 * rt::kMs)), std::string::npos)
        << "window should name the earliest checkpoint: " << early.message;

    // The future is out of range too.
    auto future = exec(*s, "rewind 9999");
    EXPECT_EQ(future.code, gp::ErrorCode::BadArgument);
}

// Passive (JTAG) transports hold host-side probe state the snapshot
// cannot carry; rewind and checkpointing are refused with typed errors.
TEST(Rewind, RefusedOnPassiveJtagTransport) {
    gmdf::comdes::SystemBuilder sys{"passive"};
    auto led = sys.add_signal("led", "bool_");
    auto actor = sys.add_actor("blinker", 100'000);
    auto sm = actor.add_sm("toggler", {"tick"}, {"out"});
    auto off = sm.add_state("off", {{"out", "0"}});
    auto on = sm.add_state("on", {{"out", "1"}});
    sm.add_transition(off, on, "tick");
    sm.add_transition(on, off, "tick");
    auto one = actor.add_basic("one", "const_", {1.0});
    actor.connect(one, "out", sm.sm_id(), "tick");
    actor.bind_output(sm.sm_id(), "out", led);

    rt::Target target;
    auto loaded = gmdf::codegen::load_system(
        target, sys.model(), gmdf::codegen::InstrumentOptions::passive());
    gmdf::core::DebugSession session(sys.model());
    session.attach(gmdf::core::make_passive_jtag_transport(target, loaded, sys.model(),
                                                           5 * rt::kMs));
    target.start();
    target.run_for(50 * rt::kMs);

    gr::Timeline timeline(target, session);
    std::string error;
    EXPECT_EQ(timeline.capture_now(&error), nullptr);
    EXPECT_NE(error.find("passive-jtag"), std::string::npos) << error;
    auto err = timeline.rewind_to(10 * rt::kMs);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->kind, gr::NavError::Kind::NotDeterministic);
}

// ---- step-back --------------------------------------------------------------

// After a breakpoint pauses the session, step-back rewinds to just
// before the triggering event; running forward hits the same breakpoint
// at the same simulated time again.
TEST(StepBack, ReArmsTheSameBreakpoint) {
    auto s = gp::make_scenario("blinker");
    ASSERT_NE(s, nullptr);
    expect_ok(*s, "checkpoint auto 50");
    expect_ok(*s, "break add state on");
    expect_ok(*s, "run 1000");
    ASSERT_EQ(s->session->engine().state(), EngineState::Paused);
    ASSERT_GT(s->session->trace().size(), 0u);
    rt::SimTime hit_t = s->session->trace().events().back().t;
    (void)s->controller().drain_events();

    auto resp = exec(*s, "step-back 1");
    ASSERT_TRUE(resp.ok()) << resp.message;
    EXPECT_EQ(s->target.sim().now(), hit_t - 1);
    EXPECT_NE(s->session->engine().state(), EngineState::Paused)
        << "before the hit the target had not been halted";

    expect_ok(*s, "run 1000");
    ASSERT_EQ(s->session->engine().state(), EngineState::Paused);
    EXPECT_EQ(s->session->trace().events().back().t, hit_t)
        << "the same breakpoint must re-fire at the same sim time";
    bool saw_hit = false;
    for (const auto& ev : s->controller().drain_events())
        if (ev.kind == gp::Event::Kind::BreakpointHit) saw_hit = true;
    EXPECT_TRUE(saw_hit);
}

// ---- bisect -----------------------------------------------------------------

// The lift_fault scenario generates code from a model with an injected
// wrong-transition-target fault while the debugger keeps the design:
// bisect must localize the exact step where behaviour left the model.
TEST(Bisect, LocalizesTheSeededFault) {
    auto s = gp::make_scenario("lift_fault");
    ASSERT_NE(s, nullptr);
    expect_ok(*s, "checkpoint auto 50");
    expect_ok(*s, "run 600");
    const auto& divs = s->session->divergences();
    ASSERT_FALSE(divs.empty()) << "the injected fault must trip the checker";
    rt::SimTime now_before = s->target.sim().now();

    gr::BisectResult res = s->timeline->bisect();
    ASSERT_TRUE(res.error.empty()) << res.error;
    ASSERT_TRUE(res.found);
    EXPECT_EQ(res.t, divs.front().t)
        << "the first bad step is where the first divergence fired";
    EXPECT_EQ(res.reason, divs.front().message);
    EXPECT_GT(res.probes, 1u) << "bisect must actually probe the timeline";
    ASSERT_LT(res.step, s->session->trace().size());
    EXPECT_EQ(s->session->trace().events()[res.step].t, res.t);
    EXPECT_EQ(s->session->trace().events()[res.step].cmd.kind,
              gmdf::link::Cmd::StateEnter)
        << "the culprit is the state entry that tripped the checker, not a "
           "same-timestamp neighbour";

    // Bisect probes must leave the session exactly where it was.
    EXPECT_EQ(s->target.sim().now(), now_before);
    EXPECT_EQ(s->session->divergences().size(), divs.size());
}

TEST(Bisect, CleanTimelineReportsNoDivergence) {
    auto s = gp::make_scenario("blinker");
    ASSERT_NE(s, nullptr);
    expect_ok(*s, "checkpoint now");
    expect_ok(*s, "run 500");
    gr::BisectResult res = s->timeline->bisect();
    ASSERT_TRUE(res.error.empty()) << res.error;
    EXPECT_FALSE(res.found);
    EXPECT_GE(res.probes, 1u);
}

// ---- hub isolation ----------------------------------------------------------

// Rewinding one hosted session must not disturb another: sessions own
// independent targets and timelines; only the addressed one moves.
TEST(Hub, RoutedRewindIsIsolated) {
    gmdf::hub::HubController hub;
    ASSERT_NE(hub.open("blinker", "a"), nullptr);
    ASSERT_NE(hub.open("blinker", "b"), nullptr);
    ASSERT_TRUE(hub.execute_line("@a checkpoint auto 100").ok());
    ASSERT_TRUE(hub.execute_line("run 300").ok());

    auto& entries = hub.registry().entries();
    gp::Scenario& a = *entries[0]->scenario;
    gp::Scenario& b = *entries[1]->scenario;
    ASSERT_EQ(a.target.sim().now(), 300 * rt::kMs);
    ASSERT_EQ(b.target.sim().now(), 300 * rt::kMs);
    std::string b_vcd = b.session->vcd();
    std::size_t b_events = b.session->trace().size();

    auto resp = hub.execute_line("@a rewind 150");
    ASSERT_TRUE(resp.ok()) << resp.message;
    EXPECT_EQ(a.target.sim().now(), 150 * rt::kMs);
    EXPECT_EQ(b.target.sim().now(), 300 * rt::kMs)
        << "rewinding a must not move b's clock";
    EXPECT_EQ(b.session->vcd(), b_vcd);
    EXPECT_EQ(b.session->trace().size(), b_events);

    // A hub-wide run advances both again, from their own clocks.
    ASSERT_TRUE(hub.execute_line("run 100").ok());
    EXPECT_EQ(a.target.sim().now(), 250 * rt::kMs);
    EXPECT_EQ(b.target.sim().now(), 400 * rt::kMs);
}

// ---- replay_frames reuse (satellite) ---------------------------------------

// The `replay` verb (DebugSession::replay_frames) now rides the shared
// replay::animate_trace; the re-animated final frame equals the live
// scene rendered at the same point.
TEST(Replay, FramesStillMatchLiveAnimation) {
    auto s = gp::make_scenario("blinker");
    ASSERT_NE(s, nullptr);
    expect_ok(*s, "run 500");
    auto frames = s->session->replay_frames(1);
    ASSERT_FALSE(frames.empty());
    EXPECT_EQ(frames.back(), s->session->render_ascii());
}

// ---- golden scenario --------------------------------------------------------

// The end-to-end time-travel workflow (checkpoint config, rewind,
// step-back, both bisect outcomes, hub routing) as a byte-stable
// transcript, the same fixture CI diffs against gmdf_dbg.
TEST(Golden, TimetravelScriptTranscriptIsByteStable) {
    gmdf::hub::HubController hub;
    ASSERT_NE(hub.open("blinker", "blinker"), nullptr);
    std::ifstream script(std::string(GMDF_SOURCE_DIR) + "/examples/timetravel.gds");
    ASSERT_TRUE(script) << "missing examples/timetravel.gds";
    std::ostringstream out;
    auto result = gp::run_script(hub, script, out);
    EXPECT_EQ(result.errors, 0u);
    EXPECT_TRUE(result.quit);

    std::ifstream golden_file(std::string(GMDF_SOURCE_DIR) +
                              "/tests/golden/timetravel_transcript.txt");
    ASSERT_TRUE(golden_file) << "missing tests/golden/timetravel_transcript.txt";
    std::ostringstream golden;
    golden << golden_file.rdbuf();
    EXPECT_EQ(out.str(), golden.str());
}

int main(int argc, char** argv) {
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
