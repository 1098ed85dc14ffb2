// F2 — paper Fig. 2: GMDF structural view.
// Measures the command path through every framework layer: encode ->
// frame -> (wire) -> decode -> engine ingest -> reaction on the GDM, both
// as a host-side microbenchmark and end-to-end through the simulated
// target (UART wire latency included).
#include <benchmark/benchmark.h>

#include "codegen/loader.hpp"
#include "comdes/build.hpp"
#include "core/session.hpp"
#include "core/animator.hpp"
#include "core/transports.hpp"
#include "link/framing.hpp"

using namespace gmdf;

namespace {

struct Demo {
    comdes::SystemBuilder sys{"f2"};
    meta::ObjectId sig, sm_id, s0, s1;

    Demo() {
        sig = sys.add_signal("x");
        auto a = sys.add_actor("a", 10'000);
        auto sm = a.add_sm("m", {"go"}, {"y"});
        s0 = sm.add_state("s0");
        s1 = sm.add_state("s1");
        sm.add_transition(s0, s1, "go");
        sm.add_transition(s1, s0, "", "!go");
        sm_id = sm.sm_id();
        auto c = a.add_basic("c", "const_", {1.0});
        a.connect(c, "out", sm_id, "go");
        a.bind_output(sm_id, "y", sig);
    }
};

// The target's encode path: ProgramBody::emit frames into a reused buffer.
void BM_EncodeFrame(benchmark::State& state) {
    link::Command cmd{link::Cmd::StateEnter, 42, 99, 1.5f};
    std::vector<std::uint8_t> wire;
    for (auto _ : state) {
        wire.clear();
        link::append_frame(wire, link::encode_command(cmd));
        benchmark::DoNotOptimize(wire.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_EncodeFrame);

// The host's decode path: ActiveUartTransport feeds the decoder and takes
// each payload through the callback.
void BM_DecodeFrame(benchmark::State& state) {
    link::Command cmd{link::Cmd::StateEnter, 42, 99, 1.5f};
    std::vector<std::uint8_t> wire;
    link::append_frame(wire, link::encode_command(cmd));
    link::FrameDecoder decoder;
    std::size_t payloads = 0;
    for (auto _ : state) {
        decoder.feed(wire, [&](std::span<const std::uint8_t>) { ++payloads; });
        benchmark::DoNotOptimize(payloads);
    }
}
BENCHMARK(BM_DecodeFrame);

/// Host-side path: decode + ingest + reaction (no simulated wire).
void BM_HostPath_IngestReaction(benchmark::State& state) {
    Demo d;
    auto abs = core::abstract_model(d.sys.model(), core::comdes_default_mapping());
    core::DebuggerEngine engine(d.sys.model());
    core::SceneAnimator animator(d.sys.model(), abs.scene);
    engine.add_observer(&animator);
    link::Command enter0{link::Cmd::StateEnter, static_cast<std::uint32_t>(d.sm_id.raw),
                         static_cast<std::uint32_t>(d.s0.raw), 0.0f};
    link::Command enter1{link::Cmd::StateEnter, static_cast<std::uint32_t>(d.sm_id.raw),
                         static_cast<std::uint32_t>(d.s1.raw), 0.0f};
    rt::SimTime t = 0;
    for (auto _ : state) {
        engine.ingest(enter0, t += rt::kUs);
        engine.ingest(enter1, t += rt::kUs);
    }
    state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_HostPath_IngestReaction);

/// End-to-end: simulated seconds per wall second at different event rates
/// (task periods), wire latency included.
void BM_EndToEnd_SimulatedSecond(benchmark::State& state) {
    auto period_us = state.range(0);
    for (auto _ : state) {
        state.PauseTiming();
        comdes::SystemBuilder sys("f2rate");
        auto sig = sys.add_signal("x");
        auto a = sys.add_actor("a", period_us);
        auto sm = a.add_sm("m", {"go"}, {"y"});
        auto s0 = sm.add_state("s0");
        auto s1 = sm.add_state("s1");
        sm.add_transition(s0, s1, "go");
        sm.add_transition(s1, s0, "", "!go");
        auto c = a.add_basic("c", "const_", {1.0});
        a.connect(c, "out", sm.sm_id(), "go");
        a.bind_output(sm.sm_id(), "y", sig);
        rt::Target target;
        (void)codegen::load_system(target, sys.model(),
                                   codegen::InstrumentOptions::active());
        core::DebugSession session(sys.model());
        session.attach(core::make_active_uart_transport(target));
        target.start();
        state.ResumeTiming();
        target.run_for(rt::kSec);
        state.PauseTiming();
        state.counters["cmds_per_sim_s"] =
            static_cast<double>(session.engine().stats().commands);
        state.ResumeTiming();
    }
    state.SetLabel("task period " + std::to_string(period_us) + "us");
}
BENCHMARK(BM_EndToEnd_SimulatedSecond)->Arg(50'000)->Arg(10'000)->Arg(2'000);

} // namespace

BENCHMARK_MAIN();
