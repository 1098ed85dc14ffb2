// Tests for model transformation: flattening, the loader (instrumented
// execution on the simulated target), the C emitter (including a golden
// compile-and-compare against the interpreter), and fault injection.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <limits>
#include <fstream>
#include <random>
#include <sstream>

#include "codegen/cemit.hpp"
#include "codegen/faults.hpp"
#include "codegen/flatten.hpp"
#include "codegen/loader.hpp"
#include "comdes/build.hpp"
#include "comdes/validate.hpp"
#include "link/framing.hpp"

namespace gc = gmdf::comdes;
namespace gg = gmdf::codegen;
namespace gl = gmdf::link;
namespace gm = gmdf::meta;
namespace rt = gmdf::rt;

namespace {

// --- Flattening ---------------------------------------------------------------

TEST(Flatten, GainChain) {
    gc::SystemBuilder sys("s");
    auto a = sys.add_actor("a", 1000);
    auto g1 = a.add_basic("g1", "gain_", {2.0});
    auto g2 = a.add_basic("g2", "gain_", {3.0});
    a.connect(g1, "out", g2, "in");
    std::vector<gg::ExtBinding> ins{{"g1", "in", 0}};
    std::vector<gg::ExtBinding> outs{{"g2", "out", 0}};
    auto prog = gg::flatten_network(sys.model(), sys.model().at(a.network_id()), ins, outs,
                                    nullptr);
    double in = 5.0, out = 0.0;
    prog.run({&in, 1}, {&out, 1}, 0.001);
    EXPECT_DOUBLE_EQ(out, 30.0);
}

TEST(Flatten, UnconnectedInputReadsZero) {
    gc::SystemBuilder sys("s");
    auto a = sys.add_actor("a", 1000);
    a.add_basic("sum", "add_"); // both inputs unconnected
    std::vector<gg::ExtBinding> outs{{"sum", "out", 0}};
    auto prog = gg::flatten_network(sys.model(), sys.model().at(a.network_id()), {}, outs,
                                    nullptr);
    double out = -1.0;
    prog.run({}, {&out, 1}, 0.001);
    EXPECT_DOUBLE_EQ(out, 0.0);
}

TEST(Flatten, DelayFeedbackAccumulator) {
    // out = delay(out) + in  — classic accumulator via delay-broken cycle.
    gc::SystemBuilder sys("s");
    auto a = sys.add_actor("a", 1000);
    auto sum = a.add_basic("sum", "add_");
    auto d = a.add_basic("d", "delay_", {1.0});
    a.connect(sum, "out", d, "in");
    a.connect(d, "out", sum, "in2");
    std::vector<gg::ExtBinding> ins{{"sum", "in1", 0}};
    std::vector<gg::ExtBinding> outs{{"sum", "out", 0}};
    auto prog = gg::flatten_network(sys.model(), sys.model().at(a.network_id()), ins, outs,
                                    nullptr);
    double in = 1.0, out = 0.0;
    for (int i = 1; i <= 5; ++i) {
        prog.run({&in, 1}, {&out, 1}, 0.001);
        EXPECT_DOUBLE_EQ(out, i);
    }
}

TEST(Flatten, CombinationalCycleThrows) {
    gc::SystemBuilder sys("s");
    auto a = sys.add_actor("a", 1000);
    auto g1 = a.add_basic("g1", "gain_", {1.0});
    auto g2 = a.add_basic("g2", "gain_", {1.0});
    a.connect(g1, "out", g2, "in");
    a.connect(g2, "out", g1, "in");
    EXPECT_THROW((void)gg::flatten_network(sys.model(), sys.model().at(a.network_id()), {},
                                           {}, nullptr),
                 std::invalid_argument);
}

TEST(Flatten, CompositeEncapsulates) {
    // Composite "scale2": inner gain of 2, mapped in/out.
    gc::SystemBuilder sys("s");
    auto a = sys.add_actor("a", 1000);
    const auto& c = gc::comdes_metamodel();
    auto& comp = sys.model().create(*c.composite_fb);
    comp.set_attr("name", gm::Value("scale2"));
    auto& inner_net = sys.model().create(*c.network);
    comp.set_ref("network", inner_net.id());
    auto& inner_gain = sys.model().create(*c.basic_fb);
    inner_gain.set_attr("name", gm::Value("g"));
    inner_gain.set_attr("kind", gm::Value("gain_"));
    inner_gain.set_attr("params", gm::Value(gm::Value::List{gm::Value(2.0)}));
    inner_net.add_ref("blocks", inner_gain.id());
    auto add_map = [&](const char* outer, const char* fb, const char* pin, const char* dir) {
        auto& pm = sys.model().create(*c.port_map);
        pm.set_attr("outer_pin", gm::Value(outer));
        pm.set_attr("inner_fb", gm::Value(fb));
        pm.set_attr("inner_pin", gm::Value(pin));
        pm.set_attr("direction", gm::Value(dir));
        comp.add_ref("port_maps", pm.id());
    };
    add_map("x", "g", "in", "in");
    add_map("y", "g", "out", "out");
    sys.model().at(a.network_id()).add_ref("blocks", comp.id());

    std::vector<gg::ExtBinding> ins{{"scale2", "x", 0}};
    std::vector<gg::ExtBinding> outs{{"scale2", "y", 0}};
    auto prog = gg::flatten_network(sys.model(), sys.model().at(a.network_id()), ins, outs,
                                    nullptr);
    double in = 7.0, out = 0.0;
    prog.run({&in, 1}, {&out, 1}, 0.001);
    EXPECT_DOUBLE_EQ(out, 14.0);
}

struct ModeObserver : gg::ProgramObserver {
    std::vector<gm::ObjectId> modes;
    void on_state_enter(gm::ObjectId, gm::ObjectId) override {}
    void on_transition(gm::ObjectId, gm::ObjectId) override {}
    void on_mode_change(gm::ObjectId, gm::ObjectId mode) override { modes.push_back(mode); }
};

// Builds a modal FB with two modes: mode 0 passes through, mode 1 doubles.
struct ModalFixture {
    gc::SystemBuilder sys{"s"};
    gm::ObjectId network;
    gm::ObjectId mode0, mode1;

    ModalFixture() {
        auto a = sys.add_actor("a", 1000);
        network = a.network_id();
        const auto& c = gc::comdes_metamodel();
        auto& modal = sys.model().create(*c.modal_fb);
        modal.set_attr("name", gm::Value("ctl"));
        modal.set_attr("selector_pin", gm::Value("mode"));
        auto make_mode = [&](const char* name, std::int64_t value, double gain) {
            auto& mode = sys.model().create(*c.mode);
            mode.set_attr("name", gm::Value(name));
            mode.set_attr("value", gm::Value(value));
            auto& net = sys.model().create(*c.network);
            mode.set_ref("network", net.id());
            auto& g = sys.model().create(*c.basic_fb);
            g.set_attr("name", gm::Value("g"));
            g.set_attr("kind", gm::Value("gain_"));
            g.set_attr("params", gm::Value(gm::Value::List{gm::Value(gain)}));
            net.add_ref("blocks", g.id());
            auto add_map = [&](const char* outer, const char* pin, const char* dir) {
                auto& pm = sys.model().create(*c.port_map);
                pm.set_attr("outer_pin", gm::Value(outer));
                pm.set_attr("inner_fb", gm::Value("g"));
                pm.set_attr("inner_pin", gm::Value(pin));
                pm.set_attr("direction", gm::Value(dir));
                mode.add_ref("port_maps", pm.id());
            };
            add_map("x", "in", "in");
            add_map("y", "out", "out");
            modal.add_ref("modes", mode.id());
            return mode.id();
        };
        mode0 = make_mode("pass", 0, 1.0);
        mode1 = make_mode("boost", 1, 2.0);
        sys.model().at(network).add_ref("blocks", modal.id());
    }
};

TEST(Flatten, ModalSwitchesAndHolds) {
    ModalFixture f;
    ModeObserver obs;
    std::vector<gg::ExtBinding> ins{{"ctl", "mode", 0}, {"ctl", "x", 1}};
    std::vector<gg::ExtBinding> outs{{"ctl", "y", 0}};
    auto prog =
        gg::flatten_network(f.sys.model(), f.sys.model().at(f.network), ins, outs, &obs);

    std::array<double, 2> in{0.0, 5.0};
    double out = 0.0;
    prog.run(in, {&out, 1}, 0.001);
    EXPECT_DOUBLE_EQ(out, 5.0); // pass-through mode
    in = {1.0, 5.0};
    prog.run(in, {&out, 1}, 0.001);
    EXPECT_DOUBLE_EQ(out, 10.0); // boost mode
    in = {9.0, 100.0};           // unknown selector: outputs hold
    prog.run(in, {&out, 1}, 0.001);
    EXPECT_DOUBLE_EQ(out, 10.0);
    ASSERT_EQ(obs.modes.size(), 2u);
    EXPECT_EQ(obs.modes[0], f.mode0);
    EXPECT_EQ(obs.modes[1], f.mode1);
}

TEST(Flatten, StaticCostPositiveAndMonotonic) {
    gc::SystemBuilder sys("s");
    auto a = sys.add_actor("a", 1000);
    auto g1 = a.add_basic("g1", "gain_", {1.0});
    (void)g1;
    auto small = gg::flatten_network(sys.model(), sys.model().at(a.network_id()), {}, {},
                                     nullptr);
    a.add_basic("pid", "pid_", {1, 1, 0, -10, 10});
    auto bigger = gg::flatten_network(sys.model(), sys.model().at(a.network_id()), {}, {},
                                      nullptr);
    EXPECT_GT(gg::static_cost(small), 0u);
    EXPECT_GT(gg::static_cost(bigger), gg::static_cost(small));
}

// --- Loader / instrumented execution -------------------------------------------

// Blinker system: a periodic SM toggles `led` every `ticks` scans using a
// counter input driven by a constant.
struct BlinkerFixture {
    gc::SystemBuilder sys{"blink_sys"};
    gm::ObjectId led, sm_id, s_off, s_on;

    BlinkerFixture() {
        led = sys.add_signal("led", "bool_");
        auto a = sys.add_actor("blinker", 10'000); // 10 ms period
        auto smb = a.add_sm("toggler", {"tick"}, {"out"});
        s_off = smb.add_state("off", {{"out", "0"}});
        s_on = smb.add_state("on", {{"out", "1"}});
        smb.add_transition(s_off, s_on, "tick");
        smb.add_transition(s_on, s_off, "tick");
        sm_id = smb.sm_id();
        auto one = a.add_basic("one", "const_", {1.0});
        a.connect(one, "out", sm_id, "tick");
        a.bind_output(sm_id, "out", led);
        EXPECT_TRUE(gm::is_clean(gc::validate_comdes(sys.model())));
    }
};

TEST(Loader, SystemRunsAndTogglesSignal) {
    BlinkerFixture f;
    rt::Target target;
    auto loaded = gg::load_system(target, f.sys.model(), gg::InstrumentOptions::none());
    ASSERT_EQ(loaded.actors.size(), 1u);
    target.start();

    std::vector<double> observed;
    target.sim().every(15 * rt::kMs, 10 * rt::kMs, [&] {
        observed.push_back(target.node(0).signal(loaded.signal_index.at(f.led.raw)));
    });
    target.run_for(100 * rt::kMs);
    ASSERT_GE(observed.size(), 8u);
    // Toggles every scan: on, off, on, off...
    for (std::size_t i = 0; i + 1 < observed.size(); ++i)
        EXPECT_NE(observed[i], observed[i + 1]);
}

TEST(Loader, ActiveModeEmitsDecodableCommands) {
    BlinkerFixture f;
    rt::Target target;
    auto loaded = gg::load_system(target, f.sys.model(), gg::InstrumentOptions::active());
    (void)loaded;
    gl::FrameDecoder decoder;
    std::vector<gl::Command> cmds;
    std::size_t undecodable = 0;
    target.set_debug_sink([&](int, std::span<const std::uint8_t> bytes, rt::SimTime) {
        decoder.feed(bytes, [&](std::span<const std::uint8_t> p) {
            if (auto cmd = gl::decode_command(p)) cmds.push_back(*cmd);
            else ++undecodable;
        });
    });
    target.start();
    target.run_for(55 * rt::kMs);

    EXPECT_EQ(undecodable, 0u);
    ASSERT_FALSE(cmds.empty());
    // First scan: TASK_START, STATE_ENTER(initial=off), TRANSITION,
    // STATE_ENTER(on), SIGNAL_UPDATE, TASK_END.
    EXPECT_EQ(cmds[0].kind, gl::Cmd::TaskStart);
    EXPECT_EQ(cmds[1].kind, gl::Cmd::StateEnter);
    EXPECT_EQ(cmds[1].a, static_cast<std::uint32_t>(f.sm_id.raw));
    EXPECT_EQ(cmds[1].b, static_cast<std::uint32_t>(f.s_off.raw));
    EXPECT_EQ(cmds[2].kind, gl::Cmd::Transition);
    EXPECT_EQ(cmds[3].kind, gl::Cmd::StateEnter);
    EXPECT_EQ(cmds[3].b, static_cast<std::uint32_t>(f.s_on.raw));
    bool saw_signal = false;
    for (const auto& c : cmds)
        if (c.kind == gl::Cmd::SignalUpdate) saw_signal = true;
    EXPECT_TRUE(saw_signal);
    EXPECT_GT(target.total_instr_cycles(), 0u);
}

TEST(Loader, PassiveModeMirrorsStateWithZeroInstrumentation) {
    BlinkerFixture f;
    rt::Target target;
    auto loaded = gg::load_system(target, f.sys.model(), gg::InstrumentOptions::passive());
    target.start();
    target.run_for(25 * rt::kMs);

    EXPECT_EQ(target.total_instr_cycles(), 0u);
    const auto& mem = target.node(0).memory();
    ASSERT_TRUE(mem.has_symbol("blinker.toggler_state"));
    // After two scans (off->on, on->off) the state is 'off' (index 0);
    // after one scan it is 'on' (index 1). 25ms => 2 scans completed.
    auto state = mem.read_u32(mem.address_of("blinker.toggler_state"));
    EXPECT_EQ(state, 0u);
    ASSERT_TRUE(mem.has_symbol("sig_led"));
    ASSERT_EQ(loaded.actors[0].elements.size(), 1u);
    EXPECT_EQ(loaded.actors[0].elements[0].element, f.sm_id);
}

TEST(Loader, ReleaseModeHasNoMirrorSymbols) {
    BlinkerFixture f;
    rt::Target target;
    (void)gg::load_system(target, f.sys.model(), gg::InstrumentOptions::none());
    EXPECT_FALSE(target.node(0).memory().has_symbol("sig_led"));
    EXPECT_EQ(target.node(0).memory().word_count(), 1u); // SM mirror word only
}

TEST(Loader, ActorsDistributeAcrossNodes) {
    gc::SystemBuilder sys("dist");
    auto x = sys.add_signal("x");
    auto a0 = sys.add_actor("producer", 10'000, 0, /*node=*/0);
    auto c0 = a0.add_basic("one", "const_", {42.0});
    a0.bind_output(c0, "out", x);
    auto a1 = sys.add_actor("consumer", 10'000, 0, /*node=*/1);
    auto g = a1.add_basic("g", "gain_", {1.0});
    a1.bind_input(x, g, "in");

    rt::Target target;
    auto loaded = gg::load_system(target, sys.model(), gg::InstrumentOptions::none());
    EXPECT_EQ(target.node_count(), 2u);
    target.start();
    target.run_for(50 * rt::kMs);
    // Value propagated across the network to node 1's replica.
    EXPECT_DOUBLE_EQ(target.node(1).signal(loaded.signal_index.at(x.raw)), 42.0);
}

// --- C emitter ------------------------------------------------------------------

/// Emits `actor` as C with a stdin/stdout test main, compiles it with the
/// system C compiler, runs it over `inputs` (one scan per row), and
/// expects every output of every scan within 1e-9 of the interpreter's
/// (the flattened actor run over the same inputs). NaN matches only NaN,
/// and a zero must carry the interpreter's sign.
void expect_c_matches_interpreter(const gm::Model& model, const std::string& actor_name,
                                  const std::vector<std::vector<double>>& inputs,
                                  std::size_t n_out, const std::string& tag) {
    const gm::MObject* actor = model.find_named(*gc::comdes_metamodel().actor, actor_name);
    ASSERT_NE(actor, nullptr);

    gg::CEmitOptions copts;
    copts.test_main = true;
    copts.dt = 0.001;
    std::string source = gg::emit_actor_c(model, *actor, copts);

    std::string dir = ::testing::TempDir();
    std::string c_path = dir + "/" + tag + ".c";
    std::string bin_path = dir + "/" + tag;
    {
        std::ofstream f(c_path);
        f << source;
    }
    std::string compile = "cc -O1 -w -o " + bin_path + " " + c_path + " -lm 2>&1";
    ASSERT_EQ(std::system(compile.c_str()), 0) << "generated C failed to compile:\n" << source;

    std::ostringstream stimulus;
    stimulus.precision(17); // round-trippable: both sides see identical values
    for (const auto& row : inputs) {
        for (double v : row) stimulus << v << " ";
        stimulus << "\n";
    }
    std::string stim_path = dir + "/" + tag + "_stim.txt";
    {
        std::ofstream f(stim_path);
        f << stimulus.str();
    }
    std::string run = bin_path + " < " + stim_path;
    FILE* pipe = popen(run.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    std::vector<double> c_out;
    double v;
    while (fscanf(pipe, "%lf", &v) == 1) c_out.push_back(v);
    pclose(pipe);
    ASSERT_EQ(c_out.size(), inputs.size() * n_out);

    auto prog = gg::flatten_actor(model, *actor, nullptr);
    std::vector<double> out(n_out);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        prog.run(inputs[i], out, 0.001);
        for (std::size_t k = 0; k < n_out; ++k) {
            double c = c_out[i * n_out + k];
            EXPECT_EQ(std::isnan(c), std::isnan(out[k]))
                << "scan " << i << " output " << k << ": C " << c << ", interpreter " << out[k];
            if (std::isnan(c) || std::isnan(out[k])) continue;
            EXPECT_NEAR(c, out[k], 1e-9) << "scan " << i << " output " << k;
            if (c == 0.0 && out[k] == 0.0) {
                EXPECT_EQ(std::signbit(c), std::signbit(out[k]))
                    << "scan " << i << " output " << k << ": C " << c << ", interpreter " << out[k];
            }
        }
    }
}

// Runs an emitted C program against the interpreter on random inputs.
// Model: expression + PID + SM + delay (stateful, eventful).
class GoldenC : public ::testing::TestWithParam<unsigned> {};

TEST_P(GoldenC, CompiledCodeMatchesInterpreter) {
    gc::SystemBuilder sys("gold");
    auto sig_u = sys.add_signal("u");
    auto sig_v = sys.add_signal("v");
    auto sig_y = sys.add_signal("y");
    auto sig_s = sys.add_signal("s");
    auto a = sys.add_actor("ctl", 1000);
    auto e = a.add_basic("mix", "expression_", {}, "a * 0.5 + max(b, 1.0)");
    auto lp = a.add_basic("lp", "lowpass_", {0.05});
    auto smb = a.add_sm("fsm", {"go", "lvl"}, {"speed"});
    auto s0 = smb.add_state("idle", {{"speed", "0"}});
    auto s1 = smb.add_state("run", {{"speed", "lvl * 2"}});
    smb.add_transition(s0, s1, "go", "lvl > 1");
    smb.add_transition(s1, s0, "", "lvl < 0.5");
    auto gt = a.add_basic("gt", "gt_", {2.0});
    a.connect(e, "out", lp, "in");
    a.connect(e, "out", gt, "in");
    a.connect(gt, "out", smb.sm_id(), "go");
    a.bind_input(sig_u, e, "a");
    a.bind_input(sig_v, e, "b");
    a.bind_input(sig_u, smb.sm_id(), "lvl");
    a.bind_output(lp, "out", sig_y);
    a.bind_output(smb.sm_id(), "speed", sig_s);
    ASSERT_TRUE(gm::is_clean(gc::validate_comdes(sys.model())));

    // Drive both with the same random input sequence: u, v, u (lvl shares u).
    std::mt19937 rng(GetParam());
    std::uniform_real_distribution<double> dist(-3.0, 3.0);
    std::vector<std::vector<double>> inputs;
    for (int i = 0; i < 200; ++i) {
        double u = dist(rng), v = dist(rng);
        inputs.push_back({u, v, u});
    }
    expect_c_matches_interpreter(sys.model(), "ctl", inputs, 2,
                                 "gold_actor_" + std::to_string(GetParam()));
}

// limit_, ratelimit_ and clamp() with lo > hi: every engine applies lo
// first, then hi, so the result is hi.
TEST(GoldenCClamp, InvertedBoundsMatchInterpreter) {
    gc::SystemBuilder sys("inv");
    auto sig_u = sys.add_signal("u");
    auto sig_l = sys.add_signal("l");
    auto sig_r = sys.add_signal("r");
    auto sig_c = sys.add_signal("c");
    auto a = sys.add_actor("inv", 1000);
    auto lim = a.add_basic("lim", "limit_", {1.0, -1.0});
    auto rl = a.add_basic("rl", "ratelimit_", {-2.0});
    auto cl = a.add_basic("cl", "expression_", {}, "clamp(a, 1.0, -1.0)");
    a.bind_input(sig_u, lim, "in");
    a.bind_input(sig_u, rl, "in");
    a.bind_input(sig_u, cl, "a");
    a.bind_output(lim, "out", sig_l);
    a.bind_output(rl, "out", sig_r);
    a.bind_output(cl, "out", sig_c);
    ASSERT_TRUE(gm::is_clean(gc::validate_comdes(sys.model())));

    std::vector<std::vector<double>> inputs;
    for (double u : {-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0, 0.25, -2.0})
        inputs.push_back({u, u, u});
    expect_c_matches_interpreter(sys.model(), "inv", inputs, 3, "inv_actor");
}

// min_/max_ and the min()/max() builtins on NaN and signed zeros: every
// engine has std::min/std::max semantics (the first operand wins a tie or
// an unordered pair), so min(NaN, 1) is NaN, min(1, NaN) is 1 and
// min(0.0, -0.0) is 0.0.
TEST(GoldenCMinMax, NanAndSignedZeroMatchInterpreter) {
    gc::SystemBuilder sys("mm");
    auto sig_a = sys.add_signal("a");
    auto sig_b = sys.add_signal("b");
    auto a = sys.add_actor("mm", 1000);
    std::vector<gm::ObjectId> blocks = {
        a.add_basic("lo", "min_", {}),
        a.add_basic("hi", "max_", {}),
        a.add_basic("elo", "expression_", {}, "min(a, b)"),
        a.add_basic("ehi", "expression_", {}, "max(a, b)"),
    };
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        bool fb = i < 2;
        a.bind_input(sig_a, blocks[i], fb ? "in1" : "a");
        a.bind_input(sig_b, blocks[i], fb ? "in2" : "b");
        a.bind_output(blocks[i], "out", sys.add_signal("y" + std::to_string(i)));
    }
    ASSERT_TRUE(gm::is_clean(gc::validate_comdes(sys.model())));

    // Every binding is its own input slot: (a, b) once per block.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::vector<std::vector<double>> inputs;
    for (auto [x, y] : std::vector<std::pair<double, double>>{
             {nan, 1.0}, {1.0, nan}, {nan, nan}, {0.0, -0.0}, {-0.0, 0.0},
             {-0.0, -0.0}, {2.0, -3.0}, {-3.0, 2.0}}) {
        inputs.emplace_back();
        for (std::size_t i = 0; i < blocks.size(); ++i)
            inputs.back().insert(inputs.back().end(), {x, y});
    }
    expect_c_matches_interpreter(sys.model(), "mm", inputs, blocks.size(), "minmax_actor");
}

INSTANTIATE_TEST_SUITE_P(Seeds, GoldenC, ::testing::Values(7u, 99u));

TEST(CEmit, ContainsExpectedInterface) {
    BlinkerFixture f;
    const gm::MObject* actor =
        f.sys.model().find_named(*gc::comdes_metamodel().actor, "blinker");
    std::string src = gg::emit_actor_c(f.sys.model(), *actor);
    EXPECT_NE(src.find("blinker_state_t"), std::string::npos);
    EXPECT_NE(src.find("void blinker_init"), std::string::npos);
    EXPECT_NE(src.find("void blinker_step"), std::string::npos);
    EXPECT_NE(src.find("GMDF_EMIT"), std::string::npos);
    EXPECT_NE(src.find("volatile unsigned"), std::string::npos); // passive mirror
    EXPECT_EQ(src.find("main("), std::string::npos);             // no test main by default
}

// --- Fault injection ------------------------------------------------------------

TEST(Faults, CloneKeepsIds) {
    BlinkerFixture f;
    gm::Model copy = f.sys.model().clone();
    EXPECT_EQ(copy.size(), f.sys.model().size());
    EXPECT_EQ(copy.at(f.sm_id).name(), "toggler");
    // Deep copy: mutating the clone leaves the original intact.
    copy.at(f.sm_id).set_attr("name", gm::Value("mutated"));
    EXPECT_EQ(f.sys.model().at(f.sm_id).name(), "toggler");
}

TEST(Faults, EachKindReportsOrDeclines) {
    BlinkerFixture f;
    for (auto kind : gg::all_fault_kinds()) {
        gm::Model copy = f.sys.model().clone();
        auto report = gg::inject_fault(copy, kind, 3);
        if (kind == gg::FaultKind::NegateGuard) {
            EXPECT_FALSE(report.has_value()); // blinker has no guards
            continue;
        }
        ASSERT_TRUE(report.has_value()) << gg::to_string(kind);
        EXPECT_FALSE(report->description.empty());
    }
}

TEST(Faults, WrongInitialStateChangesFirstEntry) {
    BlinkerFixture f;
    gm::Model mutated = f.sys.model().clone();
    auto report = gg::inject_fault(mutated, gg::FaultKind::WrongInitialState, 1);
    ASSERT_TRUE(report.has_value());

    auto first_entry = [&](const gm::Model& m) {
        struct Obs : gg::ProgramObserver {
            gm::ObjectId first;
            void on_state_enter(gm::ObjectId, gm::ObjectId s) override {
                if (first.is_null()) first = s;
            }
            void on_transition(gm::ObjectId, gm::ObjectId) override {}
            void on_mode_change(gm::ObjectId, gm::ObjectId) override {}
        } obs;
        const gm::MObject* actor = m.find_named(*gc::comdes_metamodel().actor, "blinker");
        auto prog = gg::flatten_actor(m, *actor, &obs);
        double out = 0.0;
        prog.run({}, {&out, 1}, 0.001);
        return obs.first;
    };
    EXPECT_EQ(first_entry(f.sys.model()), f.s_off);
    EXPECT_EQ(first_entry(mutated), f.s_on); // fault flipped the initial state
}

TEST(Faults, NegateGuardFlipsBehaviour) {
    gc::SystemBuilder sys("s");
    auto a = sys.add_actor("a", 1000);
    auto smb = a.add_sm("fsm", {"x"}, {"y"});
    auto s0 = smb.add_state("lo", {{"y", "0"}});
    auto s1 = smb.add_state("hi", {{"y", "1"}});
    smb.add_transition(s0, s1, "", "x > 5");
    smb.add_transition(s1, s0, "", "x <= 5");

    gm::Model mutated = sys.model().clone();
    auto report = gg::inject_fault(mutated, gg::FaultKind::NegateGuard, 0);
    ASSERT_TRUE(report.has_value());

    // Drive a stimulus that exercises both transitions and record the
    // state trajectory.
    auto trajectory = [&](const gm::Model& m) {
        const gm::MObject* actor = m.find_named(*gc::comdes_metamodel().actor, "a");
        std::vector<gg::ExtBinding> ins{{"fsm", "x", 0}};
        std::vector<gg::ExtBinding> outs{{"fsm", "state", 0}};
        const gm::MObject* net = m.get(actor->ref("network"));
        auto prog = gg::flatten_network(m, *net, ins, outs, nullptr);
        std::vector<double> states;
        for (double x : {1.0, 9.0, 9.0, 1.0}) {
            double out = 0.0;
            prog.run({&x, 1}, {&out, 1}, 0.001);
            states.push_back(out);
        }
        return states;
    };
    auto original = trajectory(sys.model());
    EXPECT_EQ(original, (std::vector<double>{0, 1, 1, 0}));
    EXPECT_NE(trajectory(mutated), original);
}

TEST(Faults, DropConnectionRemovesObject) {
    BlinkerFixture f;
    gm::Model mutated = f.sys.model().clone();
    auto before = mutated.all_of(*gc::comdes_metamodel().connection).size();
    auto report = gg::inject_fault(mutated, gg::FaultKind::DropConnection, 5);
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(mutated.all_of(*gc::comdes_metamodel().connection).size(), before - 1);
}

} // namespace
