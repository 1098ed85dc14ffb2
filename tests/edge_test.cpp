// Edge-case and robustness tests across modules: empty inputs, boundary
// strides, decay behaviour, malformed wire data, and odd-but-legal models.
#include <gtest/gtest.h>

#include "codegen/loader.hpp"
#include "comdes/build.hpp"
#include "comdes/validate.hpp"
#include "core/animator.hpp"
#include "core/session.hpp"
#include "core/transports.hpp"
#include "meta/serialize.hpp"

namespace gc = gmdf::comdes;
namespace gg = gmdf::codegen;
namespace gl = gmdf::link;
namespace gm = gmdf::meta;
namespace gco = gmdf::core;
namespace rt = gmdf::rt;

namespace {

TEST(Edge, AbstractEmptyModel) {
    gm::Model empty(gc::comdes_metamodel().mm);
    auto result = gco::abstract_model(empty, gco::comdes_default_mapping());
    EXPECT_EQ(result.mapped_nodes, 0u);
    EXPECT_EQ(result.mapped_edges, 0u);
    EXPECT_EQ(gmdf::render::render_ascii(result.scene), "(empty scene)\n");
}

TEST(Edge, ReplayStrideLargerThanTrace) {
    gc::SystemBuilder sys("s");
    auto a = sys.add_actor("a", 10'000);
    auto sm = a.add_sm("m", {"go"}, {});
    auto s0 = sm.add_state("s0");
    sm.add_transition(s0, s0, "go");
    gco::DebugSession session(sys.model());
    session.engine().ingest({gl::Cmd::StateEnter, static_cast<std::uint32_t>(sm.sm_id().raw),
                             static_cast<std::uint32_t>(s0.raw), 0.0f},
                            rt::kMs);
    EXPECT_TRUE(session.replay_frames(100).empty()); // stride > events: no frame
    EXPECT_EQ(session.replay_frames(1).size(), 1u);
    EXPECT_EQ(session.replay_frames(0).size(), 1u); // stride 0 clamps to 1
}

TEST(Edge, HighlightDecaysBetweenDistantEvents) {
    gc::SystemBuilder sys("s");
    auto a = sys.add_actor("a", 10'000);
    auto sm = a.add_sm("m", {"go"}, {});
    auto s0 = sm.add_state("s0");
    auto s1 = sm.add_state("s1");
    sm.add_transition(s0, s1, "go");
    auto abs = gco::abstract_model(sys.model(), gco::comdes_default_mapping());
    gco::DebuggerEngine engine(sys.model());
    gco::SceneAnimator animator(sys.model(), abs.scene);
    animator.set_highlight_half_life(100 * rt::kMs);
    engine.add_observer(&animator);

    auto enter = [&](gm::ObjectId st, rt::SimTime t) {
        engine.ingest({gl::Cmd::StateEnter, static_cast<std::uint32_t>(sm.sm_id().raw),
                       static_cast<std::uint32_t>(st.raw), 0.0f},
                      t);
    };
    enter(s0, rt::kMs);
    EXPECT_DOUBLE_EQ(abs.scene.find_node(s0.raw)->style.intensity, 1.0);
    // Ten half-lives later another event arrives: the old highlight has
    // decayed away (exclusive highlight also clears it, so check s1).
    enter(s1, rt::kMs + rt::kSec);
    EXPECT_DOUBLE_EQ(abs.scene.find_node(s1.raw)->style.intensity, 1.0);
    EXPECT_FALSE(abs.scene.find_node(s0.raw)->style.highlighted);
}

TEST(Edge, DecoderSurvivesRandomGarbage) {
    gl::FrameDecoder decoder;
    std::vector<std::uint8_t> garbage;
    for (int i = 0; i < 1000; ++i)
        garbage.push_back(static_cast<std::uint8_t>((i * 7919) & 0xFF));
    std::vector<std::vector<std::uint8_t>> payloads;
    auto collect = [&](std::span<const std::uint8_t> p) {
        payloads.emplace_back(p.begin(), p.end());
    };
    decoder.feed(garbage, collect);
    std::vector<std::uint8_t> good;
    gl::append_frame(good, gl::encode_command({gl::Cmd::Hello, 1, 2, 0.0f}));
    decoder.feed(good, collect);
    // Garbage may alias to at most corrupt frames, never to valid ones
    // except astronomically unlikely CRC collisions; the good frame must
    // arrive last.
    ASSERT_FALSE(payloads.empty());
    auto cmd = gl::decode_command(payloads.back());
    ASSERT_TRUE(cmd.has_value());
    EXPECT_EQ(cmd->kind, gl::Cmd::Hello);
}

TEST(Edge, ActorWithNoSignalsRuns) {
    gc::SystemBuilder sys("inert");
    auto a = sys.add_actor("idle_actor", 10'000);
    a.add_basic("c", "const_", {1.0});
    ASSERT_TRUE(gm::is_clean(gc::validate_comdes(sys.model())));
    rt::Target target;
    (void)gg::load_system(target, sys.model(), gg::InstrumentOptions::active());
    target.start();
    target.run_for(55 * rt::kMs); // releases at 10..50 ms complete by 55 ms
    EXPECT_EQ(target.node(0).task_stats("idle_actor").completions, 5u);
}

TEST(Edge, SelfLoopTransitionAnimates) {
    gc::SystemBuilder sys("loop");
    auto a = sys.add_actor("a", 10'000);
    auto sm = a.add_sm("m", {"go"}, {"n"});
    auto s0 = sm.add_state("busy");
    auto t_self = sm.add_transition(s0, s0, "go");
    auto one = a.add_basic("one", "const_", {1.0});
    a.connect(one, "out", sm.sm_id(), "go");
    ASSERT_TRUE(gm::is_clean(gc::validate_comdes(sys.model())));

    rt::Target target;
    (void)gg::load_system(target, sys.model(), gg::InstrumentOptions::active());
    gco::DebugSession session(sys.model());
    session.attach(gco::make_active_uart_transport(target));
    target.start();
    target.run_for(100 * rt::kMs);
    // Self transitions re-fire every scan and must not diverge.
    EXPECT_TRUE(session.divergences().empty());
    EXPECT_GT(session.trace().filter(gl::Cmd::Transition).size(), 3u);
    EXPECT_NE(session.scene().find_edge(t_self.raw), nullptr);
}

TEST(Edge, ZeroPeriodActorRejected) {
    gc::SystemBuilder sys("bad");
    sys.add_actor("a", 0);
    EXPECT_FALSE(gm::is_clean(gc::validate_comdes(sys.model())));
}

TEST(Edge, VcdFromEmptyTraceIsValid) {
    gco::TraceRecorder trace;
    gm::Model empty(gc::comdes_metamodel().mm);
    std::string vcd = trace.to_vcd(empty);
    EXPECT_NE(vcd.find("$enddefinitions"), std::string::npos);
}

TEST(Edge, SerializeSpecialFloats) {
    gc::SystemBuilder sys("floats");
    auto sig = sys.add_signal("x", "real_", 1.0e-300);
    auto& obj = sys.model().at(sig);
    obj.set_attr("init", gm::Value(-0.0));
    std::string text = gm::write_model(sys.model());
    gm::Model reread = gm::read_model(gc::comdes_metamodel().mm, text);
    EXPECT_EQ(gm::write_model(reread), text);
}

TEST(Edge, PauseDuringUartBacklogStillDelivers) {
    // Events queued on the wire before a pause must still reach the
    // debugger (they left the target already).
    gc::SystemBuilder sys("backlog");
    auto a = sys.add_actor("fast", 1'000);
    auto sm = a.add_sm("m", {"go"}, {});
    auto s0 = sm.add_state("s0");
    auto s1 = sm.add_state("s1");
    sm.add_transition(s0, s1, "go");
    sm.add_transition(s1, s0, "go");
    auto one = a.add_basic("one", "const_", {1.0});
    a.connect(one, "out", sm.sm_id(), "go");

    rt::Target target;
    (void)gg::load_system(target, sys.model(), gg::InstrumentOptions::active());
    gco::DebugSession session(sys.model());
    session.attach(gco::make_active_uart_transport(target));
    target.start();
    target.run_for(100 * rt::kMs);
    auto before = session.engine().stats().commands;
    target.pause();
    target.run_for(500 * rt::kMs); // wire backlog drains while paused
    EXPECT_GT(session.engine().stats().commands, before);
}

} // namespace
