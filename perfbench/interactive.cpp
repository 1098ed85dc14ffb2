// interactive: four debugger clients, each on its own session of a small
// hub, in closed loop over loopback TCP (three frame-codec clients, one
// line-codec client), each replaying the repo's example debugger sessions
// with `run 1` for their runs: the request path does the work, the fleet
// pump does little.
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"
#include "hub/registry.hpp"
#include "hub/sharded.hpp"
#include "proto/message.hpp"
#include "replay/timeline.hpp"
#include "script.hpp"

namespace perfbench {

namespace {

struct Client {
    std::string scenario;
    std::string name;
    std::string signal;
    std::string machine;
    std::string state;
};

constexpr int kCycles = 10;   ///< body cycles per round (196 ops each)
constexpr int kVariants = 8;  ///< hubs rounds cycle through (one generated model each)

/// What a cycle request does beyond sending its line.
enum class Kind {
    Line,        ///< send the line as it is
    Run,         ///< `run 1`, alone in its step, on the next client in turn
    Control,     ///< `resume` when the session is paused, else `query state`
    BreakAdd,    ///< remember the new breakpoint's handle
    BreakRemove, ///< remove the client's oldest breakpoint
    Checkpoint,  ///< remember the checkpoint's time
    Rewind,      ///< rewind to the last remembered checkpoint
};

struct CycleReq {
    Kind kind;
    const char* line = ""; ///< {s} session, {m} machine, {sig} signal, {st} state
};

/// One cycle: the debugger sessions recorded in examples/quickstart.gds,
/// examples/timetravel.gds and examples/fleet.gds, request by request and
/// in order, sent by every client to its own session. Requests that would
/// fail or act on other sessions there are replaced (the example request
/// is named in the comment); README.md gives the reasons. Every `run`
/// advances the whole hub, so the cycle's 8 runs are shared among the
/// clients, and each session advances 8 times per cycle as in the scripts.
constexpr CycleReq kCycle[] = {
    // quickstart.gds
    {Kind::Line, "info"},
    {Kind::BreakAdd, "break add state {st}"},
    {Kind::Run},
    {Kind::Line, "query state {m}"},
    {Kind::Line, "query signal {sig}"},
    {Kind::Line, "break list"},
    {Kind::Control}, // step blinker
    {Kind::Run},
    {Kind::Line, "query state {m}"},
    {Kind::BreakRemove, "break remove "},
    {Kind::Control}, // resume
    {Kind::Run},
    {Kind::Line, "query stats"},
    {Kind::Line, "query divergences"},
    {Kind::Line, "render ascii"},
    {Kind::Line, "trace timing 64"},
    {Kind::Line, "replay 8"},
    // timetravel.gds
    {Kind::Checkpoint, "checkpoint now"}, // checkpoint auto 100
    {Kind::Line, "checkpoint limit 4194304"},
    {Kind::BreakAdd, "break add state {st}"},
    {Kind::Run},
    {Kind::Line, "query state {m}"},
    {Kind::Line, "checkpoint list"},
    {Kind::Line, "trace timing 48"},
    {Kind::Rewind, "rewind "},
    {Kind::Line, "query state {m}"},
    {Kind::Run},
    {Kind::Line, "trace timing 48"},
    {Kind::Control}, // step-back 2
    {Kind::Line, "query state {m}"},
    {Kind::Run},
    {Kind::Line, "query state {m}"},
    {Kind::Rewind, "rewind "},                // bisect
    {Kind::Line, "session use {s}"},          // session open lift_fault lift
    {Kind::Checkpoint, "@{s} checkpoint now"}, // @lift checkpoint auto 50
    {Kind::Run},
    {Kind::Line, "@{s} query divergences"},
    {Kind::Rewind, "@{s} rewind "}, // @lift bisect
    // fleet.gds
    {Kind::Line, "session list"},
    {Kind::Line, "session use {s}"}, // session open turntable cell
    {Kind::Line, "session list"},
    {Kind::BreakAdd, "@{s} break add state {st}"},
    {Kind::BreakAdd, "@{s} break add state {st}"},
    {Kind::Run},
    {Kind::Line, "@{s} query state {m}"},
    {Kind::Line, "@{s} query state {m}"},
    {Kind::Line, "@{s} query signal {sig}"},
    {Kind::Line, "session use {s}"},
    {Kind::Line, "query stats"},
    {Kind::Line, "session list"}, // session stats
    {Kind::Line, "session use {s}"}, // session close cell
    {Kind::Line, "session list"},
    // Not in the scripts: leaves the breakpoint set as the cycle found it.
    {Kind::BreakRemove, "break remove "},
    {Kind::BreakRemove, "break remove "},
    {Kind::BreakRemove, "break remove "},
};

std::vector<Client> clients_for(std::uint32_t seed, int variant) {
    const std::string gen =
        "gen:" + std::to_string(derive_seed(seed, 1 + static_cast<std::uint32_t>(variant)) % 1000000);
    return {
        {"blinker", "c0", "led", "toggler", "on"},
        {"turntable", "c1", "motor", "sequencer", "drilling"},
        {"lift_fault", "c2", "door", "lift", "moving"},
        {gen, "c3", "a0_cmd", "a0_sm", "s1"},
    };
}

int parse_handle(const proto::Response& r) {
    // "breakpoint <n> state-enter <element>"
    if (r.body.empty()) return 0;
    return std::atoi(r.body.front().c_str() + std::string("breakpoint ").size());
}

std::string checkpoint_ms(const proto::Response& r) {
    // "checkpoint @<ns>ns <bytes> bytes (<n> held)"
    if (r.body.empty()) return "0";
    const long long ns = std::atoll(r.body.front().c_str() + std::string("checkpoint @").size());
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", static_cast<double>(ns) / 1e6);
    return buf;
}

std::string expand(std::string_view tmpl, const Client& c) {
    std::string out;
    for (std::size_t i = 0; i < tmpl.size(); ++i) {
        if (tmpl[i] != '{') {
            out += tmpl[i];
            continue;
        }
        const std::size_t close = tmpl.find('}', i);
        const std::string_view key = tmpl.substr(i + 1, close - i - 1);
        out += key == "s" ? c.name : key == "m" ? c.machine : key == "sig" ? c.signal : c.state;
        i = close;
    }
    return out;
}

/// Builds the round's script on a twin hub: kCycles passes over kCycle.
/// Every client touches only its own session (its ACL allows nothing
/// else), so the requests of a multi-client step commute; `run 1`
/// advances every session and therefore always runs alone in its step.
Script build_script(const std::vector<Client>& clients, bool inject_refusal) {
    const int n = static_cast<int>(clients.size());
    Twin twin({{true}, {true}, {true}, {false}});

    auto solo = [&](int conn, std::string line) { return twin.exec({{{conn, std::move(line)}}}); };

    for (int c = 0; c < n; ++c)
        solo(c, "session open " + clients[c].scenario + " " + clients[c].name);
    if (inject_refusal) {
        solo(0, "session open blinker gone");
        solo(0, "session close gone");
    }
    for (int c = 0; c < n; ++c) solo(c, "acl allow " + clients[c].name);
    twin.end_setup();
    if (inject_refusal) solo(0, "@gone info");

    auto paused = [&](int c) {
        auto* e = find_entry(twin.hub().registry(), clients[c].name);
        return e != nullptr && e->session().engine().state() == core::EngineState::Paused;
    };
    std::vector<std::deque<int>> handles(clients.size());
    std::vector<std::string> cp(clients.size(), "0");
    int runs = 0;
    for (int k = 0; k < kCycles; ++k) {
        for (const CycleReq& req : kCycle) {
            if (req.kind == Kind::Run) {
                solo(runs++ % n, "run 1");
                continue;
            }
            Step step;
            for (int c = 0; c < n; ++c) {
                const Client& cl = clients[c];
                std::string line = expand(req.line, cl);
                if (req.kind == Kind::Control) {
                    line = paused(c) ? "resume" : "query state " + cl.machine;
                } else if (req.kind == Kind::BreakRemove) {
                    line += std::to_string(handles[c].front());
                    handles[c].pop_front();
                } else if (req.kind == Kind::Rewind) {
                    line += cp[c];
                }
                step.reqs.push_back({c, std::move(line)});
            }
            const std::vector<proto::Response> resp = twin.exec(std::move(step));
            for (int c = 0; c < n; ++c) {
                if (req.kind == Kind::BreakAdd) handles[c].push_back(parse_handle(resp[c]));
                if (req.kind == Kind::Checkpoint) cp[c] = checkpoint_ms(resp[c]);
            }
        }
    }
    return twin.take();
}

bool hub_verb(const std::string& line) {
    return line.starts_with("session ") || line.starts_with("acl ") ||
           line.starts_with("attach ");
}

/// Depth 3: the same body straight into each session's own
/// SessionController (hub-level verbs have no session-level cost).
double run_controller_depth(const Script& script, const std::vector<Client>& clients) {
    hub::HubController hub;
    std::vector<hub::RouteContext> ctx(script.conns.size());
    hub.set_event_sink([](int, std::string_view, const std::string&) {});
    for (std::size_t s = 0; s < script.setup_steps; ++s)
        for (const Request& r : script.steps[s].reqs)
            (void)hub.execute_line(r.line, ctx[static_cast<std::size_t>(r.conn)]);
    double total = 0;
    for (std::size_t s = script.setup_steps; s < script.steps.size(); ++s) {
        for (const Request& r : script.steps[s].reqs) {
            if (hub_verb(r.line)) continue;
            auto* entry = find_entry(hub.registry(), clients[static_cast<std::size_t>(r.conn)].name);
            if (entry == nullptr) continue;
            const std::string_view line = strip_route(r.line);
            const Clock::time_point t0 = Clock::now();
            (void)entry->controller().execute_line(line);
            total += us_between(t0, Clock::now());
        }
    }
    return total;
}

struct EngineDepth {
    double total_us = 0;
    double write_us = 0;
    std::uint64_t writes = 0;
};

/// Depth 4: the body's engine work called directly on a standalone
/// registry — ShardedScheduler::pump for `run`, Timeline::capture_now
/// and rewind_to for the replay writes. Every other request still runs
/// (untimed) through the session controller so the state stays the same.
EngineDepth run_engine_depth(const Script& script, const std::vector<Client>& clients) {
    EngineDepth out;
    hub::SessionRegistry reg;
    hub::ShardedScheduler sched;
    for (const Client& c : clients) (void)reg.open(c.scenario, c.name);
    auto drain = [&] {
        for (const auto& e : reg.entries()) (void)e->controller().drain_events();
    };
    for (std::size_t s = script.setup_steps; s < script.steps.size(); ++s) {
        for (const Request& r : script.steps[s].reqs) {
            if (hub_verb(r.line)) continue;
            auto* entry = find_entry(reg, clients[static_cast<std::size_t>(r.conn)].name);
            if (entry == nullptr) continue;
            const std::string_view line = strip_route(r.line);
            replay::Timeline& tl = *entry->scenario->timeline;
            if (line == "run 1") {
                const Clock::time_point t0 = Clock::now();
                sched.pump(reg, rt::kMs);
                out.total_us += us_between(t0, Clock::now());
                drain();
            } else if (line == "checkpoint now") {
                const Clock::time_point t0 = Clock::now();
                (void)tl.capture_now();
                const double us = us_between(t0, Clock::now());
                out.total_us += us;
                out.write_us += us;
                ++out.writes;
            } else if (line.starts_with("rewind ")) {
                const double ms = std::atof(std::string(line.substr(7)).c_str());
                const Clock::time_point t0 = Clock::now();
                (void)tl.rewind_to(static_cast<rt::SimTime>(ms * 1e6));
                const double us = us_between(t0, Clock::now());
                out.total_us += us;
                out.write_us += us;
                ++out.writes;
                drain();
            } else {
                (void)entry->controller().execute_line(line);
                drain();
            }
        }
    }
    return out;
}

volatile std::size_t g_codec_sink = 0;

/// ns per op spent in the codec on the op's own bytes: client encode and
/// server decode of the request, server encode and client decode of the
/// answer (response, events, done marker).
double codec_ns_per_op(const Script& script) {
    struct OpBytes {
        bool frame;
        std::string line;
        std::vector<Item> answer; ///< what the client decodes for the op
    };
    std::vector<OpBytes> ops;
    std::vector<std::size_t> start(script.conns.size(), 0);
    for (std::size_t s = 0; s < script.steps.size(); ++s) {
        for (std::size_t r = 0; r < script.steps[s].reqs.size(); ++r) {
            const Request& req = script.steps[s].reqs[r];
            const auto c = static_cast<std::size_t>(req.conn);
            const std::size_t end = script.ends[s][r];
            OpBytes ob{script.conns[c].frame, req.line, {}};
            ob.answer.assign(script.items[c].begin() + static_cast<std::ptrdiff_t>(start[c]),
                             script.items[c].begin() + static_cast<std::ptrdiff_t>(end));
            start[c] = end;
            if (s >= script.setup_steps) ops.push_back(std::move(ob));
        }
    }
    // Every answer item is re-encoded the way the server queues it.
    std::size_t sink = 0;
    constexpr int kPasses = 3;
    const Clock::time_point t0 = Clock::now();
    for (int pass = 0; pass < kPasses; ++pass) {
        for (const OpBytes& ob : ops) {
            if (ob.frame) {
                net::FrameReader server_in(1 << 20), client_in(1 << 20);
                server_in.feed(net::encode_frame(net::FrameType::Request, ob.line));
                net::Frame f;
                while (server_in.next(f) == net::FrameReader::Status::Ready) sink += f.payload.size();
                for (const Item& it : ob.answer)
                    client_in.feed(net::encode_frame(static_cast<net::FrameType>(it.type), it.text));
                while (client_in.next(f) == net::FrameReader::Status::Ready) sink += f.payload.size();
            } else {
                net::LineReader server_in(1 << 20), client_in(1 << 20);
                server_in.feed(ob.line + "\n");
                std::string l;
                while (server_in.next(l) == net::LineReader::Status::Ready) sink += l.size();
                for (const Item& it : ob.answer) client_in.feed(it.text + "\n");
                while (client_in.next(l) == net::LineReader::Status::Ready) sink += l.size();
            }
        }
    }
    g_codec_sink = sink; // keeps the decode loops observable
    return seconds_between(t0, Clock::now()) * 1e9 / static_cast<double>(kPasses * ops.size());
}

struct Variant {
    std::vector<Client> clients;
    Script script;
};

/// The run's hubs: kVariants of them, each with its own generated model
/// drawn from the seed. Rounds cycle through them, so one run averages
/// over several models instead of betting on one.
std::vector<Variant> variants_for(Report& rep, const Options& opt) {
    std::vector<Variant> out;
    for (int k = 0; k < kVariants; ++k) {
        Variant v{clients_for(opt.seed, k), {}};
        v.script = build_script(v.clients, opt.inject_refusal && k == 0);
        if (!v.script.invalid.empty()) rep.fail("script: " + v.script.invalid);
        out.push_back(std::move(v));
    }
    return out;
}

} // namespace

Report run_interactive(const Options& opt) {
    Report rep;
    const std::vector<Variant> variants = variants_for(rep, opt);
    TcpTotals t;
    const Clock::time_point start = Clock::now();
    do {
        const Script& script = variants[t.rounds % variants.size()].script;
        t.add(rep, run_tcp(script, false), script.body_ops(), 0.99);
    } while (seconds_between(start, Clock::now()) < opt.seconds || t.rounds < variants.size());

    rep.add("setup_s", median(t.setup_s), "s");
    rep.add("peak_rss_mb", peak_rss_mb(), "MB");
    rep.add("ops_per_s", median(t.round_ops_per_s), "1/s");
    rep.add("p50_us", median(t.round_p50_us), "us");
    rep.add("tail_us", median(t.round_tail_us), "us");
    rep.sample("rounds", static_cast<double>(t.rounds));
    rep.sample("ops_per_round", static_cast<double>(t.ops) / static_cast<double>(t.rounds));
    rep.sample("tail_quantile", 0.99);
    return rep;
}

Report peel_interactive(const Options& opt, double budget) {
    Report rep;
    const std::vector<Variant> variants = variants_for(rep, opt);
    const Clock::time_point start = Clock::now();

    // Every depth runs once per round, the untraced end-to-end round
    // included, so host drift lands on all of them alike.
    TcpTotals warm_up, untraced, tcp; // the first round pays the cold start
    warm_up.add(rep, run_tcp(variants[0].script, false), variants[0].script.body_ops());
    double hub_us = 0, ctl_us = 0, codec_ns = 0;
    EngineDepth eng;
    std::uint64_t rounds = 0;
    do {
        const Variant& v = variants[rounds % variants.size()];
        untraced.add(rep, run_tcp(v.script, false), v.script.body_ops());
        tcp.add(rep, run_tcp(v.script, true), v.script.body_ops());
        for (double us : run_hub_depth(v.script, true)) hub_us += us;
        ctl_us += run_controller_depth(v.script, v.clients);
        const EngineDepth e = run_engine_depth(v.script, v.clients);
        eng.total_us += e.total_us;
        eng.write_us += e.write_us;
        eng.writes += e.writes;
        codec_ns += codec_ns_per_op(v.script) * static_cast<double>(v.script.body_ops());
        ++rounds;
    } while (seconds_between(start, Clock::now()) < budget || rounds < 2);
    rep.sample("interactive.peel_rounds", static_cast<double>(rounds));

    const double ops = static_cast<double>(tcp.ops);
    const double t1 = tcp.us_per_op();
    const double t2 = hub_us / ops;
    const double t3 = ctl_us / ops;
    const double t4 = eng.total_us / ops;
    const double net_self = t1 - t2;
    codec_ns /= ops;

    rep.add("net.self_us", net_self, "us");
    rep.add("net.codec_ns", codec_ns, "ns");
    rep.add("net.poll_us", tcp.poll_active_s * 1e6 / ops, "us");
    rep.add("net.polls_per_op", static_cast<double>(tcp.poll_active) / ops, "count");
    rep.add("hub.route_us", t2 - t3, "us");
    rep.add("proto.dispatch_us", t3 - t4, "us");
    rep.add("interactive.engine_us", t4, "us");
    rep.add("replay.write_us", eng.writes == 0 ? 0.0 : eng.write_us / static_cast<double>(eng.writes), "us");

    check_contains(rep, "net.codec_ns <= net.self_us", codec_ns / 1000.0, net_self);
    check_residual(rep, "interactive", t1, untraced.us_per_op());
    return rep;
}

} // namespace perfbench
