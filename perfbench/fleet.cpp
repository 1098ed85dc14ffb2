// fleet_stream: one control connection sends `run 10` to a hub of mixed
// sessions while three subscriber connections receive the event fan-out.
// Every session carries a persistent breakpoint that the controller resumes
// after it fires, so events keep flowing. The pump, the simulated
// targets, the engine observers, the event queues and the net fan-out
// do the work; request parsing does little.
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/session.hpp"
#include "hub/registry.hpp"
#include "hub/sharded.hpp"
#include "replay/timeline.hpp"
#include "script.hpp"

namespace perfbench {

namespace {

constexpr int kSessions = 32;
constexpr int kSubscribers = 3;
constexpr int kCycles = 100;  ///< `run 10` ops per round (1 s of simulated time)
constexpr int kVariants = 8;  ///< fleets rounds cycle through (own generated models each)

struct Session {
    std::string scenario;
    std::string name;
    std::string state; ///< persistent breakpoint
};

std::vector<Session> sessions_for(std::uint32_t seed, int variant) {
    std::vector<Session> out;
    for (int i = 0; i < kSessions; ++i) {
        char name[8];
        std::snprintf(name, sizeof(name), "f%02d", i);
        switch (i % 4) {
        case 0: out.push_back({"blinker", name, "on"}); break;
        case 1: out.push_back({"turntable", name, "drilling"}); break;
        case 2: out.push_back({"lift_fault", name, "moving"}); break;
        default:
            const auto stream = static_cast<std::uint32_t>(100 + kSessions * variant + i);
            out.push_back({"gen:" + std::to_string(derive_seed(seed, stream) % 1000000), name, "s1"});
        }
    }
    return out;
}

/// The controller is connection 0 (frame codec); subscribers 1..3 split the
/// sessions between them by ACL (the last one speaks the line codec).
Script build_script(const std::vector<Session>& sessions) {
    Twin twin({{true}, {true}, {true}, {false}});
    auto solo = [&](int conn, std::string line, bool op = true) {
        return twin.exec({{{conn, std::move(line), op}}});
    };
    for (const Session& s : sessions) solo(0, "session open " + s.scenario + " " + s.name);
    for (const Session& s : sessions) solo(0, "@" + s.name + " break add state " + s.state);
    for (int k = 0; k < kSubscribers; ++k) {
        std::string acl = "acl allow";
        for (int i = k; i < kSessions; i += kSubscribers) acl += " " + sessions[i].name;
        solo(1 + k, acl);
    }
    twin.end_setup();

    for (int cycle = 0; cycle < kCycles; ++cycle) {
        solo(0, "run 10");
        std::vector<std::string> hit;
        for (const std::string& line : twin.last_events(0)) {
            // "[f07] * breakpoint-hit @...": resume it once the run is done.
            const std::size_t close = line.find("] * breakpoint-hit");
            if (line.starts_with('[') && close != std::string::npos)
                hit.push_back(line.substr(1, close - 1));
        }
        for (const std::string& name : hit) solo(0, "@" + name + " resume", false);
    }
    return twin.take();
}

struct EngineSplit {
    double pump_us = 0;
    double advance_us = 0;
    std::uint64_t slices = 0;
    std::uint64_t hits_pump = 0;
    std::uint64_t hits_advance = 0;
};

std::uint64_t drain_hits(hub::SessionRegistry& reg) {
    std::uint64_t hits = 0;
    for (const auto& e : reg.entries())
        for (const proto::Event& ev : e->controller().drain_events())
            hits += ev.kind == proto::Event::Kind::BreakpointHit ? 1 : 0;
    return hits;
}

/// The fleet's engine work on two standalone registries, interleaved per
/// op: ShardedScheduler::pump on one, per-session Timeline::advance on
/// the other (the transports are then polled untimed, as the pump would,
/// so both fleets evolve identically).
EngineSplit run_engine_split(const Script& script, const std::vector<Session>& sessions) {
    EngineSplit out;
    hub::SessionRegistry pumped, advanced;
    hub::ShardedScheduler sched;
    for (hub::SessionRegistry* reg : {&pumped, &advanced})
        for (const Session& s : sessions) {
            auto* e = reg->open(s.scenario, s.name);
            if (e != nullptr) (void)e->controller().execute_line("break add state " + s.state);
        }
    const std::uint64_t slices0 = sched.total_slices();
    for (std::size_t st = script.setup_steps; st < script.steps.size(); ++st) {
        for (const Request& r : script.steps[st].reqs) {
            if (r.line == "run 10") {
                Clock::time_point t0 = Clock::now();
                sched.pump(pumped, 10 * rt::kMs);
                out.pump_us += us_between(t0, Clock::now());
                for (const auto& e : advanced.entries()) {
                    t0 = Clock::now();
                    e->scenario->timeline->advance(10 * rt::kMs);
                    out.advance_us += us_between(t0, Clock::now());
                    core::DebugSession& session = e->session();
                    const rt::SimTime now = e->scenario->target.sim().now();
                    for (const auto& transport : session.transports())
                        transport->poll(session.engine(), now);
                }
                out.hits_pump += drain_hits(pumped);
                out.hits_advance += drain_hits(advanced);
                continue;
            }
            // "@fNN resume"
            const std::string name = r.line.substr(1, r.line.find(' ') - 1);
            for (hub::SessionRegistry* reg : {&pumped, &advanced})
                if (auto* e = find_entry(*reg, name))
                    (void)e->controller().execute_line(strip_route(r.line));
        }
    }
    out.slices = sched.total_slices() - slices0;
    return out;
}

std::uint64_t resumes_in(const Script& script) {
    return script.body_requests() - script.body_ops();
}

struct Variant {
    std::vector<Session> sessions;
    Script script;
};

/// The run's fleets: kVariants of them, each with its own generated
/// models drawn from the seed; rounds cycle through them.
std::vector<Variant> variants_for(Report& rep, const Options& opt) {
    std::vector<Variant> out;
    for (int k = 0; k < kVariants; ++k) {
        Variant v{sessions_for(opt.seed, k), {}};
        v.script = build_script(v.sessions);
        if (!v.script.invalid.empty()) rep.fail("script: " + v.script.invalid);
        out.push_back(std::move(v));
    }
    return out;
}

} // namespace

Report run_fleet(const Options& opt) {
    Report rep;
    const std::vector<Variant> variants = variants_for(rep, opt);
    TcpTotals t;
    const Clock::time_point start = Clock::now();
    do {
        const Script& script = variants[t.rounds % variants.size()].script;
        t.add(rep, run_tcp(script, false), script.body_ops(), 0.90);
    } while (seconds_between(start, Clock::now()) < opt.seconds || t.rounds < variants.size());
    if (t.events_dropped != 0)
        rep.fail("fan-out dropped " + std::to_string(t.events_dropped) + " events");

    rep.add("setup_s", median(t.setup_s), "s");
    rep.add("peak_rss_mb", peak_rss_mb(), "MB");
    rep.add("ops_per_s", median(t.round_ops_per_s), "1/s");
    rep.add("p50_us", median(t.round_p50_us), "us");
    rep.add("tail_us", median(t.round_tail_us), "us");
    rep.sample("rounds", static_cast<double>(t.rounds));
    rep.sample("ops_per_round", static_cast<double>(t.ops) / static_cast<double>(t.rounds));
    rep.sample("tail_quantile", 0.90);
    return rep;
}

Report peel_fleet(const Options& opt, double budget) {
    Report rep;
    const std::vector<Variant> variants = variants_for(rep, opt);
    const Clock::time_point start = Clock::now();

    // Every depth runs once per round, the untraced end-to-end round
    // included, so host drift lands on all of them alike.
    TcpTotals warm_up, untraced, tcp; // the first round pays the cold start
    warm_up.add(rep, run_tcp(variants[0].script, false), variants[0].script.body_ops());
    double run_us = 0, resume_us = 0;
    EngineSplit eng;
    std::uint64_t rounds = 0, events = 0;
    do {
        const Variant& v = variants[rounds % variants.size()];
        const Script& script = v.script;
        untraced.add(rep, run_tcp(script, false), script.body_ops());
        tcp.add(rep, run_tcp(script, true), script.body_ops());
        const std::vector<double> us = run_hub_depth(script, false);
        std::size_t i = 0;
        for (std::size_t st = script.setup_steps; st < script.steps.size(); ++st)
            for (const Request& r : script.steps[st].reqs) (r.op ? run_us : resume_us) += us[i++];
        const EngineSplit e = run_engine_split(script, v.sessions);
        eng.pump_us += e.pump_us;
        eng.advance_us += e.advance_us;
        eng.slices += e.slices;
        if (e.hits_pump != resumes_in(script) || e.hits_advance != resumes_in(script))
            rep.fail("engine depth diverged from the twin: " + std::to_string(e.hits_pump) + "/" +
                     std::to_string(e.hits_advance) + " breakpoint hits, twin resumed " +
                     std::to_string(resumes_in(script)));
        for (const Item& it : script.items[0]) events += it.type == 'E' ? 1 : 0;
        ++rounds;
    } while (seconds_between(start, Clock::now()) < budget || rounds < 2);
    rep.sample("fleet.peel_rounds", static_cast<double>(rounds));

    const double ops = static_cast<double>(tcp.ops);
    const double t1 = tcp.us_per_op();
    const double in_process = (run_us + resume_us) / ops;
    const double poll = tcp.poll_active_s * 1e6 / ops;
    const double pump = eng.pump_us / ops;
    const double advance = eng.advance_us / ops;

    rep.add("hub.pump_us", pump, "us");
    rep.add("sim.advance_us", advance, "us");
    rep.add("hub.sched_self_us", pump - advance, "us");
    rep.add("hub.collect_us", run_us / ops - pump, "us");
    rep.add("fleet.resume_us", resume_us / ops, "us");
    rep.add("fleet.poll_us", poll, "us");
    rep.add("net.fanout_us", t1 - in_process, "us");
    rep.add("events_per_op", static_cast<double>(events) / ops, "count");
    rep.add("slices_per_op", static_cast<double>(eng.slices) / ops, "count");
    rep.add("net.bytes_out_per_op", static_cast<double>(tcp.bytes_out) / ops, "B");
    rep.add("net.events_dropped", static_cast<double>(tcp.events_dropped + untraced.events_dropped), "count");

    check_contains(rep, "sim.advance_us <= hub.pump_us", advance, pump);
    check_contains(rep, "in-process run+drain+resumes <= fleet.poll_us", in_process, poll);
    check_residual(rep, "fleet", t1, untraced.us_per_op());
    return rep;
}

} // namespace perfbench
