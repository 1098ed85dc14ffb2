// campaign: in-process campaign::run_campaign at threads=1, one round
// being what `campaign run 16 <seed>` does on a hub. Model generation,
// code generation and replay bisection do the work; the network and the
// request path are bypassed entirely.
#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "campaign/generator.hpp"
#include "campaign/runner.hpp"
#include "hub/controller.hpp"
#include "hub/registry.hpp"
#include "hub/sharded.hpp"
#include "proto/scenarios.hpp"
#include "replay/compare.hpp"

namespace perfbench {

namespace {

constexpr int kPairs = 16; ///< pairs per round

/// Round r's campaign seed: fits the hub verb's 9-digit seed argument.
std::uint32_t round_seed(std::uint32_t seed, std::uint32_t round) {
    return derive_seed(seed, 1000 + round) % 1000000000u;
}

campaign::CampaignConfig round_config(std::uint32_t seed, std::uint32_t round) {
    campaign::CampaignConfig cfg;
    cfg.pairs = kPairs;
    cfg.seed = round_seed(seed, round);
    cfg.threads = 1;
    return cfg;
}

/// What a timed round leaves behind (the report itself is checked and
/// dropped at once, so memory does not grow with run length).
struct Round {
    std::uint32_t seed = 0;
    double us = 0;
    std::size_t pairs = 0;
    int localized = 0;
    int clean = 0;
    std::size_t probes = 0;
};

/// Output checks: no unclassified pair, and the same summary as the hub's
/// own `campaign run` (an in-process -j1 run of the round's seed). A
/// failed check fails every pair of the round.
void check_round(Report& rep, const campaign::CampaignReport& report) {
    const std::string seed = std::to_string(report.config.seed);
    rep.attempted += report.pairs.size();
    std::string problem;
    if (report.unclassified() != 0) {
        problem = std::to_string(report.unclassified()) + " unclassified pairs, seed " + seed;
    } else {
        hub::HubController twin;
        const proto::Response resp =
            twin.execute_line("campaign run " + std::to_string(kPairs) + " " + seed);
        if (!resp.ok() || resp.body != report.summary_lines())
            problem = "summary differs from the hub's campaign run, seed " + seed;
    }
    if (!problem.empty())
        for (std::size_t i = 0; i < report.pairs.size(); ++i) rep.fail(problem);
}

/// One timed run_campaign round, checked untimed. With `setup_s`, first
/// times what the round pays before its first pump: building its first
/// wave. run_campaign has no hook inside a round, so this is run_campaign
/// itself on that wave's pairs (the same seed, so the same models) with a
/// zero execution span, which leaves construction, adoption, the baseline
/// checkpoints and teardown.
Round timed_round(Report& rep, const campaign::CampaignConfig& cfg, std::vector<double>* setup_s) {
    if (setup_s != nullptr) {
        campaign::CampaignConfig first_wave = cfg;
        first_wave.pairs = std::min(cfg.pairs, cfg.wave);
        first_wave.run_for = 0;
        const Clock::time_point s0 = Clock::now();
        (void)campaign::run_campaign(first_wave);
        setup_s->push_back(seconds_between(s0, Clock::now()));
    }
    const Clock::time_point t0 = Clock::now();
    const campaign::CampaignReport report = campaign::run_campaign(cfg);
    Round r{cfg.seed, us_between(t0, Clock::now()), report.pairs.size(), report.localized,
            report.clean, 0};
    for (const campaign::PairResult& pr : report.pairs) r.probes += pr.probes;
    check_round(rep, report);
    return r;
}

struct Peeled {
    double generate_us = 0;
    double build_us = 0;
    double execute_us = 0;
    double total_us = 0;
    std::uint64_t pairs = 0;
    int localized = 0;
};

/// campaign::make_generated_scenario step for step (src/campaign/runner.cpp),
/// with generate_system timed on its own into `gen_us`, so a pair's model
/// is generated once, as in run_campaign. peel_campaign checks the replayed
/// classification against run_campaign's, which catches the two drifting
/// apart.
campaign::MakeResult make_scenario(const campaign::GenSpec& spec, std::uint32_t model_seed,
                                   std::optional<codegen::FaultKind> fault, double& gen_us) {
    campaign::MakeResult out;
    std::string name = "gen_" + std::to_string(model_seed);
    if (fault.has_value()) name += std::string("_") + codegen::to_string(*fault);
    auto scenario = std::make_unique<proto::Scenario>(std::move(name));

    const Clock::time_point t0 = Clock::now();
    const campaign::GeneratedSystem gen = campaign::generate_system(scenario->sys, spec, model_seed);
    gen_us = us_between(t0, Clock::now());
    if (gen.nodes > 1) scenario->target.set_network_latency(500 * rt::kUs);
    for (const campaign::GenStimulus& st : gen.stimuli)
        scenario->stimuli.push_back({st.signal, st.value, st.at, st.node});

    if (fault.has_value()) {
        scenario->mutated = std::make_unique<meta::Model>(scenario->sys.model().clone());
        auto report = codegen::inject_fault(*scenario->mutated, *fault, model_seed);
        if (!report.has_value()) return out; // no applicable element: skipped
        out.fault_description = report->description;
    }
    if (!proto::finalize_scenario(*scenario)) return campaign::MakeResult{};
    out.scenario = std::move(scenario);
    return out;
}

/// One round replayed the way run_campaign executes it (waves of twin
/// sessions on one registry + single-thread scheduler, then bisect or
/// the twin-trace diff), with generation, build and execution timed.
void peel_round(const campaign::CampaignConfig& cfg, Peeled& out) {
    const Clock::time_point round0 = Clock::now();
    const std::vector<codegen::FaultKind> kinds = codegen::all_fault_kinds();
    for (int wave = 0; wave < cfg.pairs; wave += cfg.wave) {
        const int wave_end = std::min(cfg.pairs, wave + cfg.wave);
        hub::SessionRegistry registry;
        hub::ShardedScheduler scheduler;
        scheduler.set_budget(cfg.checkpoint_every);
        std::vector<std::pair<int, int>> live; // (clean id, faulted id)
        for (int i = wave; i < wave_end; ++i) {
            const std::uint32_t model_seed = cfg.seed * 100003u + static_cast<std::uint32_t>(i);
            const codegen::FaultKind kind = kinds[static_cast<std::size_t>(i) % kinds.size()];
            auto timed_make = [&](std::optional<codegen::FaultKind> fault) {
                double gen_us = 0;
                const Clock::time_point t0 = Clock::now();
                campaign::MakeResult made = make_scenario(cfg.gen, model_seed, fault, gen_us);
                out.generate_us += gen_us;
                out.build_us += us_between(t0, Clock::now()) - gen_us;
                return made;
            };
            campaign::MakeResult faulted = timed_make(kind);
            if (faulted.scenario == nullptr) continue; // skipped pair
            campaign::MakeResult clean = timed_make(std::nullopt);
            const Clock::time_point t0 = Clock::now();
            faulted.scenario->timeline->set_auto_period(cfg.checkpoint_every);
            faulted.scenario->timeline->capture_now();
            out.build_us += us_between(t0, Clock::now());
            const std::string tag = "p" + std::to_string(i);
            auto* c = registry.adopt(std::move(clean.scenario), tag + "_clean");
            auto* f = registry.adopt(std::move(faulted.scenario), tag + "_fault");
            live.emplace_back(c->id, f->id);
        }
        const Clock::time_point t0 = Clock::now();
        scheduler.pump(registry, cfg.run_for, [](hub::SessionRegistry::Entry& entry) {
            entry.scenario->timeline->maybe_capture();
        });
        out.execute_us += us_between(t0, Clock::now());
        for (const auto& [clean_id, fault_id] : live) {
            auto* c = registry.find(clean_id);
            auto* f = registry.find(fault_id);
            const auto& ct = c->session().trace().events();
            const auto& ft = f->session().trace().events();
            bool localized = false;
            if (!f->session().divergences().empty()) {
                localized = true; // bisect, else the twin diff, else the divergence itself
                (void)(f->scenario->timeline->bisect().found ||
                       replay::first_trace_difference(ct, ft).has_value());
            } else {
                localized = replay::first_trace_difference(ct, ft).has_value();
            }
            out.localized += localized ? 1 : 0;
        }
    }
    out.pairs += static_cast<std::uint64_t>(cfg.pairs);
    out.total_us += us_between(round0, Clock::now());
}

} // namespace

Report run_campaign(const Options& opt) {
    Report rep;
    std::vector<double> setup_s;
    std::vector<Round> rounds;
    const Clock::time_point start = Clock::now();
    do {
        rounds.push_back(timed_round(
            rep, round_config(opt.seed, static_cast<std::uint32_t>(rounds.size())), &setup_s));
    } while (seconds_between(start, Clock::now()) < opt.seconds || rounds.size() < 3);

    std::vector<double> round_us, pairs_per_s;
    for (const Round& r : rounds) {
        round_us.push_back(r.us);
        pairs_per_s.push_back(static_cast<double>(r.pairs) * 1e6 / r.us);
    }
    rep.add("setup_s", median(setup_s), "s");
    rep.add("peak_rss_mb", peak_rss_mb(), "MB");
    rep.add("ops_per_s", median(pairs_per_s), "1/s");
    rep.add("p50_us", quantile(round_us, 0.50), "us");
    rep.add("tail_us", quantile(round_us, 0.90), "us");
    rep.sample("rounds", static_cast<double>(rounds.size()));
    rep.sample("ops_per_round", kPairs);
    rep.sample("tail_quantile", 0.90);
    return rep;
}

Report peel_campaign(const Options& opt, double budget) {
    Report rep;
    const Clock::time_point start = Clock::now();
    // Each round runs untraced, then replayed with its layers timed, so
    // host drift lands on both alike.
    (void)timed_round(rep, round_config(opt.seed, 0), nullptr); // pays the cold start
    std::vector<Round> untraced;
    Peeled p;
    do {
        const auto r = static_cast<std::uint32_t>(untraced.size());
        const campaign::CampaignConfig cfg = round_config(opt.seed, r);
        untraced.push_back(timed_round(rep, cfg, nullptr));
        const int before = p.localized;
        peel_round(cfg, p);
        if (p.localized - before != untraced.back().localized)
            rep.fail("replayed classification differs from run_campaign, seed " +
                     std::to_string(cfg.seed));
    } while (seconds_between(start, Clock::now()) < budget || untraced.size() < 2);
    rep.sample("campaign.peel_rounds", static_cast<double>(untraced.size()));
    double untraced_us = 0;
    std::uint64_t untraced_pairs = 0;
    for (const Round& r : untraced) {
        untraced_us += r.us;
        untraced_pairs += r.pairs;
    }

    // Exact-repeat counts: the first two rounds, whatever the host speed.
    int localized = 0, non_skipped = 0;
    std::size_t probes = 0, pairs = 0;
    for (std::size_t r = 0; r < 2; ++r) {
        localized += untraced[r].localized;
        non_skipped += untraced[r].localized + untraced[r].clean;
        probes += untraced[r].probes;
        pairs += untraced[r].pairs;
    }

    const double n = static_cast<double>(p.pairs);
    const double traced = p.total_us / n;
    rep.add("campaign.generate_us", p.generate_us / n, "us");
    rep.add("campaign.build_us", p.build_us / n, "us");
    rep.add("campaign.execute_us", p.execute_us / n, "us");
    rep.add("campaign.classify_us", traced - (p.generate_us + p.build_us + p.execute_us) / n, "us");
    rep.add("campaign.localized_ratio", non_skipped == 0 ? 0.0 : static_cast<double>(localized) / non_skipped, "ratio");
    rep.add("campaign.bisect_probes_per_pair", static_cast<double>(probes) / static_cast<double>(pairs), "count");

    const double untraced_per_pair = untraced_us / static_cast<double>(untraced_pairs);
    check_contains(rep, "campaign generate+build+execute <= untraced pair",
                   (p.generate_us + p.build_us + p.execute_us) / n, untraced_per_pair);
    check_residual(rep, "campaign", traced, untraced_per_pair);
    return rep;
}

} // namespace perfbench
