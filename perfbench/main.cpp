// gmdf_perfbench — the repo's end-to-end benchmark (see README.md).
//
//   gmdf_perfbench --workload interactive|fleet_stream|campaign
//                  [--seed N] [--seconds S] [--trace 0|1]
//                  [--rev TEXT] [--inject-refusal]
//
// --trace 0 runs the workload and prints its end-to-end metrics;
// --trace 1 runs the layer-peeled traced run and prints the per-layer
// metrics. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the line before it the run context (machine, build, host noise).
// Any failed output check makes the exit code non-zero.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"

#ifndef GMDF_BENCH_COMPILER
#define GMDF_BENCH_COMPILER "unknown"
#endif
#ifndef GMDF_BENCH_BUILD_TYPE
#define GMDF_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

std::string json_escape(const std::string& s) {
    std::string out;
    for (char ch : s) {
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (static_cast<unsigned char>(ch) < 0x20) {
            out += ' ';
        } else {
            out += ch;
        }
    }
    return out;
}

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.starts_with("model name")) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos) return line.substr(colon + 2);
        }
    return "unknown";
}

/// (steal, total) jiffies from the aggregate cpu line of /proc/stat.
std::pair<double, double> cpu_jiffies() {
    std::ifstream in("/proc/stat");
    std::string cpu;
    double v[8] = {};
    in >> cpu;
    for (double& x : v) in >> x;
    double total = 0;
    for (double x : v) total += x;
    return {v[7], total};
}

struct Usage {
    double cpu_s;
    long nivcsw;
};

Usage usage() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto secs = [](timeval t) { return static_cast<double>(t.tv_sec) + t.tv_usec * 1e-6; };
    return {secs(ru.ru_utime) + secs(ru.ru_stime), ru.ru_nivcsw};
}

int usage_error(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s --workload interactive|fleet_stream|campaign [--seed N] "
                 "[--seconds S] [--trace 0|1] [--rev TEXT] [--inject-refusal]\n",
                 argv0);
    return 2;
}

} // namespace

int main(int argc, char** argv) {
    Options opt;
    std::string rev = "unknown";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--workload" && has_value) {
            opt.workload = argv[++i];
        } else if (arg == "--seed" && has_value) {
            opt.seed = static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
        } else if (arg == "--seconds" && has_value) {
            opt.seconds = std::atof(argv[++i]);
        } else if (arg == "--trace" && has_value) {
            opt.trace = std::string(argv[++i]) == "1";
        } else if (arg == "--rev" && has_value) {
            rev = argv[++i];
        } else if (arg == "--inject-refusal") {
            opt.inject_refusal = true;
        } else {
            return usage_error(argv[0]);
        }
    }
    if (opt.seconds <= 0) return usage_error(argv[0]);

    using Runner = Report (*)(const Options&);
    using Peeler = Report (*)(const Options&, double);
    Runner run = nullptr;
    if (opt.workload == "interactive") run = run_interactive;
    else if (opt.workload == "fleet_stream") run = run_fleet;
    else if (opt.workload == "campaign") run = run_campaign;
    else return usage_error(argv[0]);

    const auto [steal0, total0] = cpu_jiffies();
    const Usage u0 = usage();

    Report rep;
    if (!opt.trace) {
        rep = run(opt);
    } else {
        // Every traced run peels all three paths, so each prints every
        // per-layer metric; the named workload's path goes first.
        Peeler order[3] = {peel_interactive, peel_fleet, peel_campaign};
        if (run == run_fleet) std::swap(order[0], order[1]);
        if (run == run_campaign) std::swap(order[0], order[2]);
        for (Peeler peel : order) rep.merge(peel(opt, opt.seconds / 3.0));
    }

    const auto [steal1, total1] = cpu_jiffies();
    const Usage u1 = usage();
    const double steal_share = total1 > total0 ? (steal1 - steal0) / (total1 - total0) : 0.0;

    for (const std::string& p : rep.problems) std::fprintf(stderr, "check failed: %s\n", p.c_str());

    std::ostringstream ctx;
    ctx << "{\"context\": {\"nproc\": " << std::thread::hardware_concurrency()
        << ", \"cpu_model\": \"" << json_escape(cpu_model()) << "\", \"compiler\": \""
        << json_escape(GMDF_BENCH_COMPILER) << "\", \"build_type\": \""
        << json_escape(GMDF_BENCH_BUILD_TYPE) << "\", \"rev\": \"" << json_escape(rev)
        << "\", \"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
        << ", \"trace\": " << (opt.trace ? 1 : 0) << ", \"cpu_steal_share\": " << steal_share
        << ", \"process_cpu_s\": " << (u1.cpu_s - u0.cpu_s)
        << ", \"involuntary_ctx_switches\": " << (u1.nivcsw - u0.nivcsw) << ", \"samples\": {";
    for (std::size_t i = 0; i < rep.samples.size(); ++i)
        ctx << (i == 0 ? "" : ", ") << "\"" << rep.samples[i].name << "\": " << rep.samples[i].value;
    ctx << "}}}";
    std::printf("%s\n", ctx.str().c_str());

    const bool correct = rep.failed == 0 && rep.attempted > 0;
    std::ostringstream out;
    out.precision(10);
    out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": "
        << rep.attempted << ", \"failed\": " << rep.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
        const Metric& m = rep.metrics[i];
        // A run that lost every op can divide by zero; keep the JSON valid
        // (such a run is already marked incorrect).
        const double value = std::isfinite(m.value) ? m.value : 0.0;
        out << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << value
            << ", \"unit\": \"" << m.unit << "\"}";
    }
    out << "}}";
    std::printf("%s\n", out.str().c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
