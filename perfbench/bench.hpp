// Shared pieces of the end-to-end benchmark: options, the report every
// workload fills in, timing and order statistics, and seed derivation.
//
// See README.md for what each workload measures and why.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace gmdf {}

namespace perfbench {

using namespace gmdf;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Options {
    std::string workload;
    std::uint32_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Self-test hook: sends one request the hub must refuse, which the
    /// run has to count as a failed op.
    bool inject_refusal = false;
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// What one workload (or one traced peel) hands back.
struct Report {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems; ///< first few check failures, for stderr
    std::vector<Metric> metrics;
    /// Sample counts behind the metrics (ungated; printed with the run
    /// context).
    std::vector<Metric> samples;

    void fail(std::string what) {
        ++failed;
        if (problems.size() < 8) problems.push_back(std::move(what));
    }
    void add(std::string name, double value, std::string unit) {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    void sample(std::string name, double value) { samples.push_back({std::move(name), value, {}}); }
    void merge(Report&& other) {
        attempted += other.attempted;
        failed += other.failed;
        for (auto& p : other.problems)
            if (problems.size() < 8) problems.push_back(std::move(p));
        for (auto& m : other.metrics) metrics.push_back(std::move(m));
        for (auto& m : other.samples) samples.push_back(std::move(m));
    }
};

/// Linear-interpolated quantile (q in [0, 1]); sorts `v`.
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);

/// Process peak resident set size in MB.
double peak_rss_mb();

/// An independent 32-bit stream from the workload seed (splitmix64), so
/// every generated input follows from --seed alone.
std::uint32_t derive_seed(std::uint32_t seed, std::uint32_t stream);

// ---- workloads --------------------------------------------------------------
//
// run_*    the untimed set-up, the timed rounds for opt.seconds, the
//          output checks, and the end-to-end metrics.
// peel_*   the traced run for one path: the same ops replayed at each
//          depth for `budget` seconds, per-layer metrics, and the
//          containment and residual checks.

Report run_interactive(const Options& opt);
Report run_fleet(const Options& opt);
Report run_campaign(const Options& opt);

Report peel_interactive(const Options& opt, double budget);
Report peel_fleet(const Options& opt, double budget);
Report peel_campaign(const Options& opt, double budget);

/// The traced run's tolerance for its total against the untraced mean,
/// as a share of that mean. Stated in every traced report.
inline constexpr double kResidualTolerance = 0.25;
/// Containment slack for a directly timed term against the difference
/// of two separately measured depths (host noise between the passes).
inline constexpr double kContainmentSlack = 0.05;

/// Records residual (traced total vs untraced mean) metrics for one
/// path and fails the report when it exceeds kResidualTolerance.
void check_residual(Report& rep, const std::string& path, double traced_us,
                    double untraced_us);
/// Fails the report unless `inner` <= `outer` (within the slack).
void check_contains(Report& rep, const std::string& what, double inner, double outer);

} // namespace perfbench
