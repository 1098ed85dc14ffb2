#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "bench.hpp"

namespace perfbench {

double quantile(std::vector<double>& v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

double peak_rss_mb() {
    // VmHWM, not getrusage's ru_maxrss: the latter carries over the peak
    // of whatever process exec'd this one (the launcher script).
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.starts_with("VmHWM:")) return std::atof(line.c_str() + 6) / 1024.0; // kB
    return 0.0;
}

std::uint32_t derive_seed(std::uint32_t seed, std::uint32_t stream) {
    std::uint64_t z = (static_cast<std::uint64_t>(seed) << 32 | stream) + 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return static_cast<std::uint32_t>((z ^ (z >> 31)) >> 16);
}

void check_residual(Report& rep, const std::string& path, double traced_us,
                    double untraced_us) {
    const double residual = untraced_us > 0 ? (traced_us - untraced_us) / untraced_us : 0.0;
    rep.add(path + ".traced_us", traced_us, "us");
    rep.add(path + ".untraced_us", untraced_us, "us");
    rep.add(path + ".residual_pct", residual * 100.0, "%");
    const bool ok = std::fabs(residual) <= kResidualTolerance;
    std::fprintf(stderr, "check %s: traced total %.3f us vs untraced mean %.3f us, residual %+.1f%% (tolerance %.0f%%): %s\n",
                 path.c_str(), traced_us, untraced_us, residual * 100.0,
                 kResidualTolerance * 100.0, ok ? "ok" : "FAILED");
    if (!ok) rep.fail(path + " traced total is off its untraced mean");
}

void check_contains(Report& rep, const std::string& what, double inner, double outer) {
    const bool ok = inner <= outer * (1.0 + kContainmentSlack);
    std::fprintf(stderr, "check %s: %.3f <= %.3f (slack %.0f%%): %s\n", what.c_str(), inner,
                 outer, kContainmentSlack * 100.0, ok ? "ok" : "FAILED");
    if (!ok) rep.fail("containment: " + what);
}

} // namespace perfbench
