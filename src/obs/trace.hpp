// gmdf::obs — span tracer with Chrome trace-event export.
//
// A process-global, ring-buffered span recorder that is off by default and
// costs one relaxed atomic load per would-be span while off. When enabled
// (`trace profile start`, or `gmdf_serve --trace-out`), RAII Spans capture
// complete "X" events (begin + wall duration) into lock-sharded rings;
// write_chrome_json() renders them as Chrome trace-event JSON that loads
// directly in Perfetto / chrome://tracing.
//
//   obs::Span span("hub", "pump-slice", /*suffix=*/{}, shard_tid);
//   span.arg("session", entry.name);
//
// Trace "thread" ids are a presentation concept, not OS tids: the fleet
// pump passes an explicit per-shard tid (kShardTidBase + shard) so slices
// group under stable "shard-N" tracks in Perfetto even though worker
// threads are respawned every pump; everything else gets a small
// automatically assigned per-thread id. set_thread_name() attaches the
// metadata rows Perfetto uses as track labels.
//
// Timestamps are steady-clock nanoseconds since start(); start() clears any
// previous capture. Rings drop the oldest events once full (dropped() says
// how many), so a long capture keeps the most recent window.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>

#include "obs/ring.hpp"

namespace gmdf::obs {

class Tracer {
  public:
    // Presentation tid for fleet-pump shard workers: shard w → kShardTidBase + w.
    static constexpr int kShardTidBase = 1000;

    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    // Clears previous events and thread names, re-arms the clock epoch.
    void start();
    void stop();

    // Max buffered events across all shards (split evenly, at least one
    // each); stops the capture, and shrinking evicts the oldest events.
    void set_capacity(std::size_t events);

    std::uint64_t now_ns() const;

    // Record a complete span. Callers check enabled() first (Span does);
    // events recorded while disabled are ignored.
    void record(std::string name, const char* category, std::uint64_t begin_ns,
                std::uint64_t duration_ns, int tid, std::string args_json = {});

    void set_thread_name(int tid, std::string name);

    std::size_t event_count() const;
    std::uint64_t dropped() const;

    // Render everything captured so far as a Chrome trace-event JSON
    // document ({"traceEvents": [...]}); timestamps in microseconds.
    void write_chrome_json(std::ostream& out) const;

  private:
    struct Event {
        std::string name;
        const char* category;
        std::uint64_t begin_ns;
        std::uint64_t duration_ns;
        int tid;
        std::string args_json; // pre-rendered {"k":"v"} payload, may be empty
    };

    static constexpr std::size_t kShards = 8;
    static constexpr std::size_t kDefaultCapacity = 1 << 18;

    struct Shard {
        mutable std::mutex mu;
        Ring<Event> events{kDefaultCapacity / kShards};
    };

    Shard& shard_for_tid(int tid) { return shards_[static_cast<std::size_t>(tid) % kShards]; }

    std::atomic<bool> enabled_{false};
    std::chrono::steady_clock::time_point epoch_{};
    Shard shards_[kShards];
    mutable std::mutex meta_mu_;
    std::map<int, std::string> thread_names_;
};

Tracer& tracer();

// Small stable per-thread presentation id (assigned on first use, >= 1) for
// spans that don't pass an explicit tid.
int current_trace_tid();

// RAII complete-span. All construction cost (name concatenation, clock
// read) is skipped when the tracer is disabled.
class Span {
  public:
    Span(const char* category, std::string_view name, std::string_view name_suffix = {},
         int tid = -1) {
        if (!tracer().enabled()) return;
        armed_ = true;
        category_ = category;
        name_.reserve(name.size() + name_suffix.size());
        name_.assign(name);
        name_.append(name_suffix);
        tid_ = tid >= 0 ? tid : current_trace_tid();
        begin_ns_ = tracer().now_ns();
    }

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    // Attach a string argument shown in the Perfetto slice details pane.
    void arg(std::string_view key, std::string_view value);

    ~Span() {
        if (!armed_) return;
        if (!args_json_.empty()) args_json_ += '}';
        tracer().record(std::move(name_), category_, begin_ns_,
                        tracer().now_ns() - begin_ns_, tid_, std::move(args_json_));
    }

  private:
    bool armed_ = false;
    const char* category_ = "";
    std::string name_;
    std::string args_json_;
    int tid_ = 0;
    std::uint64_t begin_ns_ = 0;
};

} // namespace gmdf::obs
