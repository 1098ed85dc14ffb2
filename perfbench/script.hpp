// A request script replayed against the hub, and the machinery to check
// and time it.
//
// A Script is a list of steps; each step sends one request on each of
// some connections and completes when every one of them has its whole
// answer. Steps are barriers: the requests inside one step must commute
// (touch only their own session), so the order in which the server
// happens to read them cannot change any byte a client receives.
//
// The Twin executes a script in-process on a hub::HubController and
// records, per connection, exactly what net::Server would put on the
// wire for it — the response, the events the request raised, the done
// marker, and events other connections' requests fanned out to it —
// decoded with the same codec readers a client uses. That expectation
// is what the TCP replay is byte-matched against.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "hub/controller.hpp"
#include "net/codec.hpp"
#include "net/server.hpp"

namespace perfbench {

struct Request {
    int conn = 0;
    std::string line;
    bool op = true; ///< a body op: timed (else, and in set-up: checked only)
};

struct Step {
    std::vector<Request> reqs;
};

struct ConnSpec {
    bool frame = true; ///< frame codec; false: line codec
};

/// One decoded unit a client reads: a frame (type byte + payload) on a
/// frame connection, a line (type 'L') on a line connection.
struct Item {
    char type = 'L';
    std::string text;
    bool operator==(const Item&) const = default;
};

struct Script {
    std::vector<ConnSpec> conns;
    std::vector<Step> steps; ///< set-up steps first, then the body
    std::size_t setup_steps = 0;
    /// Expected items per connection, in arrival order.
    std::vector<std::vector<Item>> items;
    /// Parallel to steps[s].reqs[r]: exclusive end of the request's
    /// answer in items[conn], and whether the twin's response was ok.
    std::vector<std::vector<std::size_t>> ends;
    std::vector<std::vector<bool>> ok;
    /// Set when a step's requests did not commute (a request fanned an
    /// event out to another connection inside the same step).
    std::string invalid;

    [[nodiscard]] std::size_t body_ops() const;
    [[nodiscard]] std::size_t body_requests() const;
};

/// In-process reference execution that builds a Script's expectations.
class Twin {
public:
    explicit Twin(std::vector<ConnSpec> conns);
    ~Twin();

    /// Executes one step on the twin hub and records what each
    /// connection would receive. Returns the responses in request order.
    std::vector<proto::Response> exec(Step step);
    /// Marks the steps executed so far as set-up.
    void end_setup() { script_.setup_steps = script_.steps.size(); }

    [[nodiscard]] hub::HubController& hub() { return *hub_; }
    /// Event lines (tagged) delivered to `conn` by the last exec().
    [[nodiscard]] const std::vector<std::string>& last_events(int conn) const {
        return last_events_[static_cast<std::size_t>(conn)];
    }
    Script take() { return std::move(script_); }

private:
    void deliver(int conn, const std::string& bytes);

    std::unique_ptr<hub::HubController> hub_;
    std::vector<hub::RouteContext> ctx_;
    std::vector<std::vector<std::string>> pending_;
    std::vector<std::vector<std::string>> last_events_;
    std::vector<net::FrameReader> frames_;
    std::vector<net::LineReader> lines_;
    Script script_;
};

/// Outcome of one TCP replay of a script on a fresh hub.
struct TcpRound {
    double setup_s = 0;        ///< hub, listener, connects, handshakes, set-up steps
    double body_s = 0;         ///< first body send to the last expected item
    std::vector<double> op_us; ///< latency of every body op, in order
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;
    net::NetStats net;
    /// With timed polls: time in, and count of, the body's server poll
    /// cycles that had activity.
    double poll_active_s = 0;
    std::uint64_t poll_active = 0;
};

/// TCP rounds pooled. Latency percentiles are taken per round and the
/// run reports their median, so memory does not grow with run length.
struct TcpTotals {
    std::vector<double> round_ops_per_s;
    std::vector<double> round_p50_us;
    std::vector<double> round_tail_us;
    std::vector<double> setup_s;
    double body_s = 0;
    double poll_active_s = 0;
    std::uint64_t poll_active = 0;
    std::uint64_t ops = 0;
    std::uint64_t rounds = 0;
    std::uint64_t bytes_out = 0;
    std::uint64_t events_dropped = 0;

    /// Pools one round of `ops` timed ops, taking its `tail_q` latency
    /// quantile; the round's counts go into `rep`.
    void add(Report& rep, TcpRound&& round, std::size_t ops, double tail_q = 0.99);
    /// Mean wall time per op over every pooled round.
    [[nodiscard]] double us_per_op() const {
        return ops == 0 ? 0.0 : body_s * 1e6 / static_cast<double>(ops);
    }
};

/// Replays `script` over loopback TCP against a fresh hub behind a
/// net::Server. One thread (the caller) drives every client connection
/// and the server's poll_once loop in turn, so no cross-thread wake-up
/// sits on the measured path. `timed_polls` times every server poll
/// cycle that had activity (the traced poll probe).
TcpRound run_tcp(const Script& script, bool timed_polls);

/// "@c0 query state x" -> "query state x" (unrouted lines pass through).
std::string_view strip_route(std::string_view line);

/// The live session named `name`, or null.
hub::SessionRegistry::Entry* find_entry(const hub::SessionRegistry& reg, std::string_view name);

/// In-process replay through HubController::execute_line under one
/// RouteContext per connection. With `sink`, an event sink collects the
/// fan-out (as net::Server installs one); without, events go to the hub
/// queue and drain_event_lines() is timed with each request. Returns the
/// wall time of every body request, in order.
std::vector<double> run_hub_depth(const Script& script, bool sink);

} // namespace perfbench
