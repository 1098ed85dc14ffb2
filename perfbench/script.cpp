#include "script.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <deque>

#include "proto/message.hpp"

namespace perfbench {

std::size_t Script::body_ops() const {
    std::size_t n = 0;
    for (std::size_t s = setup_steps; s < steps.size(); ++s)
        for (const Request& r : steps[s].reqs) n += r.op ? 1 : 0;
    return n;
}

std::size_t Script::body_requests() const {
    std::size_t n = 0;
    for (std::size_t s = setup_steps; s < steps.size(); ++s) n += steps[s].reqs.size();
    return n;
}

// ---- twin -------------------------------------------------------------------

Twin::Twin(std::vector<ConnSpec> conns) : hub_(std::make_unique<hub::HubController>()) {
    const std::size_t n = conns.size();
    ctx_.resize(n);
    pending_.resize(n);
    last_events_.resize(n);
    for (std::size_t c = 0; c < n; ++c) {
        frames_.emplace_back(1 << 20);
        lines_.emplace_back(1 << 20);
    }
    script_.conns = std::move(conns);
    script_.items.resize(n);
    hub_->set_event_sink(
        [this](int id, std::string_view name, const std::string& line) {
            for (std::size_t c = 0; c < ctx_.size(); ++c)
                if (ctx_[c].allows(id, name)) pending_[c].push_back(line);
        });
}

Twin::~Twin() = default;

void Twin::deliver(int conn, const std::string& bytes) {
    const auto c = static_cast<std::size_t>(conn);
    std::vector<Item>& out = script_.items[c];
    if (script_.conns[c].frame) {
        frames_[c].feed(bytes);
        net::Frame f;
        while (frames_[c].next(f) == net::FrameReader::Status::Ready)
            out.push_back({static_cast<char>(f.type), f.payload});
    } else {
        lines_[c].feed(bytes);
        std::string line;
        while (lines_[c].next(line) == net::LineReader::Status::Ready)
            out.push_back({'L', line});
    }
}

std::vector<proto::Response> Twin::exec(Step step) {
    std::vector<proto::Response> responses;
    std::vector<std::size_t> ends;
    std::vector<bool> oks;
    std::vector<bool> in_step(ctx_.size(), false);
    for (const Request& r : step.reqs) in_step[static_cast<std::size_t>(r.conn)] = true;
    for (auto& v : last_events_) v.clear();

    // Mirrors net::Server: the requester gets response, its events, done;
    // events fanned out to other connections flush after the request.
    auto events_bytes = [this](std::size_t c) {
        std::string bytes;
        for (const std::string& line : pending_[c]) {
            bytes += script_.conns[c].frame ? net::encode_frame(net::FrameType::Event, line)
                                            : line;
            last_events_[c].push_back(line);
        }
        pending_[c].clear();
        return bytes;
    };
    for (const Request& r : step.reqs) {
        const auto c = static_cast<std::size_t>(r.conn);
        proto::Response resp = hub_->execute_line(r.line, ctx_[c]);
        const std::string formatted = proto::format_response(resp);
        std::string bytes = script_.conns[c].frame
                                ? net::encode_frame(net::FrameType::Response, formatted)
                                : formatted;
        bytes += events_bytes(c);
        if (script_.conns[c].frame) bytes += net::encode_frame(net::FrameType::Done, {});
        deliver(r.conn, bytes);
        ends.push_back(script_.items[c].size());
        oks.push_back(resp.ok());
        for (std::size_t o = 0; o < ctx_.size(); ++o) {
            if (o == c || pending_[o].empty()) continue;
            if (in_step[o] && step.reqs.size() > 1 && script_.invalid.empty())
                script_.invalid = "step with '" + r.line + "' fans events out to connection " +
                                  std::to_string(o) + ", which is in the same step";
            deliver(static_cast<int>(o), events_bytes(o));
        }
        responses.push_back(std::move(resp));
    }
    script_.steps.push_back(std::move(step));
    script_.ends.push_back(std::move(ends));
    script_.ok.push_back(std::move(oks));
    return responses;
}

// ---- TCP client -------------------------------------------------------------

namespace {

constexpr int kStallMs = 5000; ///< no byte for this long: the round is stuck

struct Outstanding {
    std::size_t end = 0;
    Clock::time_point sent;
    bool op = false;
    bool ok = false;
    bool mismatch = false;
    std::string line;
};

struct ClientConn {
    int fd = -1;
    bool frame = true;
    bool hello = false;
    net::FrameReader frames{1 << 20};
    net::LineReader lines{1 << 20};
    const std::vector<Item>* expect = nullptr;
    std::size_t cursor = 0;
    bool carry_mismatch = false; ///< mismatch before the next request was sent
    std::deque<Outstanding> outstanding;
};

int dial(std::uint16_t port) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    int one = 1;
    (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    int flags = fcntl(fd, F_GETFL, 0);
    (void)fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    return fd;
}

bool send_all(int fd, std::string_view bytes) {
    while (!bytes.empty()) {
        ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
        if (n > 0) {
            bytes.remove_prefix(static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
            pollfd p{fd, POLLOUT, 0};
            if (::poll(&p, 1, kStallMs) <= 0) return false;
            continue;
        }
        return false;
    }
    return true;
}

class Clients {
public:
    Clients(const Script& script, net::Server& server, bool timed_polls, TcpRound& out)
        : script_(script), server_(server), timed_polls_(timed_polls), out_(out) {}

    ~Clients() {
        for (ClientConn& c : conns_)
            if (c.fd >= 0) ::close(c.fd);
    }

    Clients(const Clients&) = delete;
    Clients& operator=(const Clients&) = delete;

    bool connect_all(std::uint16_t port) {
        conns_.resize(script_.conns.size());
        for (std::size_t i = 0; i < conns_.size(); ++i) {
            ClientConn& c = conns_[i];
            c.frame = script_.conns[i].frame;
            c.expect = &script_.items[i];
            c.fd = dial(port);
            if (c.fd < 0) return problem("connect failed");
            if (c.frame) {
                std::string hello(net::kMagic);
                hello += net::encode_frame(net::FrameType::Hello, net::hello_payload());
                if (!send_all(c.fd, hello)) return problem("hello send failed");
            }
        }
        return wait([this] {
            for (const ClientConn& c : conns_)
                if (c.frame && !c.hello) return false;
            return true;
        });
    }

    /// Runs steps [from, to); false when the round had to be abandoned.
    bool run_steps(std::size_t from, std::size_t to) {
        for (std::size_t s = from; s < to; ++s) {
            const Step& step = script_.steps[s];
            for (std::size_t r = 0; r < step.reqs.size(); ++r) {
                const Request& req = step.reqs[r];
                ClientConn& c = conns_[static_cast<std::size_t>(req.conn)];
                const std::string bytes =
                    c.frame ? net::encode_frame(net::FrameType::Request, req.line)
                            : req.line + "\n";
                c.outstanding.push_back({script_.ends[s][r], Clock::now(),
                                         req.op && s >= script_.setup_steps, script_.ok[s][r],
                                         false, req.line});
                ++out_.attempted;
                if (!send_all(c.fd, bytes)) return problem("send failed: " + req.line);
            }
            if (!wait([this] {
                    for (const ClientConn& c : conns_)
                        if (!c.outstanding.empty()) return false;
                    return true;
                }))
                return false;
        }
        return true;
    }

    /// Waits for every expected item (trailing fan-out included).
    bool drain_all() {
        return wait([this] {
            for (const ClientConn& c : conns_)
                if (c.cursor < c.expect->size()) return false;
            return true;
        });
    }

    /// Counts anything still owed as failed (abandoned round).
    void fail_outstanding() {
        for (ClientConn& c : conns_) {
            for (const Outstanding& o : c.outstanding) fail("no answer to '" + o.line + "'");
            c.outstanding.clear();
            if (c.carry_mismatch) fail("stream mismatch after the last request");
            c.carry_mismatch = false;
        }
    }

    void close_all() {
        for (ClientConn& c : conns_) {
            if (c.carry_mismatch) fail("stream mismatch after the last request");
            c.carry_mismatch = false;
            if (c.fd >= 0) ::close(c.fd);
            c.fd = -1;
        }
    }

private:
    bool problem(std::string what) {
        if (out_.problems.size() < 8) out_.problems.push_back(std::move(what));
        return false;
    }
    void fail(std::string what) {
        ++out_.failed;
        problem(std::move(what));
    }

    /// Alternates one server poll cycle with one non-blocking look at
    /// every client socket until `done`.
    template <typename Done>
    bool wait(Done done) {
        std::vector<pollfd> fds(conns_.size());
        Clock::time_point progress = Clock::now();
        while (!done()) {
            int served = 0;
            if (timed_polls_) {
                const Clock::time_point t0 = Clock::now();
                served = server_.poll_once(0);
                if (served > 0) {
                    out_.poll_active_s += seconds_between(t0, Clock::now());
                    ++out_.poll_active;
                }
            } else {
                served = server_.poll_once(0);
            }
            for (std::size_t i = 0; i < conns_.size(); ++i) fds[i] = {conns_[i].fd, POLLIN, 0};
            const int n = ::poll(fds.data(), fds.size(), 0);
            if (n < 0 && errno != EINTR) return problem("client poll failed");
            for (std::size_t i = 0; n > 0 && i < conns_.size(); ++i)
                if (fds[i].revents != 0 && !read_conn(conns_[i]))
                    return problem("connection " + std::to_string(i) + " closed");
            if (served > 0 || n > 0) {
                progress = Clock::now();
            } else if (seconds_between(progress, Clock::now()) * 1000 > kStallMs) {
                return problem("stalled: no progress for " + std::to_string(kStallMs) + " ms");
            }
        }
        return true;
    }

    bool read_conn(ClientConn& c) {
        char buf[64 * 1024];
        bool got = false;
        while (true) {
            ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
            if (n > 0) {
                got = true;
                if (c.frame)
                    c.frames.feed({buf, static_cast<std::size_t>(n)});
                else
                    c.lines.feed({buf, static_cast<std::size_t>(n)});
                if (static_cast<std::size_t>(n) < sizeof(buf)) break;
                continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) break;
            return false; // peer closed or error
        }
        if (!got) return true;
        if (c.frame) {
            net::Frame f;
            net::FrameReader::Status st;
            while ((st = c.frames.next(f)) == net::FrameReader::Status::Ready) {
                if (!c.hello) {
                    c.hello = f.type == net::FrameType::Hello &&
                              net::parse_hello(f.payload) == net::kProtocolVersion;
                    if (!c.hello) return false;
                    continue;
                }
                consume(c, Item{static_cast<char>(f.type), std::move(f.payload)});
            }
            if (st == net::FrameReader::Status::Error) return false;
        } else {
            std::string line;
            net::LineReader::Status st;
            while ((st = c.lines.next(line)) == net::LineReader::Status::Ready)
                consume(c, Item{'L', std::move(line)});
            if (st == net::LineReader::Status::Error) return false;
        }
        complete(c, Clock::now());
        return true;
    }

    void consume(ClientConn& c, Item item) {
        const std::size_t at = c.cursor++;
        if (at < c.expect->size() && (*c.expect)[at] == item) return;
        if (!c.outstanding.empty() && at < c.outstanding.front().end)
            c.outstanding.front().mismatch = true;
        else
            c.carry_mismatch = true;
    }

    void complete(ClientConn& c, Clock::time_point now) {
        while (!c.outstanding.empty() && c.cursor >= c.outstanding.front().end) {
            Outstanding& o = c.outstanding.front();
            if (c.carry_mismatch) {
                o.mismatch = true;
                c.carry_mismatch = false;
            }
            if (o.op) out_.op_us.push_back(us_between(o.sent, now));
            if (o.mismatch)
                fail("answer differs from the in-process twin: '" + o.line + "'");
            else if (!o.ok)
                fail("refused: '" + o.line + "'");
            c.outstanding.pop_front();
        }
    }

    const Script& script_;
    net::Server& server_;
    bool timed_polls_;
    TcpRound& out_;
    std::vector<ClientConn> conns_;
};

} // namespace

TcpRound run_tcp(const Script& script, bool timed_polls) {
    TcpRound out;
    const Clock::time_point t0 = Clock::now();
    auto hub = std::make_unique<hub::HubController>();
    net::Server server(*hub);
    std::string error;
    if (!server.start(&error)) {
        out.failed = 1;
        out.problems.push_back("server start: " + error);
        return out;
    }
    Clients clients(script, server, timed_polls, out);
    bool ok = clients.connect_all(server.port()) && clients.run_steps(0, script.setup_steps);
    const Clock::time_point t1 = Clock::now();
    out.poll_active_s = 0;
    out.poll_active = 0;
    ok = ok && clients.run_steps(script.setup_steps, script.steps.size()) &&
         clients.drain_all();
    const Clock::time_point t2 = Clock::now();
    if (!ok) clients.fail_outstanding();
    clients.close_all();
    server.stop();
    out.setup_s = seconds_between(t0, t1);
    out.body_s = seconds_between(t1, t2);
    out.net = server.stats();
    if (!ok && out.failed == 0) out.failed = 1; // abandoned before any op was owed
    return out;
}

void TcpTotals::add(Report& rep, TcpRound&& r, std::size_t n, double tail_q) {
    rep.attempted += r.attempted;
    rep.failed += r.failed;
    for (auto& p : r.problems)
        if (rep.problems.size() < 8) rep.problems.push_back(std::move(p));
    setup_s.push_back(r.setup_s);
    if (r.body_s > 0) round_ops_per_s.push_back(static_cast<double>(n) / r.body_s);
    if (!r.op_us.empty()) {
        round_p50_us.push_back(quantile(r.op_us, 0.5));
        round_tail_us.push_back(quantile(r.op_us, tail_q));
    }
    body_s += r.body_s;
    poll_active_s += r.poll_active_s;
    poll_active += r.poll_active;
    bytes_out += r.net.bytes_out;
    events_dropped += r.net.events_dropped;
    ops += n;
    ++rounds;
}

std::string_view strip_route(std::string_view line) {
    if (!line.starts_with('@')) return line;
    const std::size_t sp = line.find(' ');
    return sp == std::string_view::npos ? std::string_view{} : line.substr(sp + 1);
}

hub::SessionRegistry::Entry* find_entry(const hub::SessionRegistry& reg, std::string_view name) {
    for (const auto& e : reg.entries())
        if (e->name == name) return e.get();
    return nullptr;
}

// ---- in-process hub depth ---------------------------------------------------

std::vector<double> run_hub_depth(const Script& script, bool sink) {
    hub::HubController hub;
    std::vector<hub::RouteContext> ctx(script.conns.size());
    std::vector<std::vector<std::string>> fanned(script.conns.size());
    if (sink)
        hub.set_event_sink([&](int id, std::string_view name, const std::string& line) {
            for (std::size_t c = 0; c < ctx.size(); ++c)
                if (ctx[c].allows(id, name)) fanned[c].push_back(line);
        });
    for (std::size_t s = 0; s < script.setup_steps; ++s)
        for (const Request& r : script.steps[s].reqs)
            (void)hub.execute_line(r.line, ctx[static_cast<std::size_t>(r.conn)]);
    (void)hub.drain_event_lines();

    std::vector<double> us;
    us.reserve(script.body_requests());
    for (std::size_t s = script.setup_steps; s < script.steps.size(); ++s) {
        for (const Request& r : script.steps[s].reqs) {
            const Clock::time_point t0 = Clock::now();
            (void)hub.execute_line(r.line, ctx[static_cast<std::size_t>(r.conn)]);
            if (!sink) (void)hub.drain_event_lines();
            us.push_back(us_between(t0, Clock::now()));
            for (auto& f : fanned) f.clear();
        }
    }
    return us;
}

} // namespace perfbench
