#include "replay/snapshot.hpp"

#include "core/session.hpp"
#include "rt/state.hpp"
#include "rt/target.hpp"

namespace gmdf::replay {

namespace {

/// The whole image, one field list for capture and restore: header,
/// target, engine, then the transport counters.
void image(rt::StateIo& io, rt::Target& target, core::DebugSession& session) {
    std::uint32_t magic = Snapshot::kMagic;
    io.u32(magic);
    if (magic != Snapshot::kMagic) throw SnapshotError("not a gmdf snapshot");
    std::uint16_t version = Snapshot::kVersion;
    io.u16(version);
    if (version != Snapshot::kVersion)
        throw SnapshotError("snapshot version " + std::to_string(version) +
                            " is not supported (expected " +
                            std::to_string(Snapshot::kVersion) + ")");
    rt::SimTime time = target.sim().now(); // authoritative copy lives in Snapshot::time
    io.i64(time);
    target.state(io);
    session.engine().state(io);
    const auto& transports = session.transports();
    io.same_count(transports.size(), "snapshot transport count does not match");
    for (const auto& t : transports) {
        link::TransportStats s = t->stats();
        io.u64(s.commands);
        io.u64(s.corrupt_frames);
        io.u64(s.junk_bytes);
        io.u64(s.polls);
        io.u64(s.watch_events);
        // Rewinding the counters also resets a transport's byte stream,
        // so capture must not call it.
        if (io.loading()) t->restore_stats(s);
    }
}

/// Runs `body`, turning the codec's and the owners' std::runtime_error
/// into the typed SnapshotError.
template <class F> void typed(F&& body) {
    try {
        body();
    } catch (const SnapshotError&) {
        throw;
    } catch (const std::runtime_error& e) {
        throw SnapshotError(e.what());
    }
}

} // namespace

Snapshot capture_snapshot(rt::Target& target, core::DebugSession& session) {
    rt::StateIo io;
    typed([&] { image(io, target, session); });
    Snapshot snap;
    snap.time = target.sim().now();
    snap.bytes = io.take();
    return snap;
}

void restore_snapshot(const Snapshot& snap, rt::Target& target,
                      core::DebugSession& session) {
    rt::StateIo io(snap.bytes);
    typed([&] {
        image(io, target, session);
        if (!io.at_end()) throw SnapshotError("snapshot has trailing bytes");
    });
}

} // namespace gmdf::replay
