// Compact binary state codec for checkpoint/restore.
//
// Every layer that participates in deterministic snapshots (the DES
// kernel, the memory map, the target platform, the debugger engine, task
// bodies and FB kernels) describes its state once, in a state(StateIo&)
// function. A StateIo either writes (capture) or reads (restore), and its
// primitives take references: writing reads the field, reading assigns
// it. One field list serves both directions, so the two cannot drift.
//
// The encoding is explicit little-endian with fixed-width integers and
// bit-exact IEEE doubles, so a snapshot taken on one run restores
// bit-for-bit on another — which is what makes rewind + re-execution
// byte-identical to the original forward run.
//
// Reading checks the bytes, the counts and the indices, never only the
// first: every access is bounds-checked against the image; every count
// is checked against the bytes left before anything is allocated; every
// restored index or enum goes through index(), against the live object
// it addresses. Failures throw std::runtime_error; the replay layer wraps
// them into its typed SnapshotError before anything reaches the protocol
// surface.
#pragma once

#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace gmdf::rt {

class StateIo {
public:
    /// Write mode: appends to an owned buffer (see take()).
    StateIo() = default;

    /// Read mode: assigns fields from `image`, front to back.
    explicit StateIo(std::span<const std::uint8_t> image)
        : in_(image), end_(image.size()), loading_(true) {}

    [[nodiscard]] bool loading() const { return loading_; }

    void u8(std::uint8_t& v) { field(v); }
    void u16(std::uint16_t& v) { field(v); }
    void u32(std::uint32_t& v) { field(v); }
    void u64(std::uint64_t& v) { field(v); }
    void i32(std::int32_t& v) { field(v); }
    void i64(std::int64_t& v) { field(v); }
    void b(bool& v) {
        std::uint8_t x = v ? 1 : 0;
        u8(x);
        v = x != 0;
    }
    void f64(double& v) {
        auto x = std::bit_cast<std::uint64_t>(v);
        u64(x);
        v = std::bit_cast<double>(x);
    }
    /// A fixed-length run of doubles (no count).
    void f64s(std::span<double> v) {
        for (double& x : v) f64(x);
    }

    /// A count fixed by the live object's layout (memory words, tasks,
    /// nodes): the restored count must equal it.
    void same_count(std::size_t live, const char* what) {
        std::uint64_t n = live;
        u64(n);
        check(n == live, what);
    }

    /// Validity check on restored values (state that is live always
    /// passes it, so owners call it in both directions).
    void check(bool ok, const char* what) const {
        if (!ok) throw std::runtime_error(what);
    }

    /// The one check for a restored index or enum value: it must lie in
    /// [0, end), where `end` is the size of the live object it addresses
    /// (or the enum's range).
    template <std::integral T> void index(T v, std::size_t end, const char* what) const {
        check(std::cmp_greater_equal(v, 0) && std::cmp_less(v, end), what);
    }

    /// An enum stored as one byte; restores only the named values
    /// [first, last].
    template <class E> void enum8(E& e, E first, E last, const char* what) {
        auto v = static_cast<std::uint8_t>(e);
        u8(v);
        index(v - static_cast<int>(first),
              static_cast<std::size_t>(static_cast<int>(last) - static_cast<int>(first) + 1),
              what);
        e = static_cast<E>(v);
    }

    /// A counted sequence: writing walks `c`, reading first resizes it
    /// to the recorded count. `item(element)` describes one element.
    template <class C, class F> void items(C& c, std::size_t min_item_bytes, F&& item) {
        c.resize(count(c.size(), min_item_bytes));
        for (auto& e : c) item(e);
    }

    /// A counted map: writing walks `m`, reading rebuilds it.
    /// `entry(key, value)` describes one pair.
    template <class M, class F> void entries(M& m, std::size_t min_entry_bytes, F&& entry) {
        std::size_t n = count(m.size(), min_entry_bytes);
        if (!loading_) {
            for (auto& [k, v] : m) {
                auto key = k;
                entry(key, v);
            }
            return;
        }
        m.clear();
        for (std::size_t i = 0; i < n; ++i) {
            typename M::key_type k{};
            typename M::mapped_type v{};
            entry(k, v);
            m.insert_or_assign(std::move(k), std::move(v));
        }
    }

    void str(std::string& s) {
        s.resize(count(s.size(), 1));
        raw(s.data(), s.size());
    }
    void bytes(std::vector<std::uint8_t>& v) {
        v.resize(count(v.size(), 1));
        raw(v.data(), v.size());
    }
    void doubles(std::vector<double>& v) {
        v.resize(count(v.size(), 8));
        f64s(v);
    }

    // ---- task-body / FB-kernel blocks ---------------------------------------
    //
    // A body block is a count of f64 values, then the values. Inside it
    // flags, indices and counts are widened to f64 too (bit-exact below
    // 2^53).

    /// Frames one body's state. Writing back-patches the count once the
    /// body has written; reading confines the body to exactly the
    /// recorded block and checks it consumed all of it.
    template <class F> void block(F&& body) {
        if (!loading_) {
            std::size_t at = out_.size();
            put(std::uint64_t{0});
            body();
            store(out_.data() + at, std::uint64_t{(out_.size() - at - 8) / 8});
            return;
        }
        std::size_t n = count(0, 8);
        std::size_t outer = end_;
        end_ = pos_ + n * 8;
        body();
        check(pos_ == end_, "task body consumed a different state size");
        end_ = outer;
    }

    void f64_flag(bool& v) {
        double x = v ? 1.0 : 0.0;
        f64(x);
        v = x != 0.0;
    }
    /// An index widened to f64, checked like index().
    void f64_index(std::size_t& v, std::size_t end, const char* what) {
        auto x = static_cast<double>(v);
        f64(x);
        check(x >= 0.0 && x < static_cast<double>(end), what);
        v = static_cast<std::size_t>(x);
    }
    /// A vector of doubles whose count is widened to f64 too.
    void f64_doubles(std::vector<double>& v) {
        auto x = static_cast<double>(v.size());
        f64(x);
        if (loading_) {
            if (!(x >= 0.0 && x <= static_cast<double>(left() / 8))) truncated();
            v.resize(static_cast<std::size_t>(x));
        }
        f64s(v);
    }

    // ---- image ends --------------------------------------------------------

    /// Reading: every byte of the image has been consumed.
    [[nodiscard]] bool at_end() const { return pos_ == in_.size(); }

    /// Writing: hands over the image.
    [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(out_); }

private:
    /// A count of items, each at least `min_item_bytes` long. Writing
    /// records `live`; reading returns the recorded count once that many
    /// items fit the bytes left, so a corrupt count cannot size an
    /// allocation.
    std::size_t count(std::size_t live, std::size_t min_item_bytes) {
        std::uint64_t n = live;
        u64(n);
        if (loading_ && n > left() / min_item_bytes) truncated();
        return static_cast<std::size_t>(n);
    }

    template <std::integral T> void field(T& v) {
        using U = std::make_unsigned_t<T>;
        if (loading_) {
            const std::uint8_t* p = take_in(sizeof(U));
            U u = 0;
            for (std::size_t i = 0; i < sizeof(U); ++i)
                u = static_cast<U>(u | (static_cast<U>(p[i]) << (8 * i)));
            v = static_cast<T>(u);
        } else {
            put(static_cast<U>(v));
        }
    }

    template <class U> void put(U u) {
        std::size_t at = out_.size();
        out_.resize(at + sizeof(U));
        store(out_.data() + at, u);
    }

    template <class U> static void store(std::uint8_t* p, U u) {
        for (std::size_t i = 0; i < sizeof(U); ++i)
            p[i] = static_cast<std::uint8_t>(u >> (8 * i));
    }

    void raw(void* data, std::size_t n) {
        if (n == 0) return;
        if (!loading_) {
            const auto* p = static_cast<const std::uint8_t*>(data);
            out_.insert(out_.end(), p, p + n);
            return;
        }
        std::memcpy(data, take_in(n), n);
    }

    const std::uint8_t* take_in(std::size_t n) {
        if (n > left()) truncated();
        const std::uint8_t* p = in_.data() + pos_;
        pos_ += n;
        return p;
    }

    [[nodiscard]] std::size_t left() const { return end_ - pos_; }
    [[noreturn]] static void truncated() { throw std::runtime_error("snapshot truncated"); }

    std::vector<std::uint8_t> out_;
    std::span<const std::uint8_t> in_;
    std::size_t pos_ = 0;
    std::size_t end_ = 0; ///< reading: end of the image, or of the open body block
    bool loading_ = false;
};

} // namespace gmdf::rt
