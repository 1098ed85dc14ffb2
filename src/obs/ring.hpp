// gmdf::obs — Ring<T>: the bounded drop-oldest queue behind every piece
// of history the debugger keeps.
//
// A long-lived session must not grow memory without limit, yet the recent
// past (commands, divergences, control journal, queued events, trace
// spans) is what the debugger exists to show. Every such buffer therefore
// keeps the newest window: past `capacity` a push evicts the oldest item
// and counts it in dropped(), so "what was lost" is always answerable.
//
// Only eviction counts as a drop. Taking items out on purpose — pop_front
// by a consumer, pop_back/truncate when a rewind discards the abandoned
// future, drain — is consumption, not loss, and leaves dropped() alone;
// clear() starts over and resets it.
//
// Not synchronised: an owner that shares a ring across threads guards it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <iterator>
#include <optional>
#include <utility>
#include <vector>

namespace gmdf::obs {

template <class T>
class Ring {
public:
    using const_iterator = typename std::deque<T>::const_iterator;

    /// `capacity` in items; 0 is unbounded.
    explicit Ring(std::size_t capacity = 0) : capacity_(capacity) {}

    /// Appends `item`. When the ring was full, the oldest item is
    /// evicted, counted in dropped(), and handed back to the caller.
    std::optional<T> push(T item) {
        std::optional<T> evicted;
        if (capacity_ != 0 && items_.size() >= capacity_) {
            evicted.emplace(std::move(items_.front()));
            items_.pop_front();
            ++dropped_;
        }
        items_.push_back(std::move(item));
        return evicted;
    }

    /// Shrinking below the current size evicts (and counts) the oldest.
    void set_capacity(std::size_t capacity) {
        capacity_ = capacity;
        while (capacity_ != 0 && items_.size() > capacity_) {
            items_.pop_front();
            ++dropped_;
        }
    }
    [[nodiscard]] std::size_t capacity() const { return capacity_; }

    /// Items evicted because the ring was full, since construction or
    /// the last clear().
    [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

    [[nodiscard]] std::size_t size() const { return items_.size(); }
    [[nodiscard]] bool empty() const { return items_.empty(); }

    const T& operator[](std::size_t i) const { return items_[i]; }
    T& front() { return items_.front(); }
    const T& front() const { return items_.front(); }
    T& back() { return items_.back(); }
    const T& back() const { return items_.back(); }
    const_iterator begin() const { return items_.begin(); }
    const_iterator end() const { return items_.end(); }

    /// Read-only view for APIs written against the standard container.
    [[nodiscard]] const std::deque<T>& items() const { return items_; }

    void pop_front() { items_.pop_front(); }
    void pop_back() { items_.pop_back(); }

    /// Keeps the oldest `n` items, discarding the rest.
    void truncate(std::size_t n) {
        if (n < items_.size())
            items_.erase(items_.begin() + static_cast<std::ptrdiff_t>(n), items_.end());
    }

    /// Moves every item out, oldest first, leaving the ring empty.
    [[nodiscard]] std::vector<T> drain() {
        std::vector<T> out(std::make_move_iterator(items_.begin()),
                           std::make_move_iterator(items_.end()));
        items_.clear();
        return out;
    }

    /// Empties the ring and resets dropped().
    void clear() {
        items_.clear();
        dropped_ = 0;
    }

private:
    std::deque<T> items_;
    std::size_t capacity_ = 0;
    std::uint64_t dropped_ = 0;
};

} // namespace gmdf::obs
