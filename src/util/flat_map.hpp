/**
 * @file
 * FlatMap: the open-addressed, arena-backed hash map for the hot path
 * (docs/performance.md §Hot-path v2).
 *
 * `std::unordered_map` costs one heap node per element, a pointer
 * chase per probe, and allocator traffic on every insert/erase. The
 * simulator's remaining hot-path maps all share one shape — a 64-bit
 * key that can never be all-ones (addresses, tags, compressed
 * metadata keys) and a small trivially-copyable value — so this map
 * exploits it:
 *
 *  - **One arena allocation.** Keys and values live in a single
 *    contiguous block: a packed key array (EMPTY all-ones sentinel)
 *    followed by a parallel value array. No per-element allocation,
 *    ever; clear() just repaints the key array and keeps the arena,
 *    so a map that is cleared and refilled reuses its capacity
 *    instead of rebuilding a node forest.
 *  - **Packed-key probes.** Linear probing over the packed key array
 *    is "first slot equal to my key or EMPTY", one
 *    find_first_eq_either row scan (util/row_scan.hpp). At the 50%
 *    load cap the scan usually stops within a slot or two.
 *  - **Backward-shift deletion** (Knuth 6.4 R), so erase leaves no
 *    tombstones and probe sequences never degrade.
 *
 * Load factor is capped at 50% (grow doubles the power-of-two
 * capacity), keeping probe runs short. Iteration order is the
 * physical slot order — deterministic for a deterministic operation
 * history, but *not* sorted; serialization sorts keys explicitly
 * (sim::Snapshot::io_flat_map) so snapshot bytes stay canonical.
 */
#ifndef TRIAGE_UTIL_FLAT_MAP_HPP
#define TRIAGE_UTIL_FLAT_MAP_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/bitops.hpp"
#include "util/log.hpp"
#include "util/row_scan.hpp"

namespace triage::util {

template <typename K, typename V>
class FlatMap
{
    static_assert(std::is_integral_v<K> && std::is_unsigned_v<K> &&
                      sizeof(K) == 8,
                  "FlatMap keys are 64-bit unsigned (addresses/tags); "
                  "the row scans (util/row_scan.hpp) read packed "
                  "64-bit words");
    static_assert(std::is_trivially_copyable_v<V>,
                  "values live in a raw arena and are moved by memcpy");

  public:
    /** Key value that can never be stored (probe-array sentinel). */
    static constexpr K EMPTY = ~K{0};

    FlatMap() = default;

    FlatMap(const FlatMap& o) { *this = o; }

    FlatMap&
    operator=(const FlatMap& o)
    {
        if (this == &o)
            return *this;
        allocate(o.cap_);
        size_ = o.size_;
        if (o.cap_ != 0) {
            std::memcpy(keys_, o.keys_, o.cap_ * sizeof(K));
            std::memcpy(vals_, o.vals_, o.cap_ * sizeof(V));
        }
        return *this;
    }

    FlatMap(FlatMap&& o) noexcept { swap(o); }

    FlatMap&
    operator=(FlatMap&& o) noexcept
    {
        swap(o);
        return *this;
    }

    void
    swap(FlatMap& o) noexcept
    {
        std::swap(arena_, o.arena_);
        std::swap(keys_, o.keys_);
        std::swap(vals_, o.vals_);
        std::swap(cap_, o.cap_);
        std::swap(mask_, o.mask_);
        std::swap(size_, o.size_);
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::size_t capacity() const { return cap_; }

    /** Drop all elements; the arena (capacity) is retained. */
    void
    clear()
    {
        if (cap_ != 0)
            std::fill(keys_, keys_ + cap_, EMPTY);
        size_ = 0;
    }

    /** Grow so @p n elements fit without rehashing. */
    void
    reserve(std::size_t n)
    {
        std::size_t want = MIN_CAP;
        while (want < 2 * n)
            want <<= 1;
        if (want > cap_)
            rehash(want);
    }

    /** Pointer to the value mapped to @p k, or nullptr. */
    V*
    find(K k)
    {
        if (size_ == 0)
            return nullptr;
        const std::size_t i = probe(k);
        return keys_[i] == k ? vals_ + i : nullptr;
    }

    const V*
    find(K k) const
    {
        return const_cast<FlatMap*>(this)->find(k);
    }

    bool count(K k) const { return find(k) != nullptr; }

    /** Request the cache line of @p k's home slot ahead of a find()
     *  (pure latency hint). */
    void
    prefetch_hint(K k) const
    {
        if (cap_ != 0)
            __builtin_prefetch(keys_ + home(k));
    }

    const V&
    at(K k) const
    {
        const V* p = find(k);
        TRIAGE_ASSERT(p != nullptr, "FlatMap::at: key absent");
        return *p;
    }

    /**
     * Value slot for @p k, inserting a value-initialized element if
     * absent (operator[] semantics). The returned reference is
     * invalidated by any subsequent insert.
     */
    V&
    ref(K k)
    {
        TRIAGE_ASSERT(k != EMPTY, "key collides with empty sentinel");
        if ((size_ + 1) * 2 > cap_)
            rehash(cap_ == 0 ? MIN_CAP : cap_ * 2);
        const std::size_t i = probe(k);
        if (keys_[i] != k) {
            keys_[i] = k;
            vals_[i] = V{};
            ++size_;
        }
        return vals_[i];
    }

    /** Remove @p k if present. @return it was present. */
    bool
    erase(K k)
    {
        if (size_ == 0)
            return false;
        std::size_t i = probe(k);
        if (keys_[i] != k)
            return false;
        erase_slot(i);
        return true;
    }

    /**
     * Remove every element for which @p pred(key, value) holds.
     * Implemented as collect-then-erase: backward-shift deletion can
     * move a not-yet-visited element into an already-visited slot
     * across the table's wraparound, so a single erasing sweep could
     * skip elements.
     */
    template <typename Pred>
    void
    erase_if(Pred&& pred)
    {
        std::vector<K> doomed;
        for (std::size_t i = 0; i < cap_; ++i) {
            if (keys_[i] != EMPTY && pred(keys_[i], vals_[i]))
                doomed.push_back(keys_[i]);
        }
        for (K k : doomed)
            erase(k);
    }

    /** Iterate (key, value&) over live elements in slot order. */
    template <typename F>
    void
    for_each(F&& f)
    {
        for (std::size_t i = 0; i < cap_; ++i) {
            if (keys_[i] != EMPTY)
                f(keys_[i], vals_[i]);
        }
    }

    template <typename F>
    void
    for_each(F&& f) const
    {
        for (std::size_t i = 0; i < cap_; ++i) {
            if (keys_[i] != EMPTY)
                f(keys_[i], vals_[i]);
        }
    }

    /** Minimal const forward iteration (range-for; yields pairs). */
    class const_iterator
    {
      public:
        const_iterator(const FlatMap* m, std::size_t i) : m_(m), i_(i)
        {
            advance();
        }

        std::pair<K, V>
        operator*() const
        {
            return {m_->keys_[i_], m_->vals_[i_]};
        }

        const_iterator&
        operator++()
        {
            ++i_;
            advance();
            return *this;
        }

        bool
        operator!=(const const_iterator& o) const
        {
            return i_ != o.i_;
        }

        bool
        operator==(const const_iterator& o) const
        {
            return i_ == o.i_;
        }

      private:
        void
        advance()
        {
            while (i_ < m_->cap_ && m_->keys_[i_] == EMPTY)
                ++i_;
        }

        const FlatMap* m_;
        std::size_t i_;
    };

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, cap_}; }

  private:
    static constexpr std::size_t MIN_CAP = 16;

    std::size_t
    home(K k) const
    {
        return static_cast<std::size_t>(mix64(k)) & mask_;
    }

    /** First slot holding @p k or EMPTY (wraparound). */
    std::size_t
    probe(K k) const
    {
        const std::uint64_t* t =
            reinterpret_cast<const std::uint64_t*>(keys_);
        const std::size_t h = home(k);
        std::uint32_t r = find_first_eq_either(
            t + h, static_cast<std::uint32_t>(cap_ - h), k, EMPTY);
        if (r != NPOS)
            return h + r;
        r = find_first_eq_either(
            t, static_cast<std::uint32_t>(h), k, EMPTY);
        TRIAGE_ASSERT(r != NPOS,
                      "probe table full (load is capped at 50%)");
        return r;
    }

    /** Backward-shift deletion of the element at slot @p i. */
    void
    erase_slot(std::size_t i)
    {
        std::size_t j = i;
        while (true) {
            keys_[i] = EMPTY;
            std::size_t h;
            do {
                j = (j + 1) & mask_;
                if (keys_[j] == EMPTY) {
                    --size_;
                    return;
                }
                h = home(keys_[j]);
            } while (i <= j ? (i < h && h <= j) : (i < h || h <= j));
            keys_[i] = keys_[j];
            vals_[i] = vals_[j];
            i = j;
        }
    }

    /** Size and lay out the arena: packed keys, then aligned values. */
    void
    allocate(std::size_t cap)
    {
        if (cap == 0) {
            arena_.reset();
            keys_ = nullptr;
            vals_ = nullptr;
            cap_ = 0;
            mask_ = 0;
            return;
        }
        const std::size_t key_bytes = cap * sizeof(K);
        const std::size_t val_off =
            (key_bytes + alignof(V) - 1) & ~(alignof(V) - 1);
        static_assert(alignof(V) <= alignof(std::max_align_t));
        arena_ = std::make_unique<std::byte[]>(val_off +
                                               cap * sizeof(V));
        keys_ = reinterpret_cast<K*>(arena_.get());
        vals_ = reinterpret_cast<V*>(arena_.get() + val_off);
        cap_ = cap;
        mask_ = cap - 1;
        std::fill(keys_, keys_ + cap, EMPTY);
    }

    void
    rehash(std::size_t new_cap)
    {
        TRIAGE_ASSERT(is_pow2(new_cap));
        FlatMap old;
        old.swap(*this);
        allocate(new_cap);
        size_ = 0;
        if (old.cap_ != 0) {
            for (std::size_t i = 0; i < old.cap_; ++i) {
                if (old.keys_[i] != EMPTY)
                    ref(old.keys_[i]) = old.vals_[i];
            }
        }
    }

    std::unique_ptr<std::byte[]> arena_;
    K* keys_ = nullptr;
    V* vals_ = nullptr;
    std::size_t cap_ = 0;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
};

} // namespace triage::util

#endif // TRIAGE_UTIL_FLAT_MAP_HPP
