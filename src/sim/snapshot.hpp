/**
 * @file
 * Snapshot: the warm-state serialization archive behind resumable
 * epoch units (docs/parallel-runs.md §checkpointing).
 *
 * One bidirectional `io()` member per component keeps save and restore
 * from drifting apart: the same statement sequence either appends to or
 * consumes from the byte stream depending on the archive Mode. Three
 * properties the rest of the system relies on:
 *
 *  - **Byte determinism.** Two identical component states always
 *    serialize to identical bytes. Hash maps are written in
 *    sorted-key order, and every scalar goes through a fixed-width
 *    little-endian codec, so `save(A) == save(B)` is a usable equality
 *    test on warm state (tests/test_snapshot.cpp leans on this).
 *  - **Self-description.** `section("name")` writes a tag that load
 *    mode verifies; a restore that consumes fields in a different
 *    order than save wrote them panics at the first divergent section
 *    instead of silently misinterpreting bytes.
 *  - **Fingerprinted framing.** `seal()` wraps the payload with a
 *    magic, a format version, a caller fingerprint (the warm JobKey
 *    prefix + machine-config hash) and an FNV-1a checksum; `open()`
 *    rejects mismatches softly (a disk-cache miss), `open_or_die()`
 *    treats them as fatal (corrupted explicit checkpoint).
 */
#ifndef TRIAGE_SIM_SNAPSHOT_HPP
#define TRIAGE_SIM_SNAPSHOT_HPP

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/flat_map.hpp"
#include "util/log.hpp"

namespace triage::sim {

/** A sealed snapshot blob (framed payload; see Snapshot::seal). */
using SnapshotBlob = std::vector<std::uint8_t>;

class Snapshot
{
  public:
    enum class Mode { Save, Load };

    /** Fresh archive for saving. */
    Snapshot() : mode_(Mode::Save) {}

    Mode mode() const { return mode_; }
    bool saving() const { return mode_ == Mode::Save; }
    bool loading() const { return mode_ == Mode::Load; }

    /**
     * Order-checking tag. Save writes the name; load re-reads it and
     * panics on mismatch — catching save/restore sequence drift at the
     * exact component boundary where it happens.
     */
    void section(const char* name);

    /** Scalar io: integral / enum / bool / float / double. */
    template <typename T>
    void
    io(T& v)
    {
        static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>,
                      "io() handles scalars; use io_pod for structs");
        if constexpr (std::is_same_v<T, bool>) {
            std::uint8_t b = saving() ? (v ? 1 : 0) : 0;
            io_bytes(&b, 1);
            if (loading())
                v = b != 0;
        } else if constexpr (std::is_floating_point_v<T>) {
            static_assert(sizeof(T) <= 8);
            std::uint64_t bits = 0;
            if (saving())
                std::memcpy(&bits, &v, sizeof(T));
            io_fixed(bits);
            if (loading())
                std::memcpy(&v, &bits, sizeof(T));
        } else {
            using Base = typename std::conditional_t<
                std::is_enum_v<T>, std::underlying_type<T>,
                std::type_identity<T>>::type;
            using U = std::make_unsigned_t<Base>;
            std::uint64_t wide =
                saving() ? static_cast<std::uint64_t>(static_cast<U>(v))
                         : 0;
            io_fixed(wide);
            if (loading())
                v = static_cast<T>(static_cast<U>(wide));
        }
    }

    void io(std::string& s);

    /**
     * Trivially-copyable struct io. The type must have no padding
     * (unique object representations): padding bytes are indeterminate
     * memory, and serializing them breaks the byte-determinism
     * property across process instances. Reorder fields or serialize
     * field-by-field when the assert fires.
     */
    template <typename T>
    void
    io_pod(T& v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        static_assert(std::has_unique_object_representations_v<T> ||
                          std::is_floating_point_v<T>,
                      "padded struct: padding bytes are indeterminate "
                      "and would leak into the snapshot — serialize "
                      "field-by-field or pack the struct");
        io_bytes(reinterpret_cast<std::uint8_t*>(&v), sizeof(T));
    }

    template <typename T>
    void
    io_pod_vec(std::vector<T>& v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        static_assert(std::has_unique_object_representations_v<T> ||
                          std::is_floating_point_v<T>,
                      "padded struct: padding bytes are indeterminate "
                      "and would leak into the snapshot — serialize "
                      "field-by-field or pack the struct");
        std::uint64_t n = v.size();
        io(n);
        if (loading())
            v.resize(static_cast<std::size_t>(n));
        if (n > 0) {
            io_bytes(reinterpret_cast<std::uint8_t*>(v.data()),
                     v.size() * sizeof(T));
        }
    }

    /** Vector of non-POD elements; @p per(Snapshot&, T&) does each. */
    template <typename T, typename F>
    void
    io_vec(std::vector<T>& v, F&& per)
    {
        std::uint64_t n = v.size();
        io(n);
        if (loading())
            v.resize(static_cast<std::size_t>(n));
        for (auto& e : v)
            per(*this, e);
    }

    /**
     * Hash map (util::FlatMap) with POD key/value: the count, then the
     * (key, value) pairs in ascending key order. Slot order is an
     * artifact of the operation history, so sorting keeps the
     * byte-determinism property (two logically equal maps always
     * serialize identically, whatever their table layouts). Save
     * gathers the pairs in one slot-order sweep and sorts them once.
     */
    template <typename K, typename V>
    void
    io_flat_map(util::FlatMap<K, V>& m)
    {
        std::uint64_t n = m.size();
        io(n);
        if (saving()) {
            std::vector<std::pair<K, V>> pairs;
            pairs.reserve(m.size());
            m.for_each([&](K k, const V& v) { pairs.emplace_back(k, v); });
            // Keys are unique, so pair order is key order.
            std::sort(pairs.begin(), pairs.end());
            for (auto& [k, v] : pairs) {
                io_pod(k);
                io_pod(v);
            }
        } else {
            m.clear();
            m.reserve(static_cast<std::size_t>(n));
            for (std::uint64_t i = 0; i < n; ++i) {
                K k{};
                V v{};
                io_pod(k);
                io_pod(v);
                m.ref(k) = v;
            }
        }
    }

    /** Bytes consumed so far (load) / written so far (save). */
    std::size_t size() const { return saving() ? bytes_.size() : pos_; }

    /** Load mode: true once the whole payload has been consumed. */
    bool exhausted() const { return loading() && pos_ == bytes_.size(); }

    /**
     * Frame the saved payload: magic + format version + @p version +
     * @p fingerprint + payload + FNV-1a checksum. Save mode only.
     */
    SnapshotBlob seal(std::uint32_t version,
                      const std::string& fingerprint) const;

    /**
     * Unframe @p blob into a load-mode archive. Returns false (leaving
     * @p out untouched) when the magic, version, fingerprint or
     * checksum does not match — the disk-cache-miss path.
     */
    static bool open(const SnapshotBlob& blob, std::uint32_t version,
                     const std::string& fingerprint, Snapshot& out);

    /** open(), but a mismatch is fatal (corrupted checkpoint file). */
    static Snapshot open_or_die(const SnapshotBlob& blob,
                                std::uint32_t version,
                                const std::string& fingerprint);

  private:
    /**
     * Inline hot path: one call per scalar field, millions per warm
     * blob — the append branch must stay branch-predictable and
     * call-free (checkpoint fork latency is directly this loop).
     */
    void
    io_fixed(std::uint64_t& v)
    {
        if (saving()) {
            std::uint8_t buf[8];
            for (int i = 0; i < 8; ++i)
                buf[i] = static_cast<std::uint8_t>(v >> (8 * i));
            append(buf, 8);
        } else {
            std::uint8_t buf[8];
            consume(buf, 8);
            v = 0;
            for (int i = 0; i < 8; ++i)
                v |= static_cast<std::uint64_t>(buf[i]) << (8 * i);
        }
    }

    void
    io_bytes(std::uint8_t* p, std::size_t n)
    {
        if (saving())
            append(p, n);
        else
            consume(p, n);
    }

    void
    append(const std::uint8_t* p, std::size_t n)
    {
        const std::size_t old = bytes_.size();
        if (old + n > bytes_.capacity())
            bytes_.reserve(std::max(old + n, old * 2));
        bytes_.resize(old + n);
        std::memcpy(bytes_.data() + old, p, n);
    }

    void
    consume(std::uint8_t* p, std::size_t n)
    {
        if (pos_ + n > bytes_.size())
            underrun(n);
        std::memcpy(p, bytes_.data() + pos_, n);
        pos_ += n;
    }

    [[noreturn]] void underrun(std::size_t need) const;

    Mode mode_;
    std::vector<std::uint8_t> bytes_;
    std::size_t pos_ = 0;
};

} // namespace triage::sim

#endif // TRIAGE_SIM_SNAPSHOT_HPP
