/**
 * @file
 * CheckpointStore: a memoized cache of warm-state snapshots keyed by
 * the warm prefix of a JobKey (docs/parallel-runs.md §checkpointing).
 *
 * Sweeps share warmup: every job whose (machine, workload, prefetcher,
 * degree, replica, warmup, scale, quantum) prefix matches an earlier
 * job forks its measurement phase from the memoized warm snapshot
 * instead of re-simulating the warmup — bit-identical to warming up
 * in-process, because the snapshot captures the complete warm state.
 *
 * Two tiers: an in-memory LRU bounded by a byte budget, and an
 * optional on-disk directory (persists across processes; every file is
 * validated against its fingerprint + checksum on load, so a stale or
 * corrupted file degrades to a cache miss, never a wrong result).
 *
 * Demand: a caller that knows its future acquires (the Lab, at
 * submission) declares them with expect(). A producer then saves only
 * a checkpoint someone can still fork (Lease::wanted()), and the
 * memory tier drops a blob once its declared acquires are spent. Keys
 * nobody declared keep the plain memoizing behaviour.
 *
 * Concurrency: acquire() hands exactly one caller per key a producer
 * lease (miss); concurrent callers for the same key block until the
 * producer publishes, then read the published blob (hit). A producer
 * that dies without publishing wakes one waiter to take over.
 */
#ifndef TRIAGE_EXEC_CHECKPOINT_HPP
#define TRIAGE_EXEC_CHECKPOINT_HPP

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "sim/snapshot.hpp"

namespace triage::exec {

/** CheckpointStore construction knobs. */
struct CheckpointOptions {
    /** In-memory LRU budget in bytes (0 disables the memory tier). */
    std::size_t mem_budget_bytes = 512ull << 20;
    /**
     * On-disk cache directory ("" disables the disk tier). Created on
     * first write. Defaults from the TRIAGE_CKPT_DIR environment
     * variable when the owning Lab constructs the store.
     */
    std::string disk_dir;
};

/**
 * Blob format version for warm checkpoints (bump on layout change, so
 * a stale disk-tier file from an older build reads as a miss instead
 * of failing mid-restore). 2: MISB's flat PS/SP tables, with the
 * redundant mapped-address set dropped. 3: MISB's granule-organized
 * PS/SP tables, with the confidence set folded into PS values.
 * 4: util::Rng saves only its PCG state (the zipf envelope cache moved
 * into util::ZipfDist), shrinking the DRRIP and random-policy sections.
 * 5: Triage's metadata store saves 16-byte entries (confidence in the
 * successor's top bit) plus a successor-ctag array, and its Hawkeye a
 * 16-bit predictor slot per entry instead of the PC.
 * 6: the metadata store runs on cache::ReplacementPolicy (sections
 * repl.lru / repl.hawkeye), and every Hawkeye saves a 16-bit predictor
 * slot per line instead of the PC, with no per-sampler prune stamp.
 * 7: single-core jobs and 1-program mixes save only the hierarchy and
 * the core at the warm point (no epoch_run section).
 * 8: Triage's metadata store saves 4-byte search keys (a 32-bit fold
 * of the trigger in uncompressed mode).
 * 9: LruTable layouts: the TLB, MISB's PS/SP caches, Markov, SMS and
 * the training unit save util::LruTable rows (keys, stamps, values,
 * one clock per table), filled from the first empty way.
 * 10: MISB saves no on-chip cache hit/miss counters.
 */
inline constexpr std::uint32_t CKPT_VERSION = 10;

/**
 * Two-tier (memory LRU + disk) cache of sealed snapshot blobs.
 * Thread-safe; see file comment for the producer/waiter protocol.
 */
class CheckpointStore
{
  public:
    /** Hit/miss counters (tests and the cache-smoke tool assert on
     *  these; disk_hits > 0 proves cross-process reuse). The Lab
     *  exports them under profile.ckpt.* when profiling is on
     *  (docs/observability.md §10). */
    struct Stats {
        std::uint64_t mem_hits = 0;
        std::uint64_t disk_hits = 0;
        std::uint64_t misses = 0;    ///< acquire() became a producer
        std::uint64_t produces = 0;  ///< blobs published
        std::uint64_t skipped = 0;   ///< producer leases declined:
                                     ///< nothing could fork the blob
        std::uint64_t waits = 0;     ///< blocked on a concurrent producer
        std::uint64_t evictions = 0; ///< LRU evictions (memory tier)
        std::uint64_t lease_wait_ns = 0; ///< total time blocked in waits
        std::uint64_t bytes_published = 0;  ///< sum of published blobs
        std::uint64_t bytes_mem = 0;        ///< memory tier, current
        std::uint64_t bytes_disk_read = 0;  ///< disk-tier blob loads
        std::uint64_t bytes_disk_written = 0; ///< disk-tier blob writes
    };

    /** A published blob, shared by the memory tier and hit leases. */
    using BlobPtr = std::shared_ptr<const sim::SnapshotBlob>;

    /**
     * The result of acquire(): either a hit carrying the blob, or a
     * producer lease obligating the caller to publish() the blob it
     * computes — unless wanted() declines it. Destroying an unpublished
     * producer lease abandons it, promoting one blocked waiter to
     * producer.
     */
    class Lease
    {
      public:
        Lease(Lease&& o) noexcept
            : store_(o.store_), key_(std::move(o.key_)),
              blob_(std::move(o.blob_)), producer_(o.producer_)
        {
            o.store_ = nullptr;
            o.producer_ = false;
        }
        Lease(const Lease&) = delete;
        Lease& operator=(const Lease&) = delete;
        Lease& operator=(Lease&&) = delete;
        ~Lease();

        /** True when the store already had the blob. */
        bool hit() const { return blob_ != nullptr; }
        /** The cached blob (hit() only). */
        const sim::SnapshotBlob& blob() const { return *blob_; }
        /**
         * Producer lease only, asked at the warm point: can anyone
         * still fork this checkpoint? Yes while declared acquires
         * remain for the key, callers wait on this lease, a disk tier
         * is configured (another process may fork from it), or nobody
         * ever declared demand for the key. On no, the lease is
         * declined (Stats::skipped) and must not be published.
         */
        bool wanted();
        /** Publish the produced blob (producer lease only). */
        void publish(sim::SnapshotBlob blob);

      private:
        friend class CheckpointStore;
        Lease(CheckpointStore* store, std::string key, BlobPtr blob,
              bool producer)
            : store_(store), key_(std::move(key)),
              blob_(std::move(blob)), producer_(producer)
        {}

        CheckpointStore* store_;
        std::string key_;
        BlobPtr blob_;
        bool producer_;
    };

    explicit CheckpointStore(CheckpointOptions opt = {});

    /**
     * Look up @p key (its canonical string doubles as the snapshot
     * fingerprint). Returns a hit lease, or — after checking the disk
     * tier and waiting out any concurrent producer — a producer lease.
     */
    Lease acquire(const std::string& key);

    /**
     * Declare one future acquire() of @p key. Each acquire consumes
     * one declaration; a key whose declarations are all consumed is
     * released from the memory tier after its last fork, and a
     * producer of it declines to save (Lease::wanted()).
     */
    void expect(const std::string& key);

    Stats stats() const;

    /** Redirect the disk tier ("" disables). Not thread-safe against
     *  in-flight acquires; call before submitting jobs. */
    void set_disk_dir(std::string dir);
    const std::string& disk_dir() const { return opt_.disk_dir; }

    /** Path of @p key's disk-tier file ("" when the tier is off). */
    std::string disk_path(const std::string& key) const;

  private:
    /** A key being produced, or a published blob not yet released. */
    struct Entry {
        bool producing = false;
        /** Published blob (null while producing). */
        BlobPtr blob;
        /** Counted in the memory tier (on lru_, in mem_bytes_). */
        bool cached = false;
        /** Acquires blocked on the producer; they pin the entry. */
        std::size_t waiters = 0;
        /** Position in lru_ (valid when cached). */
        std::list<std::string>::iterator lru_pos;
    };

    void do_publish(const std::string& key, sim::SnapshotBlob blob);
    bool decline_unless_wanted(const std::string& key);
    void abandon(const std::string& key);
    /** Every declared acquire of @p key has happened. */
    bool spent_locked(const std::string& key) const;
    /** Set @p e's published blob: the memory tier keeps it unless
     *  @p key's declared acquires are spent; waiters take it either
     *  way. May erase @p e. */
    void settle_locked(const std::string& key, Entry& e, BlobPtr blob);
    void uncache_locked(Entry& e);
    void touch_locked(const std::string& key, Entry& e);
    /** Erase @p key's entry once no acquire can read its blob again:
     *  no producer or waiter on it, and out of the memory tier or its
     *  declared acquires spent. */
    void release_locked(const std::string& key);
    void evict_to_budget_locked();
    bool load_from_disk(const std::string& key, sim::SnapshotBlob& out);
    /** Returns true when the blob reached the disk tier. */
    bool store_to_disk(const std::string& key,
                       const sim::SnapshotBlob& blob);

    CheckpointOptions opt_;
    mutable std::mutex mu_;
    std::condition_variable ready_cv_;
    std::unordered_map<std::string, Entry> entries_;
    /** Declared acquires not yet made, per key ever declared. */
    std::unordered_map<std::string, std::size_t> demand_;
    /** Cached keys, most-recently-used first. */
    std::list<std::string> lru_;
    std::size_t mem_bytes_ = 0;
    Stats stats_;
};

} // namespace triage::exec

#endif // TRIAGE_EXEC_CHECKPOINT_HPP
