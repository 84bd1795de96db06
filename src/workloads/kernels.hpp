/**
 * @file
 * Access-pattern kernels: the building blocks of the synthetic
 * benchmark analogs (see DESIGN.md Section 2 for the substitution
 * argument). Each kernel is a deterministic state machine that emits
 * one memory reference at a time; benchmarks compose kernels with
 * mixing weights.
 */
#ifndef TRIAGE_WORKLOADS_KERNELS_HPP
#define TRIAGE_WORKLOADS_KERNELS_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/trace.hpp"
#include "sim/types.hpp"
#include "util/rng.hpp"

namespace triage::workloads {

/**
 * One access-pattern generator. Kernels receive the global record
 * sequence number so they can encode load-dependency distances, and a
 * shared RNG so composition stays deterministic.
 */
class Kernel
{
  public:
    virtual ~Kernel() = default;

    /** Emit the next reference (out.pc/addr/flags). */
    virtual void emit(util::Rng& rng, std::uint64_t seq,
                      sim::TraceRecord& out) = 0;

    /** Rewind to initial state (same stream again). */
    virtual void reset() = 0;

    virtual std::unique_ptr<Kernel> clone() const = 0;
};

/**
 * Multi-chain pointer chase over a mutating successor network
 * (mcf/omnetpp-style). Each chain is traversed with one PC and true
 * load-to-load dependencies; the traversal order recurs across laps,
 * which is exactly the PC-localized temporal correlation Triage
 * learns. A small mutation rate relinks nodes to exercise confidence
 * bits and metadata replacement.
 */
class PointerChaseKernel final : public Kernel
{
  public:
    struct Params {
        std::uint32_t nodes = 1u << 20;   ///< footprint = nodes * 64 B
        std::uint32_t chains = 4;         ///< independent dependent chains
        double mutate_prob = 0.0;         ///< per-step relink probability
        /**
         * Zipf exponent skewing how often each chain is visited
         * (0 = round-robin). Skewed visits concentrate metadata reuse
         * in a few chains, reproducing Figure 1's reuse distribution.
         */
        double chain_skew = 0.0;
        std::uint8_t nonmem_min = 6;
        std::uint8_t nonmem_max = 12;
        sim::Addr base = 0x100000000ULL;
        sim::Pc pc_base = 0x400000;
        std::uint64_t seed = 7;
    };

    explicit PointerChaseKernel(Params p);

    void emit(util::Rng& rng, std::uint64_t seq,
              sim::TraceRecord& out) override;
    /** Rebuilds the network, unless nothing was emitted since the
     *  last build: then the kernel is already at its first record. */
    void reset() override;
    /** Copies the built network, then resets the copy. */
    std::unique_ptr<Kernel> clone() const override;

  private:
    void build();

    Params p_;
    std::vector<std::uint32_t> next_;
    std::vector<std::uint32_t> cur_;       ///< per-chain position
    std::vector<std::uint64_t> last_seq_;  ///< per-chain last record seq
    std::uint32_t rr_ = 0;
    util::Rng mutate_rng_;
    util::ZipfDist chain_zipf_;
    /** build() ran and emit() has not since: the state is initial. */
    bool fresh_ = false;
};

/**
 * Fixed pseudo-random scan replayed every pass (sphinx3-style model
 * evaluation): a long irregular sequence, stable across iterations,
 * partitioned over several PCs so PC localization pays off. No load
 * dependencies — high MLP, coverage-limited only by metadata capacity.
 */
class RepeatedScanKernel final : public Kernel
{
  public:
    struct Params {
        std::uint32_t entries = 1u << 20;   ///< sequence length
        std::uint32_t space_blocks = 1u << 20; ///< footprint in blocks
        std::uint32_t pcs = 4;
        std::uint8_t nonmem_min = 8;
        std::uint8_t nonmem_max = 16;
        sim::Addr base = 0x200000000ULL;
        sim::Pc pc_base = 0x410000;
        std::uint64_t seed = 11;
    };

    explicit RepeatedScanKernel(Params p);

    void emit(util::Rng& rng, std::uint64_t seq,
              sim::TraceRecord& out) override;
    void reset() override;
    std::unique_ptr<Kernel> clone() const override;

  private:
    sim::Addr addr_at(std::uint64_t i) const;

    Params p_;
    std::uint64_t pos_ = 0;
};

/**
 * CSR sparse matrix-vector product, repeated (soplex-style): streaming
 * row/col arrays plus irregular-but-recurring gathers from the dense
 * vector.
 */
class SparseMatVecKernel final : public Kernel
{
  public:
    struct Params {
        std::uint32_t rows = 1u << 16;
        std::uint32_t nnz_per_row = 8;
        std::uint32_t x_blocks = 1u << 19; ///< dense-vector footprint
        /**
         * Fraction of gathers serialized on the previous gather
         * (accumulation chains, bank conflicts, branch repair): keeps
         * the baseline latency-sensitive rather than purely MLP-bound.
         */
        double serial_prob = 0.3;
        std::uint8_t nonmem_min = 6;
        std::uint8_t nonmem_max = 12;
        sim::Addr base = 0x300000000ULL;
        sim::Pc pc_base = 0x420000;
        std::uint64_t seed = 13;
    };

    explicit SparseMatVecKernel(Params p);

    void emit(util::Rng& rng, std::uint64_t seq,
              sim::TraceRecord& out) override;
    void reset() override;
    std::unique_ptr<Kernel> clone() const override;

  private:
    std::uint32_t col_of(std::uint64_t flat_index) const;

    Params p_;
    std::uint32_t row_ = 0;
    std::uint32_t k_ = 0;     ///< nnz index within row
    std::uint32_t phase_ = 0; ///< 0: col load, 1: x gather
};

/**
 * Graph traversal in a fixed iteration order (astar/gcc-style): node
 * record, sequential edge list, then the (irregular, recurring) data
 * of each neighbour.
 */
class GraphWalkKernel final : public Kernel
{
  public:
    struct Params {
        std::uint32_t nodes = 1u << 17;
        std::uint32_t degree = 6;
        sim::Addr base = 0x400000000ULL;
        sim::Pc pc_base = 0x430000;
        std::uint64_t seed = 17;
    };

    explicit GraphWalkKernel(Params p);

    void emit(util::Rng& rng, std::uint64_t seq,
              sim::TraceRecord& out) override;
    void reset() override;
    std::unique_ptr<Kernel> clone() const override;

  private:
    std::uint32_t order_at(std::uint32_t i) const;
    std::uint32_t edge_target(std::uint32_t node, std::uint32_t e) const;

    Params p_;
    std::uint32_t visit_ = 0; ///< position in the iteration order
    std::uint32_t edge_ = 0;
    std::uint32_t phase_ = 0; ///< 0: node, 1: edge list, 2: neighbour
};

/**
 * Sequential/strided streaming over large arrays (libquantum/lbm-style
 * regular benchmarks). With shift_per_pass != 0, every pass visits a
 * fresh window, making misses compulsory — the case temporal
 * prefetchers cannot cover but BO can.
 */
class StreamingKernel final : public Kernel
{
  public:
    struct Params {
        std::uint32_t arrays = 4;
        std::uint64_t array_blocks = 1u << 22; ///< per-array footprint
        std::uint64_t window_blocks = 1u << 16; ///< blocks per pass
        std::uint32_t stride_blocks = 1;
        std::uint64_t shift_per_pass = 1u << 16; ///< fresh data per pass
        std::uint8_t nonmem_min = 2;
        std::uint8_t nonmem_max = 8;
        double store_ratio = 0.2;
        sim::Addr base = 0x500000000ULL;
        sim::Pc pc_base = 0x440000;
        std::uint64_t seed = 19;
    };

    explicit StreamingKernel(Params p);

    void emit(util::Rng& rng, std::uint64_t seq,
              sim::TraceRecord& out) override;
    void reset() override;
    std::unique_ptr<Kernel> clone() const override;

  private:
    Params p_;
    std::uint32_t arr_ = 0;
    std::uint64_t idx_ = 0;
    std::uint64_t pass_ = 0;
};

/**
 * Spatially-correlated region footprints (SMS's home turf, used by the
 * nutch/streaming CloudSuite analogs): regions are visited in a
 * non-recurring order, but each region's footprint is a stable
 * function of the PC+offset that first touches it.
 */
class FootprintKernel final : public Kernel
{
  public:
    struct Params {
        std::uint32_t region_blocks = 32; ///< 2 KB regions
        std::uint64_t regions = 1u << 16;
        std::uint32_t patterns = 64; ///< distinct footprint shapes
        double density = 0.4;        ///< fraction of region touched
        bool recur = false;          ///< revisit same region sequence
        sim::Addr base = 0x600000000ULL;
        sim::Pc pc_base = 0x450000;
        std::uint64_t seed = 23;
    };

    explicit FootprintKernel(Params p);

    void emit(util::Rng& rng, std::uint64_t seq,
              sim::TraceRecord& out) override;
    void reset() override;
    std::unique_ptr<Kernel> clone() const override;

  private:
    std::uint32_t pattern_of(std::uint64_t region) const;

    Params p_;
    std::vector<std::uint32_t> patterns_; ///< bitmap per pattern id
    std::uint64_t visit_ = 0;
    std::uint64_t region_ = 0;
    std::uint32_t bit_ = 0;
    std::uint64_t pass_ = 0;
};

/**
 * Zipf-popular hash-table probes (server-cache behaviour): hot keys
 * hit in the cache hierarchy, cold keys miss unpredictably. Temporal
 * correlation is weak by construction — a prefetcher that fires here
 * mostly wastes bandwidth.
 */
class ZipfHashKernel final : public Kernel
{
  public:
    struct Params {
        std::uint64_t buckets = 1u << 20;
        double zipf_s = 0.9;
        std::uint32_t probe_blocks = 2; ///< blocks touched per probe
        sim::Addr base = 0x700000000ULL;
        sim::Pc pc_base = 0x460000;
        std::uint64_t seed = 29;
    };

    explicit ZipfHashKernel(Params p);

    void emit(util::Rng& rng, std::uint64_t seq,
              sim::TraceRecord& out) override;
    void reset() override;
    std::unique_ptr<Kernel> clone() const override;

  private:
    Params p_;
    util::ZipfDist zipf_;
    std::uint64_t bucket_ = 0;
    std::uint32_t step_ = 0;
};

/**
 * B-tree index probes (database/key-value lookups): each probe walks
 * root -> inner -> leaf with true pointer dependencies. The root and
 * hot inner nodes cache well; leaves are the irregular tail. Probe
 * keys recur under a Zipf distribution, so *partial* temporal
 * correlation exists (hot probe paths repeat; cold ones are
 * effectively compulsory) — the access pattern ISB/MISB's evaluations
 * lean on.
 */
class BTreeProbeKernel final : public Kernel
{
  public:
    struct Params {
        std::uint32_t levels = 4;          ///< tree depth (>= 2)
        std::uint32_t fanout = 16;         ///< children per node
        std::uint64_t keys = 1u << 16;     ///< distinct probe keys
        double zipf_s = 0.8;               ///< probe-key popularity
        /**
         * Fraction of probes that are random point queries; the rest
         * advance a sequential scan cursor (range scans / index scans
         * whose probe order recurs lap after lap).
         */
        double point_query_prob = 0.25;
        std::uint8_t nonmem_min = 6;
        std::uint8_t nonmem_max = 12;
        sim::Addr base = 0x900000000ULL;
        sim::Pc pc_base = 0x480000;
        std::uint64_t seed = 37;
    };

    explicit BTreeProbeKernel(Params p);

    void emit(util::Rng& rng, std::uint64_t seq,
              sim::TraceRecord& out) override;
    void reset() override;
    std::unique_ptr<Kernel> clone() const override;

  private:
    /** Node index visited at @p level for @p key (stable mapping). */
    std::uint64_t node_at(std::uint64_t key, std::uint32_t level) const;

    Params p_;
    util::ZipfDist zipf_;
    std::uint64_t key_ = 0;
    std::uint32_t level_ = 0;
    std::uint64_t scan_cursor_ = 0;
    bool scan_chained_ = false; ///< probe entered via leaf sibling link
    std::vector<std::uint64_t> level_base_; ///< first node id per level
};

/**
 * Small-working-set compute kernel (cache-resident data, bzip2-style):
 * accesses recur heavily inside a footprint comparable to the LLC.
 * Repurposing LLC ways for metadata hurts here — the Figure 8 bzip2
 * case the dynamic partition must avoid (and the static one cannot).
 */
class CacheResidentKernel final : public Kernel
{
  public:
    struct Params {
        std::uint64_t footprint_blocks = 28 * 1024; ///< ~1.75 MB
        std::uint32_t pcs = 6;
        /** Probability of continuing a short sequential run instead of
         *  drawing a fresh Zipf-popular block. */
        double temporal_fraction = 0.5;
        sim::Addr base = 0x800000000ULL;
        sim::Pc pc_base = 0x470000;
        std::uint64_t seed = 31;
    };

    explicit CacheResidentKernel(Params p);

    void emit(util::Rng& rng, std::uint64_t seq,
              sim::TraceRecord& out) override;
    void reset() override;
    std::unique_ptr<Kernel> clone() const override;

  private:
    Params p_;
    util::ZipfDist zipf_;
    std::uint64_t pos_ = 0;
    std::uint64_t last_block_ = 0;
};

} // namespace triage::workloads

#endif // TRIAGE_WORKLOADS_KERNELS_HPP
