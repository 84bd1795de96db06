#include "workloads/kernels.hpp"

#include <algorithm>

#include "util/bitops.hpp"
#include "util/log.hpp"

namespace triage::workloads {

namespace {

std::uint8_t
jitter(util::Rng& rng, std::uint8_t lo, std::uint8_t hi)
{
    if (hi <= lo)
        return lo;
    return static_cast<std::uint8_t>(lo + rng.next_below(hi - lo + 1));
}

} // namespace

// --------------------------------------------------------------------
// PointerChaseKernel
// --------------------------------------------------------------------

PointerChaseKernel::PointerChaseKernel(Params p)
    : p_(p), mutate_rng_(p.seed * 977 + 5),
      chain_zipf_(p.chains, p.chain_skew)
{
    TRIAGE_ASSERT(p_.chains >= 1);
    TRIAGE_ASSERT(p_.nodes >= p_.chains * 2);
    build();
}

void
PointerChaseKernel::build()
{
    // Split the node space into one shuffled cycle per chain, so every
    // chain revisits the same node order lap after lap.
    next_.assign(p_.nodes, 0);
    cur_.assign(p_.chains, 0);
    last_seq_.assign(p_.chains, 0);
    util::Rng build_rng(p_.seed);
    std::uint32_t seg = p_.nodes / p_.chains;
    for (std::uint32_t c = 0; c < p_.chains; ++c) {
        std::uint32_t lo = c * seg;
        std::vector<std::uint32_t> order(seg);
        for (std::uint32_t i = 0; i < seg; ++i)
            order[i] = lo + i;
        build_rng.shuffle(order);
        for (std::uint32_t i = 0; i + 1 < seg; ++i)
            next_[order[i]] = order[i + 1];
        next_[order[seg - 1]] = order[0];
        cur_[c] = order[0];
    }
    rr_ = 0;
    fresh_ = true;
}

void
PointerChaseKernel::reset()
{
    // Only emit() moves the cursors, relinks the network or draws from
    // mutate_rng_, so an untouched kernel needs no second shuffle.
    if (fresh_)
        return;
    mutate_rng_ = util::Rng(p_.seed * 977 + 5);
    build();
}

std::unique_ptr<Kernel>
PointerChaseKernel::clone() const
{
    auto copy = std::make_unique<PointerChaseKernel>(*this);
    copy->reset();
    return copy;
}

void
PointerChaseKernel::emit(util::Rng& rng, std::uint64_t seq,
                         sim::TraceRecord& out)
{
    fresh_ = false;
    std::uint32_t c;
    if (p_.chain_skew > 0.0 && p_.chains > 1) {
        c = static_cast<std::uint32_t>(
            rng.next_zipf(chain_zipf_));
    } else {
        c = rr_;
        rr_ = (rr_ + 1) % p_.chains;
    }

    std::uint32_t node = cur_[c];
    out.pc = p_.pc_base + c * 4;
    out.addr = p_.base + static_cast<sim::Addr>(node) * sim::BLOCK_SIZE;
    out.is_write = false;
    out.nonmem_before = jitter(rng, p_.nonmem_min, p_.nonmem_max);
    std::uint64_t gap = seq - last_seq_[c];
    out.dep_distance = (last_seq_[c] != 0 && gap <= 1000)
                           ? static_cast<std::uint16_t>(gap)
                           : 0;
    last_seq_[c] = seq;

    cur_[c] = next_[node];
    // The walk is DRAM-latency bound on this dependent load; request
    // the successor's line now so the next visit to this chain (at
    // least one emit away) finds it resident.
    __builtin_prefetch(&next_[cur_[c]]);

    if (p_.mutate_prob > 0 && mutate_rng_.chance(p_.mutate_prob)) {
        // Relink two nodes in this chain's segment: successors change,
        // exercising confidence bits and replacement.
        std::uint32_t seg = p_.nodes / p_.chains;
        std::uint32_t lo = c * seg;
        std::uint32_t a = lo + mutate_rng_.next_below(seg);
        std::uint32_t b = lo + mutate_rng_.next_below(seg);
        std::swap(next_[a], next_[b]);
    }
}

// --------------------------------------------------------------------
// RepeatedScanKernel
// --------------------------------------------------------------------

RepeatedScanKernel::RepeatedScanKernel(Params p) : p_(p)
{
    TRIAGE_ASSERT(p_.entries > 0 && p_.pcs > 0);
    TRIAGE_ASSERT(util::is_pow2(p_.space_blocks),
                  "scan space must be a power of two (bijective walk)");
}

sim::Addr
RepeatedScanKernel::addr_at(std::uint64_t i) const
{
    // A *bijective* pseudo-random walk of the block space: position i
    // maps to a unique block, so each trigger has a unique successor
    // (real PC-localized streams rarely alias) and every pass replays
    // identical correlations. Multiply-xorshift-multiply by odd
    // constants is invertible modulo a power of two.
    std::uint64_t mask = p_.space_blocks - 1;
    std::uint64_t x = (i + p_.seed) & mask;
    x = (x * 0x9E3779B97F4A7C15ULL) & mask;
    x ^= x >> 7;
    x = (x * 0xC2B2AE3D27D4EB4FULL) & mask;
    x &= mask;
    return p_.base + x * sim::BLOCK_SIZE;
}

void
RepeatedScanKernel::reset()
{
    pos_ = 0;
}

std::unique_ptr<Kernel>
RepeatedScanKernel::clone() const
{
    auto k = std::make_unique<RepeatedScanKernel>(p_);
    return k;
}

void
RepeatedScanKernel::emit(util::Rng& rng, std::uint64_t, sim::TraceRecord& out)
{
    std::uint64_t i = pos_ % p_.entries;
    out.pc = p_.pc_base + (i % p_.pcs) * 4;
    out.addr = addr_at(i);
    out.is_write = false;
    out.nonmem_before = jitter(rng, p_.nonmem_min, p_.nonmem_max);
    out.dep_distance = 0;
    ++pos_;
}

// --------------------------------------------------------------------
// SparseMatVecKernel
// --------------------------------------------------------------------

SparseMatVecKernel::SparseMatVecKernel(Params p) : p_(p)
{
    TRIAGE_ASSERT(p_.rows > 0 && p_.nnz_per_row > 0);
}

std::uint32_t
SparseMatVecKernel::col_of(std::uint64_t flat_index) const
{
    // Bijective when rows*nnz_per_row == x_blocks (the benchmark table
    // keeps them equal): each dense-vector block is gathered exactly
    // once per pass, with a stable successor across passes.
    std::uint64_t mask = p_.x_blocks - 1;
    std::uint64_t x = (flat_index ^ p_.seed) & mask;
    x = (x * 0x9E3779B97F4A7C15ULL) & mask;
    x ^= x >> 6;
    x = (x * 0xC2B2AE3D27D4EB4FULL) & mask;
    return static_cast<std::uint32_t>(x & mask);
}

void
SparseMatVecKernel::reset()
{
    row_ = 0;
    k_ = 0;
    phase_ = 0;
}

std::unique_ptr<Kernel>
SparseMatVecKernel::clone() const
{
    return std::make_unique<SparseMatVecKernel>(p_);
}

void
SparseMatVecKernel::emit(util::Rng& rng, std::uint64_t,
                         sim::TraceRecord& out)
{
    const sim::Addr col_array = p_.base;
    const sim::Addr x_array = p_.base + (1ULL << 32);
    std::uint64_t flat =
        static_cast<std::uint64_t>(row_) * p_.nnz_per_row + k_;
    out.is_write = false;
    out.dep_distance = 0;
    out.nonmem_before = jitter(rng, p_.nonmem_min, p_.nonmem_max);
    if (phase_ == 0) {
        // Stream through the column-index array (16 indices per line).
        out.pc = p_.pc_base;
        out.addr = col_array + (flat / 16) * sim::BLOCK_SIZE;
        phase_ = 1;
        return;
    }
    // Gather x[col]: depends on the col-index load just issued, and
    // sometimes on the previous gather (serialized accumulation).
    out.pc = p_.pc_base + 4;
    out.addr = x_array +
               static_cast<sim::Addr>(col_of(flat)) * sim::BLOCK_SIZE;
    out.dep_distance =
        rng.chance(p_.serial_prob) ? 2 : 1;
    phase_ = 0;
    if (++k_ >= p_.nnz_per_row) {
        k_ = 0;
        row_ = (row_ + 1) % p_.rows;
    }
}

// --------------------------------------------------------------------
// GraphWalkKernel
// --------------------------------------------------------------------

GraphWalkKernel::GraphWalkKernel(Params p) : p_(p)
{
    TRIAGE_ASSERT(p_.nodes > 0 && p_.degree > 0);
    TRIAGE_ASSERT(util::is_pow2(p_.nodes),
                  "graph nodes must be a power of two (bijective order)");
}

std::uint32_t
GraphWalkKernel::order_at(std::uint32_t i) const
{
    // Fixed pseudo-random visitation order, bijective over the node
    // set: every node is visited exactly once per pass, so node and
    // edge streams have unique, stable successors.
    std::uint64_t mask = p_.nodes - 1;
    std::uint64_t x = (i + p_.seed * 31) & mask;
    x = (x * 0x9E3779B97F4A7C15ULL) & mask;
    x ^= x >> 5;
    x = (x * 0xC2B2AE3D27D4EB4FULL) & mask;
    return static_cast<std::uint32_t>(x & mask);
}

std::uint32_t
GraphWalkKernel::edge_target(std::uint32_t node, std::uint32_t e) const
{
    // Per-edge payload index, bijective over nodes*degree: spatially
    // irregular but temporally unique (an edge-weights array walked in
    // traversal order), the pattern temporal prefetchers can learn and
    // spatial ones cannot.
    std::uint64_t flat =
        static_cast<std::uint64_t>(node) * p_.degree + e;
    std::uint64_t span =
        static_cast<std::uint64_t>(p_.nodes) * p_.degree;
    std::uint64_t x = (flat * 0x9E3779B97F4A7C15ULL + p_.seed * 101) %
                      span;
    return static_cast<std::uint32_t>(x);
}

void
GraphWalkKernel::reset()
{
    visit_ = 0;
    edge_ = 0;
    phase_ = 0;
}

std::unique_ptr<Kernel>
GraphWalkKernel::clone() const
{
    return std::make_unique<GraphWalkKernel>(p_);
}

void
GraphWalkKernel::emit(util::Rng& rng, std::uint64_t, sim::TraceRecord& out)
{
    const sim::Addr node_array = p_.base;
    const sim::Addr edge_array = p_.base + (1ULL << 33);
    const sim::Addr data_array = p_.base + (1ULL << 34);
    std::uint32_t node = order_at(visit_);
    out.is_write = false;
    out.dep_distance = 0;
    out.nonmem_before = jitter(rng, 6, 12);
    switch (phase_) {
      case 0: // node record
        out.pc = p_.pc_base;
        out.addr = node_array +
                   static_cast<sim::Addr>(node) * sim::BLOCK_SIZE;
        phase_ = 1;
        edge_ = 0;
        return;
      case 1: // edge list (sequential within the node)
        out.pc = p_.pc_base + 4;
        out.addr = edge_array +
                   (static_cast<sim::Addr>(node) * p_.degree + edge_) /
                       8 * sim::BLOCK_SIZE;
        phase_ = 2;
        return;
      default: // edge payload (irregular, fixed per edge)
        out.pc = p_.pc_base + 8;
        out.addr = data_array +
                   static_cast<sim::Addr>(edge_target(node, edge_)) *
                       sim::BLOCK_SIZE;
        out.dep_distance = 1; // depends on the edge-list load
        if (++edge_ >= p_.degree) {
            phase_ = 0;
            visit_ = (visit_ + 1) % p_.nodes;
        } else {
            phase_ = 1;
        }
        return;
    }
}

// --------------------------------------------------------------------
// StreamingKernel
// --------------------------------------------------------------------

StreamingKernel::StreamingKernel(Params p) : p_(p)
{
    TRIAGE_ASSERT(p_.arrays > 0 && p_.window_blocks > 0);
}

void
StreamingKernel::reset()
{
    arr_ = 0;
    idx_ = 0;
    pass_ = 0;
}

std::unique_ptr<Kernel>
StreamingKernel::clone() const
{
    return std::make_unique<StreamingKernel>(p_);
}

void
StreamingKernel::emit(util::Rng& rng, std::uint64_t, sim::TraceRecord& out)
{
    std::uint64_t start = (pass_ * p_.shift_per_pass) % p_.array_blocks;
    std::uint64_t block =
        (start + idx_ * p_.stride_blocks) % p_.array_blocks;
    out.pc = p_.pc_base + arr_ * 4;
    out.addr = p_.base + (static_cast<sim::Addr>(arr_) << 36) +
               block * sim::BLOCK_SIZE;
    out.is_write = rng.chance(p_.store_ratio);
    out.nonmem_before = jitter(rng, p_.nonmem_min, p_.nonmem_max);
    out.dep_distance = 0;

    arr_ = (arr_ + 1) % p_.arrays;
    if (arr_ == 0) {
        if (++idx_ >= p_.window_blocks) {
            idx_ = 0;
            ++pass_;
        }
    }
}

// --------------------------------------------------------------------
// FootprintKernel
// --------------------------------------------------------------------

FootprintKernel::FootprintKernel(Params p) : p_(p)
{
    TRIAGE_ASSERT(p_.region_blocks <= 32);
    // Pre-generate the distinct footprint shapes.
    util::Rng shape_rng(p_.seed);
    patterns_.resize(p_.patterns);
    for (auto& pat : patterns_) {
        pat = 0;
        for (std::uint32_t b = 0; b < p_.region_blocks; ++b) {
            if (shape_rng.chance(p_.density))
                pat |= 1u << b;
        }
        if (pat == 0)
            pat = 1;
    }
}

std::uint32_t
FootprintKernel::pattern_of(std::uint64_t region) const
{
    return static_cast<std::uint32_t>(util::mix64(region * 3 + p_.seed) %
                                      p_.patterns);
}

void
FootprintKernel::reset()
{
    visit_ = 0;
    region_ = 0;
    bit_ = 0;
    pass_ = 0;
}

std::unique_ptr<Kernel>
FootprintKernel::clone() const
{
    return std::make_unique<FootprintKernel>(p_);
}

void
FootprintKernel::emit(util::Rng& rng, std::uint64_t, sim::TraceRecord& out)
{
    std::uint32_t pat = patterns_[pattern_of(region_)];
    // Find the next touched block of the current region.
    while (bit_ < p_.region_blocks && (pat & (1u << bit_)) == 0)
        ++bit_;
    if (bit_ >= p_.region_blocks) {
        // Move to the next region: either a recurring order or a fresh
        // (compulsory) one, depending on configuration.
        ++visit_;
        std::uint64_t index = p_.recur
                                  ? visit_ % p_.regions
                                  : visit_ + pass_ * p_.regions;
        region_ = util::mix64(index ^ (p_.seed << 1)) % p_.regions +
                  (p_.recur ? 0 : (visit_ / p_.regions) * p_.regions);
        bit_ = 0;
        pat = patterns_[pattern_of(region_)];
        while (bit_ < p_.region_blocks && (pat & (1u << bit_)) == 0)
            ++bit_;
    }
    // The trigger PC is stable per pattern: SMS correlates (pc, offset)
    // with the footprint.
    out.pc = p_.pc_base + (pattern_of(region_) % 8) * 4;
    out.addr = p_.base + (region_ * p_.region_blocks + bit_) *
                             sim::BLOCK_SIZE;
    out.is_write = false;
    out.nonmem_before = jitter(rng, 4, 8);
    out.dep_distance = 0;
    ++bit_;
}

// --------------------------------------------------------------------
// ZipfHashKernel
// --------------------------------------------------------------------

ZipfHashKernel::ZipfHashKernel(Params p)
    : p_(p), zipf_(p.buckets, p.zipf_s)
{
    TRIAGE_ASSERT(p_.buckets > 1 && p_.probe_blocks >= 1);
}

void
ZipfHashKernel::reset()
{
    bucket_ = 0;
    step_ = 0;
}

std::unique_ptr<Kernel>
ZipfHashKernel::clone() const
{
    return std::make_unique<ZipfHashKernel>(p_);
}

void
ZipfHashKernel::emit(util::Rng& rng, std::uint64_t, sim::TraceRecord& out)
{
    if (step_ == 0) {
        // Popularity-ranked bucket, then scatter ranks over the table.
        std::uint64_t rank = rng.next_zipf(zipf_);
        bucket_ = util::mix64(rank * 11 + p_.seed) % p_.buckets;
    }
    out.pc = p_.pc_base + step_ * 4;
    out.addr = p_.base +
               (bucket_ * p_.probe_blocks + step_) * sim::BLOCK_SIZE;
    out.is_write = false;
    out.nonmem_before = jitter(rng, 6, 12);
    out.dep_distance = step_ == 0 ? 0 : 1;
    if (++step_ >= p_.probe_blocks)
        step_ = 0;
}

// --------------------------------------------------------------------
// CacheResidentKernel
// --------------------------------------------------------------------

CacheResidentKernel::CacheResidentKernel(Params p)
    : p_(p), zipf_(p.footprint_blocks, 0.6)
{
    TRIAGE_ASSERT(p_.footprint_blocks > 0 && p_.pcs > 0);
}

void
CacheResidentKernel::reset()
{
    pos_ = 0;
}

std::unique_ptr<Kernel>
CacheResidentKernel::clone() const
{
    return std::make_unique<CacheResidentKernel>(p_);
}

void
CacheResidentKernel::emit(util::Rng& rng, std::uint64_t,
                          sim::TraceRecord& out)
{
    std::uint64_t block;
    if (pos_ != 0 && rng.chance(p_.temporal_fraction)) {
        // Short spatial run: continue from the previous block (table
        // rows, neighbouring tree nodes). Gives stride/BO something
        // real to chew on without temporal correlation.
        block = (last_block_ + 1) % p_.footprint_blocks;
    } else {
        // Zipf-weighted reuse over the resident set: hot entries are
        // re-touched constantly, cold ones rarely — a *smooth* miss
        // curve under shrinking capacity (real table-driven codes
        // degrade gradually, not over a cliff), and a visit order that
        // never recurs, so temporal prefetchers find nothing stable.
        std::uint64_t rank = rng.next_zipf(zipf_);
        block = util::mix64(rank * 131 + p_.seed) % p_.footprint_blocks;
    }
    last_block_ = block;
    ++pos_;
    out.pc = p_.pc_base + (block % p_.pcs) * 4;
    out.addr = p_.base + block * sim::BLOCK_SIZE;
    out.is_write = rng.chance(0.15);
    out.nonmem_before = jitter(rng, 4, 10);
    out.dep_distance = 0;
}

// --------------------------------------------------------------------
// BTreeProbeKernel
// --------------------------------------------------------------------

BTreeProbeKernel::BTreeProbeKernel(Params p)
    : p_(p), zipf_(p.keys, p.zipf_s)
{
    TRIAGE_ASSERT(p_.levels >= 2 && p_.fanout >= 2);
    // Node-id space: level l holds fanout^l nodes (capped so deep
    // trees do not overflow); level_base_[l] is the first id.
    level_base_.resize(p_.levels);
    std::uint64_t base_id = 0;
    std::uint64_t width = 1;
    for (std::uint32_t l = 0; l < p_.levels; ++l) {
        level_base_[l] = base_id;
        base_id += width;
        if (width < (1ULL << 40) / p_.fanout)
            width *= p_.fanout;
    }
}

std::uint64_t
BTreeProbeKernel::node_at(std::uint64_t key, std::uint32_t level) const
{
    if (level == 0)
        return level_base_[0]; // the root
    // The path is a stable function of the key: the same key always
    // walks the same nodes (what a real search does).
    std::uint64_t width = 1;
    for (std::uint32_t l = 0; l < level; ++l)
        width = std::min<std::uint64_t>(width * p_.fanout, 1ULL << 40);
    return level_base_[level] +
           util::mix64(key * 131 + level + p_.seed) % width;
}

void
BTreeProbeKernel::reset()
{
    key_ = 0;
    level_ = 0;
    scan_cursor_ = 0;
}

std::unique_ptr<Kernel>
BTreeProbeKernel::clone() const
{
    return std::make_unique<BTreeProbeKernel>(p_);
}

void
BTreeProbeKernel::emit(util::Rng& rng, std::uint64_t,
                       sim::TraceRecord& out)
{
    if (level_ == 0) {
        if (rng.chance(p_.point_query_prob)) {
            // Point query: Zipf-popular key scattered over id space.
            std::uint64_t rank = rng.next_zipf(zipf_);
            key_ = util::mix64(rank * 17 + p_.seed) % p_.keys;
        } else {
            // Index scan: the probe order recurs lap after lap, which
            // is what a temporal prefetcher can learn.
            key_ = scan_cursor_;
            scan_cursor_ = (scan_cursor_ + 1) % p_.keys;
            scan_chained_ = true;
        }
    }
    // One traversal loop = one load PC for every level (the realistic
    // shape); PC-localized pairs then chain root -> inner -> leaf of
    // the same probe, which recurs for hot keys.
    out.pc = p_.pc_base;
    out.addr = p_.base + node_at(key_, level_) * sim::BLOCK_SIZE;
    out.is_write = false;
    out.nonmem_before = jitter(rng, p_.nonmem_min, p_.nonmem_max);
    // Each level's node address comes from the previous node's child
    // pointer: a true dependent chain. Scan probes additionally chase
    // the previous probe's leaf sibling pointer (B+-tree leaf chain),
    // so consecutive scan probes serialize end to end.
    if (level_ == 0)
        out.dep_distance = scan_chained_ ? 1 : 0;
    else
        out.dep_distance = 1;
    if (++level_ >= p_.levels) {
        level_ = 0;
        scan_chained_ = false;
    }
}

} // namespace triage::workloads
