#include "cache/hierarchy.hpp"

#include <algorithm>

#include "obs/event_trace.hpp"
#include "obs/lifecycle.hpp"
#include "obs/registry.hpp"

#include "replacement/drrip.hpp"
#include "replacement/hawkeye.hpp"
#include "replacement/lru.hpp"
#include "replacement/ship.hpp"
#include "replacement/srrip.hpp"
#include "util/log.hpp"

namespace triage::cache {

std::unique_ptr<ReplacementPolicy>
make_policy(sim::ReplPolicy kind, std::uint32_t sets, std::uint32_t assoc)
{
    switch (kind) {
      case sim::ReplPolicy::Lru:
        return std::make_unique<replacement::Lru>(sets, assoc);
      case sim::ReplPolicy::Srrip:
        return std::make_unique<replacement::Srrip>(sets, assoc);
      case sim::ReplPolicy::Drrip:
        return std::make_unique<replacement::Drrip>(sets, assoc);
      case sim::ReplPolicy::Ship:
        return std::make_unique<replacement::Ship>(sets, assoc);
      case sim::ReplPolicy::Hawkeye:
        return std::make_unique<replacement::Hawkeye>(sets, assoc);
    }
    util::panic("unknown ReplPolicy");
}

namespace {

std::unique_ptr<SetAssocCache>
make_cache(const std::string& name, const sim::CacheConfig& cc,
           sim::ReplPolicy repl = sim::ReplPolicy::Lru)
{
    CacheGeometry geom{name, cc.size_bytes, cc.assoc};
    auto sets = static_cast<std::uint32_t>(
        cc.size_bytes / (sim::BLOCK_SIZE * cc.assoc));
    return std::make_unique<SetAssocCache>(
        geom, make_policy(repl, sets, cc.assoc));
}

} // namespace

MemorySystem::MemorySystem(const sim::MachineConfig& cfg, unsigned n_cores)
    : cfg_(cfg), n_cores_(n_cores), dram_(cfg)
{
    TRIAGE_ASSERT(n_cores >= 1);
    cores_.resize(n_cores);
    for (unsigned c = 0; c < n_cores; ++c) {
        cores_[c].l1 = make_cache("l1d", cfg.l1d);
        cores_[c].l2 = make_cache("l2", cfg.l2);
        if (cfg.l1_stride_prefetcher)
            cores_[c].stride =
                std::make_unique<prefetch::StridePrefetcher>();
        if (cfg.model_tlb) {
            cores_[c].tlb = std::make_unique<sim::Tlb>(
                cfg.l1_tlb_entries, cfg.l2_tlb_entries,
                cfg.l2_tlb_latency, cfg.page_walk_latency);
        }
    }
    sim::CacheConfig shared = cfg.llc;
    shared.size_bytes = cfg.llc.size_bytes * n_cores;
    llc_ = make_cache("llc", shared, cfg.llc_replacement);
}

void
MemorySystem::set_prefetcher(unsigned core,
                             std::unique_ptr<prefetch::Prefetcher> pf)
{
    cores_[core].l2pf = std::move(pf);
}

prefetch::Prefetcher*
MemorySystem::prefetcher(unsigned core)
{
    return cores_[core].l2pf.get();
}

prefetch::StridePrefetcher*
MemorySystem::l1_stride(unsigned core)
{
    return cores_[core].stride.get();
}

sim::Cycle
MemorySystem::llc_latency() const
{
    return cfg_.llc.latency + cfg_.llc_extra_latency;
}

void
MemorySystem::credit_prefetch(unsigned core, sim::Addr block,
                              const LookupResult& r)
{
    if (!r.first_prefetch_use || r.pf_owner == nullptr)
        return;
    ++r.pf_owner->stats().useful;
    if (r.late_prefetch)
        ++r.pf_owner->stats().late;
    if (trace_ != nullptr)
        trace_->emit(obs::EventKind::PrefetchUseful, block,
                     r.late_prefetch ? 1 : 0);
    // Close the lifecycle record, if one is open for this block
    // (stride-owned and warmup-era prefetches have none).
    if (lifecycle_ != nullptr)
        lifecycle_->on_use(core, block, r.late_prefetch);
}

sim::Cycle
MemorySystem::claim_mshr(PerCore& pcs, sim::Cycle issue,
                         sim::Cycle completion_estimate)
{
    if (cfg_.l2_mshrs == 0)
        return issue;
    // Batched drain: retire every fill completed by issue time in one
    // head advance (cache/mshr_queue.hpp).
    pcs.mshrs.retire_until(issue);
    if (pcs.mshrs.size() >= cfg_.l2_mshrs) {
        // Full: the request leaves when the oldest fill returns.
        issue = pcs.mshrs.front();
        pcs.mshrs.pop_front();
    }
    pcs.mshrs.insert(std::max(completion_estimate, issue));
    return issue;
}

void
MemorySystem::lookahead_hint(unsigned core, sim::Addr byte_addr)
{
    PerCore& pcs = cores_[core];
    const sim::Addr block = sim::block_of(byte_addr);
    pcs.l1->prefetch_hint(block);
    pcs.l2->prefetch_hint(block);
    llc_->prefetch_hint(block);
    if (pcs.l2pf != nullptr)
        pcs.l2pf->pre_train_hint(block);
    // Remember the hinted block so the in-access hints (the fallback
    // for drivers without lookahead, e.g. the multicore quantum loop)
    // skip the duplicate work. Host-only state: never checkpointed.
    pcs.hinted_prev = pcs.hinted_block;
    pcs.hinted_block = block;
}

sim::Cycle
MemorySystem::access(unsigned core, sim::Pc pc, sim::Addr byte_addr,
                     bool is_write, sim::Cycle now)
{
    PerCore& pcs = cores_[core];
    sim::Addr block = sim::block_of(byte_addr);

    if (trace_ != nullptr)
        trace_->set_context(now, core);
    if (lifecycle_ != nullptr)
        lifecycle_->set_trigger_pc(pc);

    // Start pulling the host-machine cache lines the miss path will
    // touch — the LLC's tag/stamp rows and the prefetcher's metadata
    // rows — while the TLB/L1/L2 lookups run. On miss-heavy streams
    // (the ones that are slow to simulate) nearly every access reaches
    // those structures; on hit-heavy streams the wasted hints are
    // cheap. Wall-clock only, no simulated effect (docs/performance.md).
    // Skipped when the run loop's one-record lookahead already hinted
    // this block with far more lead time.
    if (block != pcs.hinted_block && block != pcs.hinted_prev) {
        llc_->prefetch_hint(block);
        if (pcs.l2pf != nullptr)
            pcs.l2pf->pre_train_hint(block);
    }

    // Address translation (optional Table 1 TLBs): latency only.
    if (pcs.tlb != nullptr)
        now += pcs.tlb->access(byte_addr);

    // L1D.
    LookupResult r1 = pcs.l1->access(block, pc, now, is_write);
    if (pcs.stride != nullptr) {
        prefetch::TrainEvent l1ev{pc, block, now, core, is_write,
                                  r1.hit, false};
        pcs.stride->train(l1ev, *this);
    }
    if (r1.hit) {
        sim::Cycle done = now + cfg_.l1d.latency;
        return std::max(done, r1.ready_time);
    }

    // L2: the prefetcher training stream.
    LookupResult r2 = pcs.l2->access(block, pc, now, is_write);
    sim::Cycle completion;
    prefetch::TrainEvent ev{pc,       block, now,
                            core,     is_write, r2.hit,
                            r2.first_prefetch_use};
    if (r2.hit) {
        credit_prefetch(core, block, r2);
        completion = std::max(now + cfg_.l2.latency, r2.ready_time);
    } else {
        completion = fetch_into_l2(core, pc, block, now, false, nullptr,
                                   nullptr);
    }
    if (pcs.l2pf != nullptr)
        pcs.l2pf->train(ev, *this);

    // Fill L1 (write-allocate); L1 victims write back into L2.
    Eviction e1 = pcs.l1->insert(block, pc, completion, is_write, false);
    if (e1.valid && e1.dirty) {
        if (!pcs.l2->mark_dirty(e1.block))
            writeback_to_llc(e1.block, now);
    }
    return completion;
}

sim::Cycle
MemorySystem::fetch_into_l2(unsigned core, sim::Pc pc, sim::Addr block,
                            sim::Cycle now, bool is_prefetch,
                            prefetch::Prefetcher* owner,
                            prefetch::PfOutcome* outcome)
{
    PerCore& pcs = cores_[core];
    sim::Cycle completion;

    // LLC probe.
    LookupResult r3 = llc_->access(block, pc, now, false, is_prefetch);
    if (r3.hit) {
        completion = std::max(now + llc_latency(), r3.ready_time);
        if (outcome != nullptr)
            *outcome = prefetch::PfOutcome::FilledFromLlc;
    } else {
        // Request leaves the chip after the LLC lookup.
        sim::Cycle issue = now + llc_latency();
        if (is_prefetch) {
            // Prefetches never stall on MSHRs; a full file drops them.
            if (cfg_.l2_mshrs != 0) {
                pcs.mshrs.retire_until(issue);
                if (pcs.mshrs.size() >= cfg_.l2_mshrs) {
                    if (outcome != nullptr)
                        *outcome = prefetch::PfOutcome::DroppedBandwidth;
                    return 0;
                }
            }
            completion = dram_.prefetch_read(block, issue);
            if (completion == 0) {
                if (outcome != nullptr)
                    *outcome = prefetch::PfOutcome::DroppedBandwidth;
                return 0;
            }
            if (cfg_.l2_mshrs != 0)
                pcs.mshrs.insert(completion);
        } else {
            issue = claim_mshr(pcs, issue, issue + cfg_.dram_latency);
            completion = dram_.demand_read(block, issue);
        }
        if (outcome != nullptr)
            *outcome = prefetch::PfOutcome::IssuedToDram;
        Eviction ev = llc_->insert(block, pc, completion, false,
                                   is_prefetch, owner);
        if (ev.valid && ev.dirty)
            dram_.writeback(ev.block, now);
    }

    Eviction e2 = pcs.l2->insert(block, pc, completion, false, is_prefetch,
                                 owner);
    if (e2.valid && e2.dirty)
        writeback_to_llc(e2.block, now);
    // A still-unused prefetched victim closes its lifecycle record as
    // early-evicted (absent records — e.g. warmup-era — are ignored).
    if (lifecycle_ != nullptr && e2.valid && e2.prefetched)
        lifecycle_->on_evict(core, e2.block);
    if (pcs.l2pf != nullptr)
        pcs.l2pf->on_fill(block, completion, is_prefetch);
    return completion;
}

void
MemorySystem::writeback_to_llc(sim::Addr block, sim::Cycle now)
{
    if (llc_->mark_dirty(block))
        return;
    // Non-inclusive victim fill: install the dirty block in the LLC.
    Eviction ev = llc_->insert(block, 0, now, true, false);
    if (ev.valid && ev.dirty)
        dram_.writeback(ev.block, now);
}

prefetch::PfOutcome
MemorySystem::issue_prefetch(unsigned core, sim::Addr block,
                             sim::Cycle when, prefetch::Prefetcher* owner)
{
    PerCore& pcs = cores_[core];
    if (trace_ != nullptr)
        trace_->set_context(when, core);
    if (pcs.l2->contains(block)) {
        if (trace_ != nullptr)
            trace_->emit(obs::EventKind::PrefetchRedundant, block);
        return prefetch::PfOutcome::RedundantL2;
    }
    prefetch::PfOutcome outcome = prefetch::PfOutcome::RedundantL2;
    fetch_into_l2(core, 0, block, when, true, owner, &outcome);
    // Lifecycle tracking covers the L2 prefetcher under test only:
    // owner-less direct issues and the L1 stride are excluded so class
    // counts reconcile against that prefetcher's issued aggregate.
    if (lifecycle_ != nullptr && owner != nullptr &&
        owner != static_cast<prefetch::Prefetcher*>(pcs.stride.get())) {
        switch (outcome) {
          case prefetch::PfOutcome::IssuedToDram:
          case prefetch::PfOutcome::FilledFromLlc:
            lifecycle_->on_issue(core, block);
            break;
          case prefetch::PfOutcome::DroppedBandwidth:
            lifecycle_->on_drop(core);
            break;
          default:
            break;
        }
    }
    if (trace_ != nullptr) {
        switch (outcome) {
          case prefetch::PfOutcome::IssuedToDram:
            trace_->emit(obs::EventKind::PrefetchIssued, block, 0);
            break;
          case prefetch::PfOutcome::FilledFromLlc:
            trace_->emit(obs::EventKind::PrefetchIssued, block, 1);
            break;
          case prefetch::PfOutcome::DroppedBandwidth:
            trace_->emit(obs::EventKind::PrefetchDropped, block);
            break;
          default:
            trace_->emit(obs::EventKind::PrefetchRedundant, block);
            break;
        }
    }
    return outcome;
}

void
MemorySystem::count_metadata_llc_access(unsigned core, bool is_write)
{
    ++cores_[core].energy.onchip_accesses;
    (void)is_write;
}

sim::Cycle
MemorySystem::offchip_metadata_access(unsigned core, sim::Cycle now,
                                      std::uint32_t bytes, bool is_write,
                                      bool charge_time)
{
    cores_[core].energy.offchip_accesses +=
        (bytes + sim::BLOCK_SIZE - 1) / sim::BLOCK_SIZE;
    return dram_.metadata_access(now, bytes, is_write, charge_time);
}

void
MemorySystem::request_metadata_capacity(unsigned core, std::uint64_t bytes,
                                        sim::Cycle now)
{
    PerCore& pcs = cores_[core];
    if (pcs.meta_bytes == bytes)
        return;
    pcs.meta_bytes = bytes;
    apply_partition(now);
}

void
MemorySystem::apply_partition(sim::Cycle now)
{
    const std::uint64_t way_bytes = cfg_.llc_way_bytes(n_cores_);
    std::uint64_t total_bytes = 0;
    for (const auto& c : cores_)
        total_bytes += c.meta_bytes;
    auto meta_ways = static_cast<std::uint32_t>(
        (total_bytes + way_bytes - 1) / way_bytes);
    // At most half the LLC may hold metadata (Section 4.5).
    meta_ways = std::min(meta_ways, llc_->assoc() / 2);
    std::uint32_t new_data_ways = llc_->assoc() - meta_ways;

    if (new_data_ways != llc_->data_ways()) {
        std::uint64_t flushed = 0;
        llc_->set_data_ways(new_data_ways, &flushed);
        // Flushed dirty lines consume writeback bandwidth. The flush is
        // spread over the following epoch in reality; we charge the
        // traffic in full but reserve only a bounded number of slots so
        // a repartition does not serialize the channel for megacycles.
        std::uint64_t reserved = std::min<std::uint64_t>(flushed, 256);
        for (std::uint64_t i = 0; i < reserved; ++i)
            dram_.writeback(i, now);
        if (flushed > reserved) {
            // Remaining bytes: traffic counted, no reservation.
            dram_.account_traffic(sim::TrafficClass::Writeback,
                                  (flushed - reserved) * sim::BLOCK_SIZE);
        }
    }

    // Update per-core time-weighted way attribution. Cores advance in
    // quanta, so a repartition can be timestamped slightly before a
    // previous one observed from another core; clamp rather than wrap.
    for (auto& c : cores_) {
        if (now > c.way_since) {
            c.way_integral +=
                c.ways_now * static_cast<double>(now - c.way_since);
            c.way_since = now;
        }
        c.ways_now = way_bytes == 0
                         ? 0.0
                         : static_cast<double>(c.meta_bytes) /
                               static_cast<double>(way_bytes);
    }
}

const MetadataEnergy&
MemorySystem::metadata_energy(unsigned core) const
{
    return cores_[core].energy;
}

std::uint32_t
MemorySystem::metadata_ways() const
{
    return llc_->assoc() - llc_->data_ways();
}

std::uint64_t
MemorySystem::metadata_bytes(unsigned core) const
{
    return cores_[core].meta_bytes;
}

double
MemorySystem::avg_metadata_ways(unsigned core, sim::Cycle end_cycle) const
{
    const PerCore& c = cores_[core];
    double integral = c.way_integral;
    if (end_cycle > c.way_since) {
        integral +=
            c.ways_now * static_cast<double>(end_cycle - c.way_since);
    }
    if (end_cycle <= stats_epoch_start_)
        return c.ways_now;
    double span = static_cast<double>(end_cycle - stats_epoch_start_);
    return std::min(integral / span,
                    static_cast<double>(llc_->assoc()));
}

void
MemorySystem::clear_stats(sim::Cycle now)
{
    for (auto& c : cores_) {
        c.l1->clear_stats();
        c.l2->clear_stats();
        if (c.stride)
            c.stride->clear_stats();
        if (c.l2pf)
            c.l2pf->clear_stats();
        c.energy = {};
        c.way_integral = 0.0;
        c.way_since = now;
    }
    llc_->clear_stats();
    dram_.clear_traffic();
    stats_epoch_start_ = now;
}

void
MemorySystem::register_stats(obs::Registry& reg) const
{
    for (unsigned c = 0; c < n_cores_; ++c) {
        const PerCore& pcs = cores_[c];
        const std::string base = "core" + std::to_string(c);
        pcs.l1->register_stats(reg, base + ".l1");
        pcs.l2->register_stats(reg, base + ".l2");
        if (pcs.tlb)
            pcs.tlb->register_stats(reg, base + ".tlb");
        if (pcs.stride)
            pcs.stride->register_stats(reg, base + ".stride");
        if (pcs.l2pf)
            pcs.l2pf->register_stats(reg, base + ".pf");
        obs::Scope s(reg, base + ".meta");
        s.bind_counter("onchip_accesses", &pcs.energy.onchip_accesses);
        s.bind_counter("offchip_accesses", &pcs.energy.offchip_accesses);
        s.bind_counter("capacity_bytes", &pcs.meta_bytes);
        const PerCore* pp = &pcs;
        s.add_formula("ways_now", [pp] { return pp->ways_now; });
        s.add_formula("energy_units",
                      [pp] { return pp->energy.units(); });
    }
    llc_->register_stats(reg, "llc");
    dram_.register_stats(reg, "dram");
    const SetAssocCache* llc = llc_.get();
    reg.add_formula("llc.metadata_ways", [llc] {
        return static_cast<double>(llc->assoc() - llc->data_ways());
    });
    reg.add_formula("llc.data_ways", [llc] {
        return static_cast<double>(llc->data_ways());
    });
}

void
MemorySystem::set_trace(obs::EventTrace* trace)
{
    trace_ = trace;
    for (auto& c : cores_) {
        if (c.l2pf)
            c.l2pf->set_trace(trace);
        if (c.stride)
            c.stride->set_trace(trace);
    }
}

PfOwnerCodec
MemorySystem::pf_owner_codec()
{
    PfOwnerCodec codec;
    for (auto& c : cores_) {
        if (c.stride)
            c.stride->enumerate(codec.owners);
        if (c.l2pf)
            c.l2pf->enumerate(codec.owners);
    }
    return codec;
}

void
MemorySystem::checkpoint(sim::Snapshot& s)
{
    const PfOwnerCodec codec = pf_owner_codec();
    s.section("mem");
    for (auto& c : cores_) {
        c.l1->checkpoint(s, codec);
        c.l2->checkpoint(s, codec);
        if (c.stride)
            c.stride->checkpoint(s);
        // Presence of the L2 prefetcher and TLB is fixed by the job
        // spec / machine config, which the snapshot fingerprint pins.
        if (c.l2pf)
            c.l2pf->checkpoint(s);
        if (c.tlb)
            c.tlb->checkpoint(s);
        s.section("mem.core");
        c.mshrs.checkpoint(s);
        s.io_pod(c.energy);
        s.io(c.meta_bytes);
        s.io(c.way_integral);
        s.io(c.way_since);
        s.io(c.ways_now);
    }
    llc_->checkpoint(s, codec);
    dram_.checkpoint(s);
    s.io(stats_epoch_start_);
}

} // namespace triage::cache
