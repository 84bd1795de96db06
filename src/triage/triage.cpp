#include "triage/triage.hpp"

#include <algorithm>

#include "obs/event_trace.hpp"
#include "obs/registry.hpp"
#include "obs/sampler.hpp"

#include "util/log.hpp"

namespace triage::core {

namespace {

MetadataStoreConfig
store_config(const TriageConfig& cfg)
{
    MetadataStoreConfig sc;
    sc.capacity_bytes = cfg.unlimited ? 0 : cfg.static_bytes;
    sc.repl = cfg.repl;
    sc.compressed_tags = cfg.compressed_tags;
    return sc;
}

std::string
config_name(const TriageConfig& cfg)
{
    if (cfg.unlimited)
        return "triage_unlimited";
    if (cfg.dynamic)
        return "triage_dyn";
    if (cfg.static_bytes % (1024 * 1024) == 0)
        return "triage_" +
               std::to_string(cfg.static_bytes / (1024 * 1024)) + "MB";
    return "triage_" + std::to_string(cfg.static_bytes / 1024) + "KB";
}

} // namespace

Triage::Triage(TriageConfig cfg)
    : cfg_(cfg), tu_(TRAINING_UNIT_ENTRIES),
      store_(store_config(cfg)), partition_(cfg.partition),
      name_(config_name(cfg))
{
    if (cfg_.dynamic && !cfg_.unlimited)
        store_.resize(partition_.size_bytes());
}

std::uint64_t
Triage::current_store_bytes() const
{
    return cfg_.unlimited ? 0 : store_.capacity_bytes();
}

void
Triage::ensure_capacity(const prefetch::TrainEvent& ev,
                        prefetch::PrefetchHost& host)
{
    if (capacity_requested_ || cfg_.unlimited ||
        !cfg_.charge_llc_capacity) {
        capacity_requested_ = true;
        return;
    }
    host.request_metadata_capacity(ev.core, current_store_bytes(), ev.now);
    capacity_requested_ = true;
}

std::optional<sim::Addr>
Triage::lookup_next(sim::Addr trigger, unsigned core,
                    prefetch::PrefetchHost& host)
{
    if (cfg_.unlimited) {
        const sim::Addr* next = unlimited_map_.find(trigger);
        if (next == nullptr)
            return std::nullopt;
        return *next;
    }
    ++stats_.meta_onchip_reads;
    host.count_metadata_llc_access(core, false);
    MetaLookup lk = store_.probe(trigger);
    if (!lk.hit)
        return std::nullopt;
    return lk.next;
}

void
Triage::train(const prefetch::TrainEvent& ev, prefetch::PrefetchHost& host)
{
    // Degree 0 means prefetching is off entirely. Return before any
    // metadata work: the old code still issued the first-hop prefetch
    // (the degree bound only limited the d >= 2 chain walk) and
    // charged LLC capacity for the store, so a degree-0 run was not
    // timing-identical to the no-prefetcher baseline — the property
    // the differential suite (tools/diff_fidelity) pins.
    if (cfg_.degree == 0)
        return;
    ++stats_.train_events;
    // Triage trains on L2 misses and prefetched hits (paper Figure 4).
    if (ev.l2_hit && !ev.was_prefetch_hit)
        return;

    ensure_capacity(ev, host);

    // 1-2: probe the metadata with the incoming address and issue a
    // prefetch chain of the configured degree.
    //
    // Visibility (paper Section 3): the Hawkeye machinery trains
    // positively only when the metadata yields a prefetch that misses
    // in the cache. Metadata *misses* stay visible (they are the reuse
    // OPTgen must learn to size the store); hits that produce no
    // memory-bound prefetch — redundant or confidence-muted — are
    // invisible to every trained component.
    bool visible = true;
    MetaLookup first_lk;
    if (cfg_.unlimited) {
        sim::Addr cur = ev.block;
        for (std::uint32_t d = 1; d <= cfg_.degree; ++d) {
            auto next = lookup_next(cur, ev.core, host);
            if (!next.has_value())
                break;
            if (cfg_.track_reuse)
                ++reuse_counts_.ref(cur);
            send(ev, host, *next,
                 ev.now + d * host.llc_latency());
            cur = *next;
        }
    } else {
        ++stats_.meta_onchip_reads;
        host.count_metadata_llc_access(ev.core, false);
        first_lk = store_.probe(ev.block);
        // Only confident links generate prefetches: the 1-bit counter
        // exists precisely to mute entries whose successor is in flux.
        if (first_lk.hit && first_lk.confident) {
            if (cfg_.track_reuse)
                ++reuse_counts_.ref(ev.block);
            prefetch::PfOutcome out =
                send(ev, host, first_lk.next,
                     ev.now + host.llc_latency());
            // The Hawkeye policy is trained positively only when the
            // metadata produced a prefetch that missed in the cache
            // (issued to memory); redundant reuse stays invisible.
            visible = out == prefetch::PfOutcome::IssuedToDram ||
                      out == prefetch::PfOutcome::DroppedBandwidth;
            if (cfg_.dynamic && out == prefetch::PfOutcome::IssuedToDram)
                partition_.note_issued();
            // Walk the chain for higher degrees; deeper lookups are
            // pure probes (latency + energy, no policy training).
            sim::Addr cur = first_lk.next;
            for (std::uint32_t d = 2; d <= cfg_.degree; ++d) {
                auto next = lookup_next(cur, ev.core, host);
                if (!next.has_value())
                    break;
                send(ev, host, *next, ev.now + d * host.llc_latency());
                cur = *next;
            }
        }
        // 4: update replacement state (filtered training).
        store_.commit_access(ev.block, first_lk, ev.pc, visible);
    }

    // 3: training unit pairs this access with the PC's previous one.
    auto prev = tu_.update(ev.pc, ev.block);
    if (prev.has_value()) {
        if (cfg_.unlimited) {
            unlimited_map_.ref(*prev) = ev.block;
        } else {
            ++stats_.meta_onchip_writes;
            host.count_metadata_llc_access(ev.core, true);
            store_.update(*prev, ev.block, ev.pc);
        }
    }

    // 5: periodically recompute the partition (dynamic configuration).
    // Like every other component of the Hawkeye machinery, the OPTgen
    // sandboxes never see metadata reuse whose prefetch was redundant
    // or muted (paper Section 3): a store full of entries that only
    // re-find already-cached lines must look worthless to the size
    // controller. Epochs still advance on every access.
    if (cfg_.dynamic && !cfg_.unlimited) {
        if (partition_.observe(ev.block, visible)) {
            std::uint64_t want = partition_.size_bytes();
            if (want != store_.capacity_bytes()) {
                store_.resize(want);
                if (cfg_.charge_llc_capacity)
                    host.request_metadata_capacity(ev.core, want, ev.now);
            }
        }
    }
}

void
Triage::on_prefetch_used(sim::Addr, sim::Cycle)
{
    // Consumed-prefetch feedback drives the partition's utility gate.
    if (cfg_.dynamic && !cfg_.unlimited)
        partition_.note_useful();
}


void
Triage::register_stats(obs::Registry& reg, const std::string& prefix) const
{
    Prefetcher::register_stats(reg, prefix);

    obs::Scope st(reg, prefix + ".store");
    const MetadataStoreStats* ms = &store_.stats();
    st.bind_counter("lookups", &ms->lookups);
    st.bind_counter("hits", &ms->hits);
    st.bind_counter("updates", &ms->updates);
    st.bind_counter("inserts", &ms->inserts);
    st.bind_counter("evictions", &ms->evictions);
    st.bind_counter("confidence_flips", &ms->confidence_flips);
    st.bind_counter("tag_alias_drops", &ms->tag_alias_drops);
    st.add_formula("hit_rate", [ms] {
        return ms->lookups == 0
                   ? 0.0
                   : static_cast<double>(ms->hits) /
                         static_cast<double>(ms->lookups);
    });
    const MetadataStore* store = &store_;
    st.add_formula("capacity_bytes", [store] {
        return static_cast<double>(store->capacity_bytes());
    });
    st.add_formula("valid_entries", [store] {
        return static_cast<double>(store->valid_entries());
    });

    // Filtered-Hawkeye training stream (owned by the store, so these
    // pointers survive resizes rebuilding the policy object).
    obs::Scope rp(reg, prefix + ".store.repl");
    const cache::ReplStats* rs = &store_.repl_stats();
    rp.bind_counter("visible_events", &rs->visible_events);
    rp.bind_counter("hidden_events", &rs->hidden_events);
    rp.bind_counter("optgen_hits", &rs->optgen_hits);
    rp.bind_counter("optgen_misses", &rs->optgen_misses);
    rp.bind_counter("friendly_inserts", &rs->friendly_inserts);
    rp.bind_counter("averse_inserts", &rs->averse_inserts);
    rp.bind_counter("victim_demotions", &rs->victim_demotions);

    if (cfg_.dynamic && !cfg_.unlimited) {
        obs::Scope pt(reg, prefix + ".partition");
        const PartitionController* pc = &partition_;
        pt.add_formula("level", [pc] {
            return static_cast<double>(pc->level());
        });
        pt.add_formula("size_bytes", [pc] {
            return static_cast<double>(pc->size_bytes());
        });
        pt.add_formula("epochs", [pc] {
            return static_cast<double>(pc->epochs());
        });
        const PartitionDecisionStats* ds = &pc->decision_stats();
        pt.bind_counter("warmup_epochs", &ds->warmup_epochs);
        pt.bind_counter("holds", &ds->holds);
        pt.bind_counter("pending", &ds->pending);
        pt.bind_counter("changes", &ds->changes);
        pt.bind_counter("cooldown_suppressed", &ds->cooldown_suppressed);
        pt.bind_counter("gate_fires", &ds->gate_fires);
    }
}

void
Triage::register_probes(obs::EpochSampler& sampler,
                        const std::string& prefix) const
{
    Prefetcher::register_probes(sampler, prefix);
    const MetadataStoreStats* ms = &store_.stats();
    sampler.add_rate(
        prefix + ".meta_hit_rate",
        [ms] { return static_cast<double>(ms->hits); },
        [ms] { return static_cast<double>(ms->lookups); });
    const MetadataStore* store = &store_;
    sampler.add_level(prefix + ".store_bytes", [store] {
        return static_cast<double>(store->capacity_bytes());
    });
    // Metadata churn: per-epoch deltas of the cumulative store counters
    // show when the table is being rebuilt vs quietly reused.
    sampler.add_delta(prefix + ".store_inserts", [ms] {
        return static_cast<double>(ms->inserts);
    });
    sampler.add_delta(prefix + ".store_evictions", [ms] {
        return static_cast<double>(ms->evictions);
    });
    sampler.add_delta(prefix + ".store_confidence_flips", [ms] {
        return static_cast<double>(ms->confidence_flips);
    });
    sampler.add_delta(prefix + ".store_updates", [ms] {
        return static_cast<double>(ms->updates);
    });
    if (cfg_.dynamic && !cfg_.unlimited) {
        const PartitionController* pc = &partition_;
        sampler.add_level(prefix + ".partition_level", [pc] {
            return static_cast<double>(pc->level());
        });
        // One OPTgen-sandbox hit-rate series per candidate store size.
        for (std::size_t i = 0; i < cfg_.partition.sizes.size(); ++i) {
            std::uint64_t bytes = cfg_.partition.sizes[i];
            std::string label =
                bytes % (1024 * 1024) == 0
                    ? std::to_string(bytes / (1024 * 1024)) + "MB"
                    : std::to_string(bytes / 1024) + "KB";
            sampler.add_level(
                prefix + ".optgen_hit_rate_" + label, [pc, i] {
                    const auto& rates = pc->last_hit_rates();
                    return i < rates.size() ? rates[i] : 0.0;
                });
        }
    }
}

void
Triage::set_trace(obs::EventTrace* trace)
{
    store_.set_trace(trace);
    partition_.set_trace(trace);
}

void
Triage::set_partition_timeline(obs::PartitionTimeline* timeline,
                               unsigned core)
{
    if (cfg_.dynamic && !cfg_.unlimited)
        partition_.set_timeline(timeline, core);
}

std::unique_ptr<Triage>
make_triage_static(std::uint64_t bytes, std::uint32_t degree)
{
    TriageConfig cfg;
    cfg.dynamic = false;
    cfg.static_bytes = bytes;
    cfg.degree = degree;
    return std::make_unique<Triage>(cfg);
}

std::unique_ptr<Triage>
make_triage_dynamic(std::uint32_t degree)
{
    TriageConfig cfg;
    cfg.dynamic = true;
    cfg.degree = degree;
    return std::make_unique<Triage>(cfg);
}

std::unique_ptr<Triage>
make_triage_unlimited(std::uint32_t degree)
{
    TriageConfig cfg;
    cfg.unlimited = true;
    cfg.charge_llc_capacity = false;
    cfg.degree = degree;
    return std::make_unique<Triage>(cfg);
}

} // namespace triage::core
