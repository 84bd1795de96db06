#include "stats/report.hpp"

#include <ostream>

#include "obs/json.hpp"
#include "obs/observer.hpp"
#include "obs/profile.hpp"

namespace triage::stats {

void
write_json(obs::json::Writer& w, const sim::RunResult& r)
{
    w.begin_object().key("cores").begin_array();
    for (const auto& s : r.per_core) {
        w.begin_object(false).field("ipc", s.ipc());
        w.field("instructions", s.instructions).field("cycles", s.cycles);
        w.field("mem_records", s.mem_records);
        w.field("l1_misses", s.l1.demand_misses);
        w.field("l2_misses", s.l2.demand_misses);
        w.field("coverage", s.coverage()).field("accuracy", s.accuracy());
        w.field("pf_issued", s.l2pf.issued());
        w.field("pf_useful", s.l2pf.useful).field("pf_late", s.l2pf.late);
        w.field("pf_dropped", s.l2pf.dropped);
        w.field("meta_onchip", s.energy.onchip_accesses);
        w.field("meta_offchip", s.energy.offchip_accesses);
        w.field("meta_ways", s.avg_metadata_ways).end();
    }
    w.end().key("llc").begin_object(false);
    w.field("demand_hits", r.llc.demand_hits);
    w.field("demand_misses", r.llc.demand_misses).end();
    const auto& t = r.traffic;
    w.key("traffic").begin_object(false);
    w.field("demand", t.of(sim::TrafficClass::DemandRead));
    w.field("prefetch", t.of(sim::TrafficClass::PrefetchRead));
    w.field("writeback", t.of(sim::TrafficClass::Writeback));
    w.field("metadata_read", t.of(sim::TrafficClass::MetadataRead));
    w.field("metadata_write", t.of(sim::TrafficClass::MetadataWrite));
    w.field("total", t.total()).end();
    w.field("span_cycles", r.span).end();
}

void
write_stats_json(std::ostream& os, const sim::RunResult& r,
                 const obs::Observability* obs)
{
    obs::json::Writer w(os);
    w.begin_object().field("schema_version", STATS_SCHEMA_VERSION);
    w.key("run");
    write_json(w, r);
    if (obs != nullptr) {
        w.key("epochs");
        obs->sampler.write_json(w);
        w.key("stats");
        obs->registry.write_json(w);
        if (obs->lifecycle.enabled()) {
            w.key("lifecycle");
            obs->lifecycle.write_json(w);
        }
        if (obs->partition_timeline.num_cores() > 0) {
            w.key("partition_timeline");
            obs->partition_timeline.write_json(w);
        }
        w.key("trace").begin_object(false);
        w.field("enabled", obs->trace.enabled());
        w.field("total", obs->trace.total());
        w.field("buffered", obs->trace.size());
        w.field("dropped", obs->trace.dropped()).end();
        if (obs->verifier != nullptr) {
            w.key("verify");
            obs->verifier->write_json(w);
        }
    }
    // Strictly gated on the profiler being armed: golden runs compare
    // the whole JSON tree byte-for-byte, so the block must not appear
    // unless --profile asked for it.
    if (obs::prof::Profiler::armed()) {
        w.key("profile");
        obs::prof::Profiler::instance().write_json(w);
    }
    w.end();
    os << '\n';
}

} // namespace triage::stats
