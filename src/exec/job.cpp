#include "exec/job.hpp"

#include <sstream>

#include "exec/checkpoint.hpp"
#include "frontend/frontend.hpp"
#include "obs/profile.hpp"
#include "sim/multicore.hpp"
#include "sim/read_ahead.hpp"
#include "sim/system.hpp"
#include "util/log.hpp"
#include "workloads/spec.hpp"

namespace triage::exec {

namespace {

/**
 * Canonical serialization of every MachineConfig field. Keep in sync
 * with sim::MachineConfig: a field missing here would let two distinct
 * machines share a memoization slot.
 */
std::string
fingerprint(const sim::MachineConfig& c)
{
    std::ostringstream os;
    os << c.rob_entries << ',' << c.fetch_width << ',' << c.retire_width
       << ';' << c.l1d.size_bytes << ',' << c.l1d.assoc << ','
       << c.l1d.latency << ';' << c.l2.size_bytes << ',' << c.l2.assoc
       << ',' << c.l2.latency << ';' << c.llc.size_bytes << ','
       << c.llc.assoc << ',' << c.llc.latency << ';'
       << c.llc_extra_latency << ';' << c.dram_channels << ','
       << c.dram_latency << ',' << c.dram_cycles_per_transfer << ','
       << c.dram_prefetch_queue_limit << ';'
       << (c.l1_stride_prefetcher ? 1 : 0) << ';' << c.prefetch_degree
       << ';' << static_cast<int>(c.llc_replacement) << ';'
       << c.l2_mshrs << ';' << (c.model_tlb ? 1 : 0) << ','
       << c.l1_tlb_entries << ',' << c.l2_tlb_entries << ','
       << c.l2_tlb_latency << ',' << c.page_walk_latency;
    return os.str();
}

/**
 * Canonical workload-identity token for one benchmark / mix slot.
 * `trace:` specs resolve through frontend::trace_job_identity so the
 * key carries the concrete format plus the file's byte size — two jobs
 * naming the same path before and after the trace is regenerated must
 * not share memoized results or warm checkpoints.
 */
std::string
workload_token(const std::string& name)
{
    return frontend::is_trace_spec(name)
               ? frontend::trace_job_identity(name)
               : name;
}

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

std::string
JobKey::str() const
{
    std::ostringstream os;
    os << machine << '|' << workload << '|' << pf << "|d" << degree
       << "|r" << replica << "|w" << warmup_records << "|m"
       << measure_records << "|s" << workload_scale;
    // Appended only when set, so every pre-existing key string (and
    // the seeds derived from it) is unchanged.
    if (quantum != 0)
        os << "|q" << quantum;
    return os.str();
}

std::uint64_t
JobKey::hash() const
{
    std::uint64_t h = 0xcbf29ce484222325ULL; // FNV-1a 64
    for (char ch : str()) {
        h ^= static_cast<unsigned char>(ch);
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
JobKey::derived_seed() const
{
    return splitmix64(hash());
}

JobKey
key_of(const Job& job)
{
    const bool has_factory =
        static_cast<bool>(job.prefetcher_factory) ||
        static_cast<bool>(job.workload_factory);
    if (has_factory && job.variant.empty())
        util::fatal("exec::Job with a custom factory needs a unique "
                    "variant tag for its JobKey");
    if (!has_factory && !job.variant.empty())
        util::fatal("exec::Job variant tag set without a factory: '" +
                    job.variant + "'");
    if (job.workload_factory && !job.mix.empty())
        util::fatal("exec::Job workload_factory is single-core only");

    JobKey k;
    k.machine = fingerprint(job.config);
    if (!job.mix.empty()) {
        std::string w = "mix:";
        for (std::size_t c = 0; c < job.mix.size(); ++c) {
            if (c > 0)
                w += ',';
            w += workload_token(job.mix[c]);
        }
        k.workload = w;
    } else if (job.workload_factory) {
        k.workload = "wl:" + job.variant;
    } else {
        if (job.benchmark.empty())
            util::fatal("exec::Job has neither benchmark nor mix");
        k.workload = "bench:" + workload_token(job.benchmark);
    }
    k.pf = job.prefetcher_factory ? job.variant : job.pf_spec;
    k.degree = job.degree;
    k.replica = job.replica;
    k.warmup_records = job.scale.warmup_records;
    k.measure_records = job.scale.measure_records;
    k.workload_scale = job.scale.workload_scale;
    k.quantum = job.quantum;
    return k;
}

JobKey
warm_prefix(const JobKey& key)
{
    JobKey warm = key;
    warm.measure_records = 0;
    return warm;
}

namespace {

/**
 * Reach the warm point: restore it from @p ckpt when a checkpoint for
 * this job's warm prefix exists, otherwise simulate the warmup and,
 * when another job can still fork it (Lease::wanted()), publish the
 * snapshot. @p warm and @p checkpoint run the System-specific
 * run_warmup / checkpoint_warm.
 */
template <typename WarmFn, typename CheckpointFn>
void
warm_with_checkpoint(CheckpointStore* ckpt, const JobKey& key,
                     WarmFn&& warm, CheckpointFn&& checkpoint)
{
    if (ckpt == nullptr) {
        warm();
        return;
    }
    const std::string wk = warm_prefix(key).str();
    CheckpointStore::Lease lease = ckpt->acquire(wk);
    if (lease.hit()) {
        obs::prof::ProfScope prof("snapshot.restore");
        // The store validated the frame; a mismatch here means the
        // blob rotted between acquire and open — fail loudly.
        sim::Snapshot s =
            sim::Snapshot::open_or_die(lease.blob(), CKPT_VERSION, wk);
        checkpoint(s);
        return;
    }
    warm();
    if (!lease.wanted())
        return;
    sim::Snapshot s;
    // Serialize + seal + publish (the publish includes the disk write
    // when a cache dir is configured).
    obs::prof::ProfScope prof("snapshot.save");
    checkpoint(s);
    lease.publish(s.seal(CKPT_VERSION, wk));
}

} // namespace

sim::RunResult
run_job(const Job& job, CheckpointStore* ckpt)
{
    const JobKey key = key_of(job);
    // Replica 0 keeps the benchmark table's canonical seeds (and thus
    // today's published numbers); replicas > 0 get an independent,
    // reproducible stream derived from the key.
    const std::uint64_t jitter =
        job.replica == 0 ? 0 : key.derived_seed();
    const sim::Cycle quantum =
        job.quantum != 0 ? job.quantum : sim::DEFAULT_QUANTUM;

    auto make_pf = [&](unsigned core) {
        return job.prefetcher_factory
                   ? job.prefetcher_factory(core)
                   : stats::make_prefetcher(job.pf_spec, job.degree);
    };

    if (!job.mix.empty()) {
        auto cores = static_cast<unsigned>(job.mix.size());
        sim::MultiCoreSystem sys(job.config, cores);
        sys.set_observability(job.obs);
        for (unsigned c = 0; c < cores; ++c) {
            sys.set_prefetcher(c, make_pf(c));
            auto wl = workloads::make_workload(
                job.mix[c], job.scale.workload_scale, jitter, c);
            if (wl == nullptr)
                util::fatal("exec::Job mix slot " + std::to_string(c) +
                            " failed to open: '" + job.mix[c] + "'");
            // bind() clones, and the clone of a decorated workload is
            // decorated: each core gets its own producer.
            sys.bind(c, sim::ReadAheadWorkload(std::move(wl)));
        }
        warm_with_checkpoint(
            ckpt, key,
            [&] { sys.run_warmup(job.scale.warmup_records, quantum); },
            [&](sim::Snapshot& s) { sys.checkpoint_warm(s); });
        return sys.run_measure(job.scale.measure_records, quantum);
    }

    sim::SingleCoreSystem sys(job.config);
    sys.set_observability(job.obs);
    sys.set_prefetcher(make_pf(0));
    std::unique_ptr<sim::Workload> wl =
        job.workload_factory
            ? job.workload_factory()
            : workloads::make_workload(job.benchmark,
                                       job.scale.workload_scale,
                                       jitter);
    if (wl == nullptr)
        util::fatal("exec::Job workload failed to open ('" +
                    key.workload + "')");
    wl = std::make_unique<sim::ReadAheadWorkload>(std::move(wl));
    wl->reset();
    sys.bind(*wl);
    warm_with_checkpoint(
        ckpt, key,
        [&] { sys.run_warmup(job.scale.warmup_records); },
        [&](sim::Snapshot& s) { sys.checkpoint_warm(s); });
    return sys.run_measure(job.scale.measure_records);
}

sim::RunResult
run_job(const Job& job)
{
    return run_job(job, nullptr);
}

} // namespace triage::exec
