/**
 * @file
 * check_stats_json — validate a triagesim --stats-json report.
 *
 * Exits non-zero (with a message per failure) unless the file is valid
 * JSON with the expected structure:
 *
 *   - "schema_version" is a positive integer;
 *   - "run.cores" is a non-empty array whose entries carry the summary
 *     metrics (ipc, coverage, accuracy, meta_ways);
 *   - with --require-epochs: "epochs" is a non-empty array of closed
 *     epochs with monotonically advancing [begin, end) intervals and
 *     finite values, each carrying the per-epoch IPC / coverage /
 *     accuracy / metadata-hit-rate / way-allocation probes;
 *   - with --require-stats: "stats" is a non-empty object (the
 *     hierarchical registry dump) containing a few load-bearing paths;
 *   - with --require-lifecycle: "lifecycle" carries one class-count
 *     object per run core, the classes sum exactly to issued, issued
 *     matches run.cores[i].pf_issued, and the top-PC attribution
 *     tables are arrays;
 *   - with --require-partition-timeline: "partition_timeline" is an
 *     object with a numeric "dropped" and one per-core sample array
 *     (possibly empty) of well-formed, epoch-monotonic samples;
 *   - with --require-profile: "profile" is the host profiler block
 *     (wall/attributed seconds, a non-empty phase table with warmup
 *     and measure phases, checkpoint and read-ahead counters, worker
 *     rows);
 *     --min-attributed=F additionally requires attributed_frac >= F;
 *   - each --require-key=PATH names a dotted path that must exist.
 *
 * A second mode, --perfetto, validates a --trace-perfetto output
 * instead: "traceEvents" must be a non-empty array of well-formed
 * Chrome trace events containing at least one epoch span and one
 * partition instant; --expect-workers=N additionally requires at
 * least N lab worker tracks (pid 1 tids) that carry a job span, and
 * --expect-profile requires host-profiler phase slices (pid 4).
 *
 * A third mode, --golden=FILE, compares the input against a checked-in
 * golden dump: every leaf (numbers exact, strings, bools) must match,
 * arrays must have equal lengths and objects equal key sets. This is
 * the bit-identity proof the hot-path work rests on — see
 * docs/performance.md.
 *
 * A fourth mode, --bench, validates a hotpath_throughput trajectory
 * (BENCH_hotpath.json): a non-empty "runs" array whose entries carry a
 * label, a mode, and finite positive throughput numbers per result.
 *
 * Used by the ctest smoke tests (tests/CMakeLists.txt) to pin the
 * structured-output contract.
 */
#include <cmath>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "util/parse_number.hpp"

using triage::obs::json::Value;

namespace {

int g_failures = 0;

void
fail(const std::string& msg)
{
    std::cerr << "FAIL: " << msg << "\n";
    ++g_failures;
}

/** Per-epoch probe keys the acceptance contract requires for core 0. */
const char* const EPOCH_KEYS[] = {
    "core0.ipc",
    "core0.coverage",
    "core0.pf.accuracy",
    "core0.pf.meta_hit_rate",
    "core0.meta_ways",
};

void
check_schema(const Value& root)
{
    const Value* v = root.get("schema_version");
    if (v == nullptr || !v->is_number() || !(v->number >= 1.0) ||
        v->number != std::floor(v->number))
        fail("schema_version missing or not a positive integer");
}

void
check_run(const Value& root)
{
    const Value* cores = root.find_path("run.cores");
    if (cores == nullptr || !cores->is_array() || cores->array.empty()) {
        fail("run.cores missing or empty");
        return;
    }
    for (std::size_t c = 0; c < cores->array.size(); ++c) {
        const Value& core = cores->array[c];
        for (const char* key :
             {"ipc", "coverage", "accuracy", "meta_ways", "cycles"}) {
            const Value* v = core.get(key);
            if (v == nullptr || !v->is_number() ||
                !std::isfinite(v->number)) {
                fail("run.cores[" + std::to_string(c) + "]." + key +
                     " missing or not a finite number");
            }
        }
    }
    const Value* ipc = cores->array[0].get("ipc");
    if (ipc != nullptr && ipc->is_number() && ipc->number <= 0.0)
        fail("run.cores[0].ipc is not positive");
}

void
check_epochs(const Value& root)
{
    const Value* epochs = root.get("epochs");
    if (epochs == nullptr || !epochs->is_array()) {
        fail("epochs missing or not an array");
        return;
    }
    if (epochs->array.empty()) {
        fail("epochs array is empty");
        return;
    }
    double prev_end = -1.0;
    for (std::size_t i = 0; i < epochs->array.size(); ++i) {
        const Value& e = epochs->array[i];
        const std::string tag = "epochs[" + std::to_string(i) + "]";
        const Value* begin = e.get("begin");
        const Value* end = e.get("end");
        if (begin == nullptr || end == nullptr || !begin->is_number() ||
            !end->is_number()) {
            fail(tag + " lacks numeric begin/end");
            continue;
        }
        if (end->number <= begin->number)
            fail(tag + " has end <= begin");
        if (prev_end >= 0.0 && begin->number != prev_end)
            fail(tag + " does not start where the previous epoch ended");
        prev_end = end->number;
        for (const char* key : EPOCH_KEYS) {
            const Value* v = e.get(key);
            if (v == nullptr || !v->is_number() ||
                !std::isfinite(v->number)) {
                fail(tag + " lacks finite probe '" + key + "'");
            }
        }
    }
}

/** Sum-to-issued contract for one lifecycle class-count object. */
void
check_lifecycle_counts(const Value& counts, const std::string& tag,
                       double expect_issued)
{
    for (const char* key : {"issued", "accurate", "late", "early_evicted",
                            "useless", "dropped"}) {
        const Value* v = counts.get(key);
        if (v == nullptr || !v->is_number()) {
            fail(tag + "." + key + " missing or not a number");
            return;
        }
    }
    double sum = counts.get("accurate")->number +
                 counts.get("late")->number +
                 counts.get("early_evicted")->number +
                 counts.get("useless")->number;
    double issued = counts.get("issued")->number;
    if (sum != issued) {
        fail(tag + ": classes sum to " + std::to_string(sum) +
             " but issued is " + std::to_string(issued));
    }
    if (expect_issued >= 0.0 && issued != expect_issued) {
        fail(tag + ": issued " + std::to_string(issued) +
             " does not match run pf_issued " +
             std::to_string(expect_issued));
    }
}

void
check_lifecycle(const Value& root)
{
    const Value* lc = root.get("lifecycle");
    if (lc == nullptr || !lc->is_object()) {
        fail("lifecycle missing or not an object");
        return;
    }
    const Value* cores = lc->get("cores");
    const Value* run_cores = root.find_path("run.cores");
    if (cores == nullptr || !cores->is_array() || cores->array.empty()) {
        fail("lifecycle.cores missing or empty");
        return;
    }
    if (run_cores != nullptr && run_cores->is_array() &&
        cores->array.size() != run_cores->array.size()) {
        fail("lifecycle.cores length does not match run.cores");
    }
    for (std::size_t c = 0; c < cores->array.size(); ++c) {
        double expect = -1.0;
        if (run_cores != nullptr && c < run_cores->array.size()) {
            const Value* pi = run_cores->array[c].get("pf_issued");
            if (pi != nullptr && pi->is_number())
                expect = pi->number;
        }
        check_lifecycle_counts(cores->array[c],
                               "lifecycle.cores[" + std::to_string(c) + "]",
                               expect);
    }
    const Value* total = lc->get("total");
    if (total == nullptr || !total->is_object())
        fail("lifecycle.total missing");
    else
        check_lifecycle_counts(*total, "lifecycle.total", -1.0);
    const Value* open = lc->get("open");
    if (open == nullptr || !open->is_number() || open->number != 0.0)
        fail("lifecycle.open missing or non-zero after finalize");
    for (const char* key :
         {"top_pcs_by_coverage", "top_pcs_by_pollution"}) {
        const Value* t = lc->get(key);
        if (t == nullptr || !t->is_array()) {
            fail(std::string("lifecycle.") + key + " missing or not array");
            continue;
        }
        for (std::size_t i = 0; i < t->array.size(); ++i) {
            const Value& row = t->array[i];
            if (row.get("pc") == nullptr || row.get("counts") == nullptr)
                fail(std::string("lifecycle.") + key + "[" +
                     std::to_string(i) + "] lacks pc/counts");
        }
    }
}

void
check_partition_timeline(const Value& root)
{
    const Value* pt = root.get("partition_timeline");
    if (pt == nullptr || !pt->is_object()) {
        fail("partition_timeline missing or not an object");
        return;
    }
    const Value* dropped = pt->get("dropped");
    if (dropped == nullptr || !dropped->is_number())
        fail("partition_timeline.dropped missing or not a number");
    const Value* cores = pt->get("cores");
    if (cores == nullptr || !cores->is_array()) {
        fail("partition_timeline.cores missing or not an array");
        return;
    }
    for (std::size_t c = 0; c < cores->array.size(); ++c) {
        const Value& samples = cores->array[c];
        const std::string tag =
            "partition_timeline.cores[" + std::to_string(c) + "]";
        if (!samples.is_array()) {
            fail(tag + " is not an array");
            continue;
        }
        double prev_epoch = 0.0;
        for (std::size_t i = 0; i < samples.array.size(); ++i) {
            const Value& s = samples.array[i];
            const std::string stag = tag + "[" + std::to_string(i) + "]";
            for (const char* key :
                 {"epoch", "level", "verdict", "size_bytes"}) {
                const Value* v = s.get(key);
                if (v == nullptr || !v->is_number())
                    fail(stag + "." + key + " missing or not a number");
            }
            const Value* event = s.get("event");
            if (event == nullptr || !event->is_string())
                fail(stag + ".event missing or not a string");
            const Value* rates = s.get("hit_rates");
            if (rates == nullptr || !rates->is_array())
                fail(stag + ".hit_rates missing or not an array");
            const Value* epoch = s.get("epoch");
            if (epoch != nullptr && epoch->is_number()) {
                if (epoch->number <= prev_epoch)
                    fail(stag + ".epoch not strictly increasing");
                prev_epoch = epoch->number;
            }
        }
    }
}

/**
 * Validate the host-profiler block written by triagesim --profile.
 * @p min_attributed < 0 skips the attribution-floor check.
 */
void
check_profile(const Value& root, double min_attributed)
{
    const Value* p = root.get("profile");
    if (p == nullptr || !p->is_object()) {
        fail("profile block missing — rerun triagesim with --profile");
        return;
    }
    const Value* enabled = p->get("enabled");
    if (enabled == nullptr || !enabled->is_bool() || !enabled->boolean)
        fail("profile.enabled missing or false");
    for (const char* key :
         {"wall_seconds", "attributed_seconds", "attributed_frac"}) {
        const Value* v = p->get(key);
        if (v == nullptr || !v->is_number() ||
            !std::isfinite(v->number) || v->number < 0.0)
            fail(std::string("profile.") + key +
                 " missing or not a finite non-negative number");
    }
    const Value* wall = p->get("wall_seconds");
    if (wall != nullptr && wall->is_number() && wall->number <= 0.0)
        fail("profile.wall_seconds is not positive");
    if (min_attributed >= 0.0) {
        const Value* frac = p->get("attributed_frac");
        if (frac != nullptr && frac->is_number() &&
            frac->number < min_attributed) {
            fail("profile.attributed_frac " +
                 std::to_string(frac->number) + " < required " +
                 std::to_string(min_attributed));
        }
    }

    const Value* phases = p->get("phases");
    if (phases == nullptr || !phases->is_object() ||
        phases->object.empty()) {
        fail("profile.phases missing or empty");
        return;
    }
    bool saw_warmup = false;
    bool saw_measure = false;
    for (const auto& [name, ph] : phases->object) {
        const std::string tag = "profile.phases['" + name + "']";
        if (!ph.is_object()) {
            fail(tag + " not an object");
            continue;
        }
        const Value* count = ph.get("count");
        if (count == nullptr || !count->is_number() ||
            count->number <= 0.0)
            fail(tag + ".count missing or not positive");
        const Value* seconds = ph.get("seconds");
        if (seconds == nullptr || !seconds->is_number() ||
            !std::isfinite(seconds->number) || seconds->number < 0.0)
            fail(tag + ".seconds missing or not a finite non-negative "
                       "number");
        // Phase keys are dotted call paths ("job.measure.epoch");
        // warmup and measure must appear somewhere in the tree.
        if (name == "warmup" ||
            (name.size() >= 7 &&
             name.compare(name.size() - 7, 7, ".warmup") == 0))
            saw_warmup = true;
        if (name == "measure" ||
            (name.size() >= 8 &&
             name.compare(name.size() - 8, 8, ".measure") == 0))
            saw_measure = true;
    }
    if (!saw_warmup)
        fail("profile.phases has no warmup phase");
    if (!saw_measure)
        fail("profile.phases has no measure phase");

    // Summary counter groups: every key a finite non-negative number.
    auto require_counters = [&](const std::string& group, const char* what,
                                std::initializer_list<const char*> keys) {
        const std::string path = "profile.counters." + group;
        const Value* g = root.find_path(path);
        if (g == nullptr || !g->is_object()) {
            fail(path + " missing (" + what + ")");
            return;
        }
        for (const char* key : keys) {
            const Value* v = g->get(key);
            if (v == nullptr || !v->is_number() ||
                !std::isfinite(v->number) || v->number < 0.0)
                fail(path + "." + key +
                     " missing or not a finite non-negative number");
        }
    };
    require_counters("ckpt", "Lab checkpoint telemetry",
                     {"mem_hits", "disk_hits", "misses", "produces",
                      "skipped", "waits", "evictions",
                      "lease_wait_seconds", "bytes_published", "bytes_mem",
                      "bytes_disk_read", "bytes_disk_written"});
    require_counters("readahead", "record read-ahead telemetry",
                     {"wait_ns", "records", "discarded"});

    const Value* workers = p->get("workers");
    if (workers == nullptr || !workers->is_array() ||
        workers->array.empty()) {
        fail("profile.workers missing or empty");
    } else {
        for (std::size_t i = 0; i < workers->array.size(); ++i) {
            const Value& w = workers->array[i];
            const std::string tag =
                "profile.workers[" + std::to_string(i) + "]";
            for (const char* key :
                 {"worker", "jobs", "busy_seconds", "peak_rss_kb"}) {
                const Value* v = w.get(key);
                if (v == nullptr || !v->is_number() ||
                    !std::isfinite(v->number) || v->number < 0.0)
                    fail(tag + "." + key +
                         " missing or not a finite non-negative "
                         "number");
            }
        }
    }
}

/** Validate a --trace-perfetto Chrome trace-event file. */
void
check_perfetto(const Value& root, unsigned expect_workers,
               bool expect_profile)
{
    const Value* events = root.get("traceEvents");
    if (events == nullptr || !events->is_array() ||
        events->array.empty()) {
        fail("traceEvents missing or empty");
        return;
    }
    bool saw_epoch = false;
    bool saw_partition = false;
    bool saw_prof_slice = false;
    std::set<double> worker_tids; ///< pid-1 tracks with a job span
    for (std::size_t i = 0; i < events->array.size(); ++i) {
        const Value& e = events->array[i];
        const std::string tag = "traceEvents[" + std::to_string(i) + "]";
        const Value* name = e.get("name");
        const Value* ph = e.get("ph");
        if (name == nullptr || !name->is_string() || ph == nullptr ||
            !ph->is_string()) {
            fail(tag + " lacks string name/ph");
            continue;
        }
        const Value* pid = e.get("pid");
        const Value* tid = e.get("tid");
        if (pid == nullptr || !pid->is_number() || tid == nullptr ||
            !tid->is_number())
            fail(tag + " lacks numeric pid/tid");
        if (ph->str != "M") {
            const Value* ts = e.get("ts");
            if (ts == nullptr || !ts->is_number())
                fail(tag + " lacks numeric ts");
        }
        if (name->str.rfind("epoch", 0) == 0)
            saw_epoch = true;
        if (name->str.rfind("partition", 0) == 0)
            saw_partition = true;
        if (ph->str == "X" && pid != nullptr && pid->is_number() &&
            pid->number == 1.0 && tid != nullptr && tid->is_number())
            worker_tids.insert(tid->number);
        // Host profiler track is pid 4 (see obs/perfetto.hpp).
        if (pid != nullptr && pid->is_number() && pid->number == 4.0 &&
            ph->str == "X")
            saw_prof_slice = true;
    }
    if (!saw_epoch)
        fail("no epoch event in traceEvents");
    if (!saw_partition)
        fail("no partition event in traceEvents");
    if (expect_workers > 0 && worker_tids.size() < expect_workers) {
        fail("expected >= " + std::to_string(expect_workers) +
             " lab worker tracks with a job span, found " +
             std::to_string(worker_tids.size()));
    }
    if (expect_profile && !saw_prof_slice)
        fail("no host-profiler phase slice (pid 4) in traceEvents");
}

/** Type name for golden-mismatch messages. */
const char*
type_name(const Value& v)
{
    switch (v.type) {
      case Value::Type::Null: return "null";
      case Value::Type::Bool: return "bool";
      case Value::Type::Number: return "number";
      case Value::Type::String: return "string";
      case Value::Type::Array: return "array";
      case Value::Type::Object: return "object";
    }
    return "?";
}

/**
 * Exact structural comparison for --golden: every counter and formula
 * in the actual dump must equal the golden one bit-for-bit. Failure
 * output is capped so a systemic divergence stays readable.
 */
void
compare_golden(const Value& actual, const Value& golden,
               const std::string& path)
{
    constexpr int MAX_REPORTED = 50;
    if (g_failures >= MAX_REPORTED)
        return;
    if (actual.type != golden.type) {
        fail(path + ": type " + type_name(actual) + " != golden " +
             type_name(golden));
        return;
    }
    switch (actual.type) {
      case Value::Type::Null:
        break;
      case Value::Type::Bool:
        if (actual.boolean != golden.boolean)
            fail(path + ": bool mismatch");
        break;
      case Value::Type::Number:
        if (actual.number != golden.number) {
            std::ostringstream os;
            os << path << ": " << actual.number << " != golden "
               << golden.number;
            fail(os.str());
        }
        break;
      case Value::Type::String:
        if (actual.str != golden.str)
            fail(path + ": '" + actual.str + "' != golden '" +
                 golden.str + "'");
        break;
      case Value::Type::Array:
        if (actual.array.size() != golden.array.size()) {
            fail(path + ": array length " +
                 std::to_string(actual.array.size()) + " != golden " +
                 std::to_string(golden.array.size()));
            return;
        }
        for (std::size_t i = 0; i < actual.array.size(); ++i)
            compare_golden(actual.array[i], golden.array[i],
                           path + "[" + std::to_string(i) + "]");
        break;
      case Value::Type::Object:
        for (const auto& [key, gv] : golden.object) {
            auto it = actual.object.find(key);
            if (it == actual.object.end()) {
                fail(path + "." + key + ": missing (present in golden)");
                continue;
            }
            compare_golden(it->second, gv, path + "." + key);
        }
        for (const auto& [key, av] : actual.object) {
            (void)av;
            if (golden.object.find(key) == golden.object.end())
                fail(path + "." + key + ": extra key absent from golden");
        }
        break;
    }
}

/** Validate a hotpath_throughput trajectory file (--bench). */
void
check_bench(const Value& root)
{
    const Value* runs = root.get("runs");
    if (runs == nullptr || !runs->is_array() || runs->array.empty()) {
        fail("runs missing or empty");
        return;
    }
    for (std::size_t i = 0; i < runs->array.size(); ++i) {
        const Value& run = runs->array[i];
        const std::string tag = "runs[" + std::to_string(i) + "]";
        const Value* label = run.get("label");
        if (label == nullptr || !label->is_string() || label->str.empty())
            fail(tag + ".label missing or empty");
        const Value* mode = run.get("mode");
        if (mode == nullptr || !mode->is_string() ||
            (mode->str != "full" && mode->str != "smoke"))
            fail(tag + ".mode must be 'full' or 'smoke'");
        // Legacy field: which counter backend produced the hw rates
        // (the "hotpath-v2" entry only; the bench no longer writes
        // it). Constrained when present.
        if (const Value* hb = run.get("hw_backend"); hb != nullptr) {
            if (!hb->is_string() ||
                (hb->str != "perf_event" && hb->str != "software"))
                fail(tag + ".hw_backend must be 'perf_event' or "
                           "'software'");
        }
        // Newer runs carry the end-to-end sweep wall clock (cold vs
        // checkpoint-forked); absent on pre-checkpoint trajectory
        // entries, validated whenever present.
        if (const Value* sw = run.get("sweep_wallclock");
            sw != nullptr) {
            const std::string stag = tag + ".sweep_wallclock";
            if (!sw->is_object()) {
                fail(stag + " not an object");
            } else {
                const Value* name = sw->get("sweep");
                if (name == nullptr || !name->is_string() ||
                    name->str.empty())
                    fail(stag + ".sweep missing or empty");
                for (const char* key :
                     {"jobs", "cold_seconds", "ckpt_seconds",
                      "speedup"}) {
                    const Value* v = sw->get(key);
                    if (v == nullptr || !v->is_number() ||
                        !std::isfinite(v->number) || v->number <= 0.0)
                        fail(stag + "." + key +
                             " missing or not a finite positive "
                             "number");
                }
            }
        }
        const Value* results = run.get("results");
        if (results == nullptr || !results->is_array() ||
            results->array.empty()) {
            fail(tag + ".results missing or empty");
            continue;
        }
        for (std::size_t j = 0; j < results->array.size(); ++j) {
            const Value& r = results->array[j];
            const std::string rtag =
                tag + ".results[" + std::to_string(j) + "]";
            for (const char* key : {"config", "workload"}) {
                const Value* v = r.get(key);
                if (v == nullptr || !v->is_string() || v->str.empty())
                    fail(rtag + "." + key + " missing or empty");
            }
            for (const char* key :
                 {"cores", "accesses", "seconds", "accesses_per_sec",
                  "ns_per_access"}) {
                const Value* v = r.get(key);
                if (v == nullptr || !v->is_number() ||
                    !std::isfinite(v->number) || v->number <= 0.0)
                    fail(rtag + "." + key +
                         " missing or not a finite positive number");
            }
            // Rep spread (hot-path v2 onwards): median protocol rows
            // carry min/max/reps, and the median must sit inside the
            // spread. Absent on older best-of entries.
            const Value* reps = r.get("reps");
            if (reps != nullptr) {
                if (!reps->is_number() || reps->number < 1.0)
                    fail(rtag + ".reps must be a positive count");
                const Value* lo = r.get("seconds_min");
                const Value* hi = r.get("seconds_max");
                const Value* med = r.get("seconds");
                if (lo == nullptr || hi == nullptr ||
                    !lo->is_number() || !hi->is_number()) {
                    fail(rtag + ": reps present but seconds_min/"
                                "seconds_max missing");
                } else if (med != nullptr && med->is_number() &&
                           (med->number < lo->number ||
                            med->number > hi->number)) {
                    fail(rtag + ": seconds (median) outside "
                                "[seconds_min, seconds_max]");
                }
            }
            // Legacy hardware-counter rates ("host-profiling" and
            // "hotpath-v2" entries only; the bench no longer writes
            // them), validated whenever
            // present. An instruction rate must be positive: a 0 was
            // the artifact of a counter group that never ran.
            if (const Value* v = r.get("cycles_per_access");
                v != nullptr) {
                if (!v->is_number() || !std::isfinite(v->number) ||
                    v->number < 0.0)
                    fail(rtag + ".cycles_per_access not a finite "
                                "non-negative number");
            }
            if (const Value* v = r.get("instructions_per_access");
                v != nullptr) {
                if (!v->is_number() || !std::isfinite(v->number) ||
                    v->number <= 0.0)
                    fail(rtag + ".instructions_per_access must be "
                                "positive when present (a 0 means the "
                                "counter group never scheduled)");
            }
        }
    }
}

void
check_stats(const Value& root)
{
    const Value* st = root.get("stats");
    if (st == nullptr || !st->is_object() || st->object.empty()) {
        fail("stats missing or empty");
        return;
    }
    for (const char* path :
         {"stats.llc.demand_misses", "stats.dram.total_bytes",
          "stats.core0.ipc", "stats.llc.metadata_ways"}) {
        const Value* v = root.find_path(path);
        if (v == nullptr || !v->is_number())
            fail(std::string(path) + " missing or not a number");
    }
}

void
check_verify(const Value& root)
{
    const Value* v = root.get("verify");
    if (v == nullptr || !v->is_object()) {
        fail("verify block missing — rerun triagesim with --verify");
        return;
    }
    const Value* checks = v->get("checks");
    if (checks == nullptr || !checks->is_number() ||
        checks->number <= 0.0)
        fail("verify.checks missing or zero — no invariants ran");
    const Value* viol = v->get("violations");
    if (viol == nullptr || !viol->is_number()) {
        fail("verify.violations missing or not a number");
    } else if (viol->number != 0.0) {
        fail("verify.violations is " +
             std::to_string(static_cast<long long>(viol->number)) +
             ", expected 0");
    }
}

} // namespace

int
main(int argc, char** argv)
{
    std::string path;
    bool require_epochs = false;
    bool require_stats = false;
    bool require_lifecycle = false;
    bool require_partition_timeline = false;
    bool require_verify_clean = false;
    bool require_profile = false;
    double min_attributed = -1.0;
    bool perfetto = false;
    bool expect_profile = false;
    bool bench = false;
    std::string golden_path;
    unsigned expect_workers = 0;
    std::vector<std::string> require_keys;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--require-epochs") {
            require_epochs = true;
        } else if (a == "--require-stats") {
            require_stats = true;
        } else if (a == "--require-lifecycle") {
            require_lifecycle = true;
        } else if (a == "--require-partition-timeline") {
            require_partition_timeline = true;
        } else if (a == "--require-verify-clean") {
            require_verify_clean = true;
        } else if (a == "--require-profile") {
            require_profile = true;
        } else if (a.rfind("--min-attributed=", 0) == 0) {
            if (!triage::util::parse_number(
                    "check_stats_json", "min-attributed",
                    a.substr(std::strlen("--min-attributed=")),
                    min_attributed))
                return 2;
        } else if (a == "--perfetto") {
            perfetto = true;
        } else if (a == "--expect-profile") {
            expect_profile = true;
        } else if (a == "--bench") {
            bench = true;
        } else if (a.rfind("--golden=", 0) == 0) {
            golden_path = a.substr(std::strlen("--golden="));
        } else if (a.rfind("--expect-workers=", 0) == 0) {
            if (!triage::util::parse_number(
                    "check_stats_json", "expect-workers",
                    a.substr(std::strlen("--expect-workers=")),
                    expect_workers))
                return 2;
        } else if (a.rfind("--require-key=", 0) == 0) {
            require_keys.push_back(a.substr(std::strlen("--require-key=")));
        } else if (!a.empty() && a[0] != '-') {
            path = a;
        } else {
            std::cerr << "usage: check_stats_json FILE [--require-epochs]"
                         " [--require-stats] [--require-lifecycle]"
                         " [--require-partition-timeline]"
                         " [--require-verify-clean]"
                         " [--require-profile [--min-attributed=F]]"
                         " [--require-key=PATH]...\n"
                         "       check_stats_json FILE --perfetto"
                         " [--expect-workers=N] [--expect-profile]\n"
                         "       check_stats_json FILE --golden=GOLDEN\n"
                         "       check_stats_json FILE --bench\n";
            return 2;
        }
    }
    if (path.empty()) {
        std::cerr << "check_stats_json: no input file\n";
        return 2;
    }

    std::ifstream f(path);
    if (!f) {
        std::cerr << "check_stats_json: cannot read " << path << "\n";
        return 2;
    }
    std::ostringstream buf;
    buf << f.rdbuf();
    std::string err;
    auto root = triage::obs::json::parse(buf.str(), &err);
    if (!root.has_value()) {
        std::cerr << "check_stats_json: " << path << ": " << err << "\n";
        return 1;
    }

    if (!golden_path.empty()) {
        std::ifstream gf(golden_path);
        if (!gf) {
            std::cerr << "check_stats_json: cannot read " << golden_path
                      << "\n";
            return 2;
        }
        std::ostringstream gbuf;
        gbuf << gf.rdbuf();
        auto golden = triage::obs::json::parse(gbuf.str(), &err);
        if (!golden.has_value()) {
            std::cerr << "check_stats_json: " << golden_path << ": "
                      << err << "\n";
            return 1;
        }
        compare_golden(*root, *golden, "$");
    } else if (bench) {
        check_bench(*root);
    } else if (perfetto) {
        check_perfetto(*root, expect_workers, expect_profile);
    } else {
        check_schema(*root);
        check_run(*root);
        if (require_epochs)
            check_epochs(*root);
        if (require_stats)
            check_stats(*root);
        if (require_lifecycle)
            check_lifecycle(*root);
        if (require_partition_timeline)
            check_partition_timeline(*root);
        if (require_verify_clean)
            check_verify(*root);
        if (require_profile)
            check_profile(*root, min_attributed);
        for (const auto& key : require_keys) {
            if (root->find_path(key) == nullptr)
                fail("required key '" + key + "' missing");
        }
    }

    if (g_failures > 0) {
        std::cerr << path << ": " << g_failures << " check(s) failed\n";
        return 1;
    }
    std::cout << path << ": OK\n";
    return 0;
}
