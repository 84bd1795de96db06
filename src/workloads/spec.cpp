#include "workloads/spec.hpp"

#include <cmath>
#include <functional>
#include <unordered_map>

#include "frontend/frontend.hpp"
#include "util/bitops.hpp"
#include "util/log.hpp"

namespace triage::workloads {

namespace {

using Builder =
    std::function<std::vector<WeightedKernel>(std::uint64_t seed)>;

struct BenchmarkSpec {
    std::uint64_t length; ///< memory references per pass at scale 1.0
    Builder build;
};

std::uint64_t
seed_of(const std::string& name)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (char c : name)
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
    return h | 1;
}

// Kernel-parameter helpers. Address bases are spaced so kernels never
// overlap; PC bases likewise.

PointerChaseKernel::Params
chase(std::uint32_t nodes, std::uint32_t chains, double mutate,
      double skew, std::uint64_t seed)
{
    PointerChaseKernel::Params p;
    p.nodes = nodes;
    p.chains = chains;
    p.mutate_prob = mutate;
    p.chain_skew = skew;
    p.seed = seed;
    return p;
}

RepeatedScanKernel::Params
scan(std::uint32_t entries, std::uint32_t space, std::uint32_t pcs,
     std::uint64_t seed)
{
    RepeatedScanKernel::Params p;
    p.entries = entries;
    p.space_blocks = space;
    p.pcs = pcs;
    p.seed = seed;
    return p;
}

StreamingKernel::Params
stream(std::uint32_t arrays, std::uint64_t window, std::uint32_t stride,
       std::uint64_t shift, std::uint64_t seed)
{
    StreamingKernel::Params p;
    p.arrays = arrays;
    p.window_blocks = window;
    p.stride_blocks = stride;
    p.shift_per_pass = shift;
    p.seed = seed;
    return p;
}

ZipfHashKernel::Params
zipf(std::uint64_t buckets, double s, std::uint64_t seed)
{
    ZipfHashKernel::Params p;
    p.buckets = buckets;
    p.zipf_s = s;
    p.seed = seed;
    return p;
}

FootprintKernel::Params
footprint(std::uint64_t regions, double density, bool recur,
          std::uint64_t seed)
{
    FootprintKernel::Params p;
    p.regions = regions;
    p.density = density;
    p.recur = recur;
    p.seed = seed;
    return p;
}

CacheResidentKernel::Params
resident(std::uint64_t blocks, double temporal, std::uint64_t seed)
{
    CacheResidentKernel::Params p;
    p.footprint_blocks = blocks;
    p.temporal_fraction = temporal;
    p.seed = seed;
    return p;
}

GraphWalkKernel::Params
graph(std::uint32_t nodes, std::uint32_t degree, std::uint64_t seed)
{
    GraphWalkKernel::Params p;
    p.nodes = nodes;
    p.degree = degree;
    p.seed = seed;
    return p;
}

/** Element of a kernels(...) list; the pointer is adopted immediately. */
struct KernelSpec {
    Kernel* kernel;
    double weight;
};

std::vector<WeightedKernel>
kernels(std::initializer_list<KernelSpec> list)
{
    // initializer_list copies its elements, which rules out
    // unique_ptr-holding aggregates; adopt raw pointers here instead so
    // the benchmark table below stays declarative.
    std::vector<WeightedKernel> v;
    v.reserve(list.size());
    for (const auto& s : list)
        v.push_back({std::unique_ptr<Kernel>(s.kernel), s.weight});
    return v;
}

/**
 * The benchmark table. Irregular analogs lead with PC-localized
 * temporal kernels; regular analogs lead with streaming/spatial
 * kernels; the CloudSuite analogs split the same way.
 */
const std::unordered_map<std::string, BenchmarkSpec>&
table()
{
    static const std::unordered_map<std::string, BenchmarkSpec> t = [] {
        std::unordered_map<std::string, BenchmarkSpec> m;
        auto add = [&m](const std::string& name, std::uint64_t len,
                        Builder b) {
            m.emplace(name, BenchmarkSpec{len, std::move(b)});
        };

        // ----- Irregular SPEC subset (Figure 5). ---------------------
        add("mcf", 2000000, [](std::uint64_t s) {
            return kernels({
                {new StreamingKernel(
                     stream(2, 1u << 13, 1, 1u << 12, s)),
                 0.08},
                {new CacheResidentKernel(
                     resident(24 * 1024, 0.3, s)),
                 0.1},
                {new PointerChaseKernel(
                     chase(8u << 16, 16, 2e-6, 0.9, s)),
                 0.9},
                {new ZipfHashKernel(zipf(1u << 16, 0.9, s)),
                 0.1},
            });
        });
        add("omnetpp", 2000000, [](std::uint64_t s) {
            return kernels({
                {new StreamingKernel(
                     stream(2, 1u << 13, 1, 1u << 12, s)),
                 0.08},
                {new CacheResidentKernel(
                     resident(24 * 1024, 0.3, s)),
                 0.1},
                {new PointerChaseKernel(
                     chase(4u << 16, 8, 1e-5, 0.7, s)),
                 0.8},
                {new ZipfHashKernel(zipf(1u << 15, 1.0, s)),
                 0.2},
            });
        });
        add("xalancbmk", 2000000, [](std::uint64_t s) {
            return kernels({
                {new StreamingKernel(
                     stream(2, 1u << 13, 1, 1u << 12, s)),
                 0.08},
                {new CacheResidentKernel(
                     resident(24 * 1024, 0.3, s)),
                 0.1},
                {new PointerChaseKernel(
                     chase(1u << 16, 12, 5e-6, 0.8, s)),
                 0.6},
                {new GraphWalkKernel(graph(1u << 14, 4, s)),
                 0.25},
                {new ZipfHashKernel(zipf(1u << 14, 1.1, s)),
                 0.15},
            });
        });
        add("astar_lakes", 2000000, [](std::uint64_t s) {
            return kernels({
                {new StreamingKernel(
                     stream(2, 1u << 13, 1, 1u << 12, s)),
                 0.08},
                {new CacheResidentKernel(
                     resident(24 * 1024, 0.3, s)),
                 0.1},
                {new GraphWalkKernel(graph(1u << 15, 4, s)),
                 0.85},
                {new ZipfHashKernel(zipf(1u << 13, 0.8, s)),
                 0.15},
            });
        });
        add("sphinx3", 2000000, [](std::uint64_t s) {
            return kernels({
                {new CacheResidentKernel(
                     resident(24 * 1024, 0.3, s)),
                 0.1},
                {new RepeatedScanKernel(
                     scan(1u << 18, 1u << 18, 8, s)),
                 0.85},
                {new StreamingKernel(
                     stream(2, 1u << 14, 1, 1u << 12, s)),
                 0.15},
            });
        });
        add("soplex_k", 2000000, [](std::uint64_t s) {
            return kernels({
                {new CacheResidentKernel(
                     resident(24 * 1024, 0.3, s)),
                 0.1},
                {new SparseMatVecKernel([&] {
                     SparseMatVecKernel::Params p;
                     p.rows = 1u << 14;
                     p.nnz_per_row = 8;
                     p.x_blocks = 1u << 17;
                     p.seed = s;
                     return p;
                 }()),
                 0.9},
                {new StreamingKernel(
                     stream(2, 1u << 14, 2, 1u << 13, s)),
                 0.1},
            });
        });
        add("gcc_166", 2000000, [](std::uint64_t s) {
            return kernels({
                {new CacheResidentKernel(
                     resident(24 * 1024, 0.3, s)),
                 0.1},
                {new GraphWalkKernel(graph(1u << 15, 4, s)),
                 0.5},
                {new RepeatedScanKernel(
                     scan(1u << 16, 1u << 16, 6, s)),
                 0.3},
                {new StreamingKernel(
                     stream(3, 1u << 13, 1, 1u << 12, s)),
                 0.2},
            });
        });

        // ----- Regular memory-intensive SPEC set (Figure 8). ---------
        auto add_streaming = [&](const std::string& name,
                                 std::uint32_t arrays,
                                 std::uint32_t stride) {
            add(name, 2000000, [arrays, stride](std::uint64_t s) {
                return kernels({
                    {new StreamingKernel(
                         stream(arrays, 1u << 16, stride, 1u << 16, s)),
                     0.9},
                    {new ZipfHashKernel(
                         zipf(1u << 14, 0.8, s)),
                     0.1},
                });
            });
        };
        add_streaming("bwaves", 6, 1);
        add_streaming("milc", 4, 2);
        add_streaming("zeusmp", 5, 1);
        add_streaming("cactusADM", 8, 1);
        add_streaming("leslie3d", 6, 2);
        add_streaming("GemsFDTD", 7, 1);
        add_streaming("libquantum", 2, 1);
        add_streaming("lbm", 4, 1);
        add_streaming("wrf", 5, 2);

        auto add_resident = [&](const std::string& name,
                                std::uint64_t blocks, double temporal) {
            add(name, 2000000, [blocks, temporal](std::uint64_t s) {
                return kernels({
                    {new CacheResidentKernel(
                         resident(blocks, temporal, s)),
                     0.85},
                    {new StreamingKernel(
                         stream(2, 1u << 12, 1, 1u << 11, s)),
                     0.15},
                });
            });
        };
        add_resident("perlbench", 8 * 1024, 0.4);
        add_resident("bzip2", 18 * 1024, 0.4);
        add_resident("gamess", 4 * 1024, 0.3);
        add_resident("gromacs", 6 * 1024, 0.3);
        add_resident("namd", 6 * 1024, 0.2);
        add_resident("gobmk", 10 * 1024, 0.4);
        add_resident("dealII", 16 * 1024, 0.5);
        add_resident("povray", 4 * 1024, 0.3);
        add_resident("calculix", 8 * 1024, 0.3);
        add_resident("hmmer", 5 * 1024, 0.4);
        add_resident("sjeng", 9 * 1024, 0.4);
        add_resident("h264ref", 7 * 1024, 0.3);
        add_resident("tonto", 6 * 1024, 0.3);

        add("gcc", 2000000, [](std::uint64_t s) {
            return kernels({
                {new FootprintKernel(
                     footprint(1u << 15, 0.4, false, s)),
                 0.5},
                {new StreamingKernel(
                     stream(3, 1u << 14, 1, 1u << 13, s)),
                 0.3},
                {new CacheResidentKernel(
                     resident(12 * 1024, 0.4, s)),
                 0.2},
            });
        });
        add("soplex_r", 2000000, [](std::uint64_t s) {
            return kernels({
                {new SparseMatVecKernel([&] {
                     SparseMatVecKernel::Params p;
                     p.rows = 1u << 14;
                     p.nnz_per_row = 12;
                     p.x_blocks = 1u << 15; // mostly cache-resident x
                     p.seed = s;
                     return p;
                 }()),
                 0.7},
                {new StreamingKernel(
                     stream(3, 1u << 15, 1, 1u << 15, s)),
                 0.3},
            });
        });
        add("astar_rivers", 2000000, [](std::uint64_t s) {
            return kernels({
                {new GraphWalkKernel(graph(1u << 14, 8, s)),
                 0.6},
                {new StreamingKernel(
                     stream(2, 1u << 14, 1, 1u << 14, s)),
                 0.4},
            });
        });

        // ----- CloudSuite analogs (Figure 14). -----------------------
        add("cassandra", 1500000, [](std::uint64_t s) {
            return kernels({
                {new PointerChaseKernel(
                     chase(1u << 16, 12, 1e-5, 0.8, s)),
                 0.6},
                {new RepeatedScanKernel(
                     scan(1u << 16, 1u << 16, 8, s)),
                 0.2},
                {new ZipfHashKernel(zipf(1u << 16, 1.0, s)),
                 0.2},
            });
        });
        add("classification", 1500000, [](std::uint64_t s) {
            return kernels({
                {new RepeatedScanKernel(
                     scan(1u << 17, 1u << 17, 10, s)),
                 0.75},
                {new ZipfHashKernel(zipf(1u << 15, 0.9, s)),
                 0.25},
            });
        });
        add("cloud9", 1500000, [](std::uint64_t s) {
            return kernels({
                {new GraphWalkKernel(graph(1u << 14, 6, s)),
                 0.65},
                {new PointerChaseKernel(
                     chase(1u << 14, 6, 1e-5, 0.6, s)),
                 0.2},
                {new ZipfHashKernel(zipf(1u << 14, 1.0, s)),
                 0.15},
            });
        });
        add("nutch", 1500000, [](std::uint64_t s) {
            return kernels({
                {new FootprintKernel(
                     footprint(1u << 16, 0.45, false, s)),
                 0.6},
                {new ZipfHashKernel(zipf(1u << 16, 0.9, s)),
                 0.25},
                {new StreamingKernel(
                     stream(2, 1u << 14, 1, 1u << 14, s)),
                 0.15},
            });
        });
        add("stream", 1500000, [](std::uint64_t s) {
            return kernels({
                {new StreamingKernel(
                     stream(4, 1u << 16, 1, 1u << 16, s)),
                 0.8},
                {new FootprintKernel(
                     footprint(1u << 15, 0.5, false, s)),
                 0.2},
            });
        });
        return m;
    }();
    return t;
}

} // namespace

std::unique_ptr<SyntheticWorkload>
make_benchmark(const std::string& name, double scale,
               std::uint64_t seed_jitter)
{
    auto it = table().find(name);
    if (it == table().end())
        util::fatal("unknown benchmark analog: " + name);
    if (!(std::isfinite(scale) && scale > 0))
        util::fatal(util::format_msg("workload scale for '", name,
                                     "' must be finite and > 0, got ",
                                     scale));
    std::uint64_t seed = seed_of(name) ^ seed_jitter;
    auto length = static_cast<std::uint64_t>(
        static_cast<double>(it->second.length) * scale);
    if (length == 0)
        length = 1;
    return std::make_unique<SyntheticWorkload>(name, seed, length,
                                               it->second.build(seed));
}

std::unique_ptr<sim::Workload>
make_workload(const std::string& spec, double scale,
              std::uint64_t seed_jitter, unsigned instance)
{
    if (frontend::is_trace_spec(spec)) {
        frontend::TraceSpec ts;
        if (!frontend::parse_trace_spec(spec, ts))
            return nullptr; // parse already warned
        auto wl = frontend::open_trace(ts.path, ts.format);
        if (wl != nullptr && instance != 0)
            wl->set_instance(instance);
        // scale / seed_jitter intentionally unused: a trace is a fixed
        // recording, so every replica replays the identical stream.
        return wl;
    }
    auto wl = make_benchmark(spec, scale, seed_jitter);
    if (instance != 0)
        wl->set_instance(instance);
    return wl;
}

const std::vector<std::string>&
irregular_spec()
{
    static const std::vector<std::string> v = {
        "gcc_166", "mcf",     "soplex_k",  "omnetpp",
        "astar_lakes", "sphinx3", "xalancbmk",
    };
    return v;
}

const std::vector<std::string>&
regular_spec()
{
    static const std::vector<std::string> v = {
        "perlbench", "bzip2",    "gcc",        "bwaves",   "gamess",
        "milc",      "zeusmp",   "gromacs",    "cactusADM", "leslie3d",
        "namd",      "gobmk",    "dealII",     "soplex_r",  "povray",
        "calculix",  "hmmer",    "sjeng",      "GemsFDTD",  "libquantum",
        "h264ref",   "tonto",    "lbm",        "astar_rivers", "wrf",
    };
    return v;
}

const std::vector<std::string>&
cloudsuite()
{
    static const std::vector<std::string> v = {
        "cassandra", "classification", "cloud9", "nutch", "stream",
    };
    return v;
}

std::vector<std::string>
all_spec()
{
    std::vector<std::string> v = irregular_spec();
    const auto& r = regular_spec();
    v.insert(v.end(), r.begin(), r.end());
    return v;
}

} // namespace triage::workloads
