#include "stats/experiment.hpp"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "prefetch/best_offset.hpp"
#include "prefetch/ghb_pcdc.hpp"
#include "prefetch/ghb_temporal.hpp"
#include "prefetch/hybrid.hpp"
#include "prefetch/markov.hpp"
#include "prefetch/misb.hpp"
#include "prefetch/next_line.hpp"
#include "prefetch/sms.hpp"
#include "triage/triage.hpp"
#include "util/log.hpp"
#include "util/parse_number.hpp"

namespace triage::stats {

namespace {

std::unique_ptr<prefetch::Prefetcher>
make_one(const std::string& spec, std::uint32_t degree)
{
    using namespace prefetch;
    if (spec == "bo") {
        BestOffsetConfig cfg;
        cfg.degree = degree;
        return std::make_unique<BestOffset>(cfg);
    }
    if (spec == "sms")
        return std::make_unique<Sms>();
    if (spec == "markov")
        return std::make_unique<Markov>();
    if (spec == "stms" || spec == "domino") {
        GhbTemporalConfig cfg;
        cfg.mode = spec == "stms" ? GhbIndexMode::SingleAddress
                                  : GhbIndexMode::AddressPair;
        cfg.degree = degree;
        return std::make_unique<GhbTemporal>(cfg);
    }
    if (spec == "misb") {
        MisbConfig cfg;
        cfg.degree = degree;
        return std::make_unique<Misb>(cfg);
    }
    if (spec == "isb")
        return std::make_unique<Misb>(isb_config(degree));
    if (spec == "next_line") {
        NextLineConfig cfg;
        cfg.degree = degree;
        return std::make_unique<NextLine>(cfg);
    }
    if (spec == "ghb_pcdc") {
        GhbPcdcConfig cfg;
        cfg.degree = std::max(degree, 2u);
        return std::make_unique<GhbPcdc>(cfg);
    }
    if (spec.rfind("triage_", 0) == 0) {
        // Grammar: triage_<size|dyn|unlimited>[_lru][_free][_nocompress]
        //   size: <N>KB or <N>MB static store;
        //   lru: LRU metadata replacement instead of Hawkeye;
        //   free: do not charge LLC capacity (Figure 9's assumption);
        //   nocompress: full-address entries (compression ablation).
        core::TriageConfig cfg;
        cfg.degree = degree;
        std::vector<std::string> toks;
        std::size_t pos = 7;
        while (pos <= spec.size()) {
            std::size_t us = spec.find('_', pos);
            if (us == std::string::npos) {
                toks.push_back(spec.substr(pos));
                break;
            }
            toks.push_back(spec.substr(pos, us - pos));
            pos = us + 1;
        }
        if (toks.empty())
            util::fatal("bad triage spec: " + spec);
        const std::string& size = toks[0];
        if (size == "dyn") {
            cfg.dynamic = true;
        } else if (size == "unlimited") {
            cfg.unlimited = true;
            cfg.charge_llc_capacity = false;
        } else if (size.size() > 2 &&
                   (size.substr(size.size() - 2) == "KB" ||
                    size.substr(size.size() - 2) == "MB")) {
            const std::string digits = size.substr(0, size.size() - 2);
            const std::uint64_t unit =
                size.substr(size.size() - 2) == "KB" ? 1024 : 1024 * 1024;
            std::uint64_t n = 0;
            const char* end = digits.data() + digits.size();
            const auto [stop, ec] =
                std::from_chars(digits.data(), end, n);
            if (ec != std::errc{} || stop != end ||
                n > std::numeric_limits<std::uint64_t>::max() / unit)
                util::fatal("bad triage store size: " + spec);
            cfg.static_bytes = n * unit;
        } else {
            util::fatal("bad triage store size: " + spec);
        }
        for (std::size_t i = 1; i < toks.size(); ++i) {
            if (toks[i] == "lru")
                cfg.repl = core::StoreRepl::Lru;
            else if (toks[i] == "free")
                cfg.charge_llc_capacity = false;
            else if (toks[i] == "nocompress")
                cfg.compressed_tags = false;
            else
                util::fatal("bad triage flag in spec: " + spec);
        }
        return std::make_unique<core::Triage>(cfg);
    }
    util::fatal("unknown prefetcher spec: " + spec);
}

} // namespace

std::unique_ptr<prefetch::Prefetcher>
make_prefetcher(const std::string& spec, std::uint32_t degree)
{
    if (spec == "none")
        return nullptr;
    // Hybrids: components joined with '+'.
    std::vector<std::string> parts;
    std::size_t start = 0;
    for (;;) {
        std::size_t plus = spec.find('+', start);
        if (plus == std::string::npos) {
            parts.push_back(spec.substr(start));
            break;
        }
        parts.push_back(spec.substr(start, plus - start));
        start = plus + 1;
    }
    if (parts.size() == 1)
        return make_one(parts[0], degree);
    std::vector<std::unique_ptr<prefetch::Prefetcher>> children;
    children.reserve(parts.size());
    for (const auto& p : parts)
        children.push_back(make_one(p, degree));
    return std::make_unique<prefetch::Hybrid>(std::move(children));
}

namespace {

/** Parse --@p flag's value @p v into @p out, or exit 1 after the
 *  parser's error line. */
template <typename T>
void
number_or_exit(const char* argv0, const char* flag, const char* v, T& out)
{
    if (!util::parse_number(util::prog_name(argv0), flag, v, out))
        std::exit(1);
}

} // namespace

RunScale
RunScale::from_args(int argc, char** argv)
{
    RunScale s;
    for (int i = 1; i < argc; ++i) {
        const char* a = argv[i];
        if (std::strncmp(a, "--scale=", 8) == 0) {
            number_or_exit(argv[0], "scale", a + 8, s.workload_scale);
            s.scale_set = true;
        } else if (std::strncmp(a, "--warmup=", 9) == 0) {
            number_or_exit(argv[0], "warmup", a + 9, s.warmup_records);
            s.warmup_set = true;
        } else if (std::strncmp(a, "--measure=", 10) == 0) {
            number_or_exit(argv[0], "measure", a + 10, s.measure_records);
            s.measure_set = true;
        }
    }
    return s;
}

unsigned
RunScale::mixes_from_args(int argc, char** argv, unsigned def)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--mixes=", 8) == 0) {
            unsigned n = 0;
            number_or_exit(argv[0], "mixes", argv[i] + 8, n);
            return n;
        }
    }
    return def;
}

} // namespace triage::stats
