#include "util/rng.hpp"

#include <cmath>

namespace triage::util {

Rng::Rng(std::uint64_t seed, std::uint64_t stream)
    : state_(0), inc_((stream << 1u) | 1u)
{
    next_u32();
    state_ += seed;
    next_u32();
}

std::uint32_t
Rng::next_u32()
{
    std::uint64_t old = state_;
    state_ = old * 6364136223846793005ULL + inc_;
    auto xorshifted =
        static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
    auto rot = static_cast<std::uint32_t>(old >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
}

std::uint64_t
Rng::next_u64()
{
    return (static_cast<std::uint64_t>(next_u32()) << 32) | next_u32();
}

std::uint32_t
Rng::next_below(std::uint32_t bound)
{
    // Debiased modulo: reject draws in the short final interval.
    std::uint32_t threshold = (-bound) % bound;
    for (;;) {
        std::uint32_t r = next_u32();
        if (r >= threshold)
            return r % bound;
    }
}

std::uint64_t
Rng::next_range(std::uint64_t lo, std::uint64_t hi)
{
    std::uint64_t span = hi - lo + 1;
    if (span == 0) // full 64-bit range
        return next_u64();
    if (span <= 0xffffffffULL)
        return lo + next_below(static_cast<std::uint32_t>(span));
    // Compose from two bounded 32-bit draws; slight bias is irrelevant
    // for workload synthesis at these magnitudes.
    return lo + (next_u64() % span);
}

double
Rng::next_double()
{
    return static_cast<double>(next_u32()) * (1.0 / 4294967296.0);
}

bool
Rng::chance(double p)
{
    return next_double() < p;
}

namespace {

// Rejection-inversion (Hormann & Derflinger 1996) hat function and its
// inverse, valid for s != 1.
double
zipf_h(double s, double x)
{
    return std::pow(x, 1.0 - s) / (1.0 - s);
}

double
zipf_h_inv(double s, double x)
{
    return std::pow((1.0 - s) * x, 1.0 / (1.0 - s));
}

} // namespace

ZipfDist::ZipfDist(std::uint64_t n, double s)
    // Nudge s off the singularity at 1.
    : n_(n), s_(std::fabs(s - 1.0) < 1e-9 ? 1.0 + 1e-9 : s),
      hx0_(zipf_h(s_, 0.5) - 1.0),
      hn_(zipf_h(s_, static_cast<double>(n) + 0.5))
{}

std::uint64_t
Rng::next_zipf(const ZipfDist& d)
{
    if (d.n_ <= 1)
        return 0;
    const double s = d.s_;
    const double nd = static_cast<double>(d.n_);
    for (;;) {
        double u = d.hx0_ + next_double() * (d.hn_ - d.hx0_);
        double x = zipf_h_inv(s, u);
        double k = std::floor(x + 0.5);
        if (k < 1.0)
            k = 1.0;
        if (k > nd)
            k = nd;
        if (k - x <= 0.5 ||
            u >= zipf_h(s, k + 0.5) - std::pow(k, -s)) {
            return static_cast<std::uint64_t>(k) - 1;
        }
    }
}

} // namespace triage::util
