/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis
 * and sampled simulation.
 *
 * Everything in this simulator must be reproducible from a seed, so we
 * carry our own PCG32 generator instead of relying on std::mt19937
 * (whose distributions are implementation-defined across standard
 * libraries).
 */
#ifndef TRIAGE_UTIL_RNG_HPP
#define TRIAGE_UTIL_RNG_HPP

#include <cstdint>
#include <vector>

namespace triage::util {

/**
 * One Zipf distribution over ranks [0, n) with exponent s, drawn by
 * Rng::next_zipf with the rejection-inversion method of Hormann &
 * Derflinger (no O(n) table). The envelope constants cost two
 * std::pow calls, so they are computed once here and each sampler
 * owns the distributions it draws from.
 */
class ZipfDist
{
  public:
    ZipfDist(std::uint64_t n, double s);

  private:
    friend class Rng;

    std::uint64_t n_;
    double s_;   ///< exponent, nudged off the singularity at 1
    double hx0_; ///< h(0.5) - 1
    double hn_;  ///< h(n + 0.5)
};

/**
 * PCG32 generator (O'Neill 2014, pcg-xsh-rr-64/32). Small state, good
 * statistical quality, and fully deterministic across platforms.
 */
class Rng
{
  public:
    /** Construct from a seed; distinct streams via @p stream. */
    explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL,
                 std::uint64_t stream = 0xda3e39cb94b95bdbULL);

    /** Next raw 32-bit value. */
    std::uint32_t next_u32();

    /** Next raw 64-bit value (two 32-bit draws). */
    std::uint64_t next_u64();

    /** Uniform integer in [0, bound) with rejection sampling (bound > 0). */
    std::uint32_t next_below(std::uint32_t bound);

    /** Uniform integer in [lo, hi] inclusive (lo <= hi). */
    std::uint64_t next_range(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [0, 1). */
    double next_double();

    /** Bernoulli draw: true with probability @p p. */
    bool chance(double p);

    /** Zipf-distributed rank in [0, n) for @p d's n. */
    std::uint64_t next_zipf(const ZipfDist& d);

    /**
     * Serialize / restore the generator state through a snapshot-style
     * archive. Templated so util stays below sim in the library graph;
     * ArchiveT is sim::Snapshot.
     */
    template <typename ArchiveT>
    void
    checkpoint(ArchiveT& ar)
    {
        ar.io(state_);
        ar.io(inc_);
    }

    /** Fisher-Yates shuffle of @p v. */
    template <typename T>
    void
    shuffle(std::vector<T>& v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = next_below(static_cast<std::uint32_t>(i));
            std::swap(v[i - 1], v[j]);
        }
    }

  private:
    std::uint64_t state_;
    std::uint64_t inc_;
};

} // namespace triage::util

#endif // TRIAGE_UTIL_RNG_HPP
