/**
 * @file
 * The concrete invariant suite behind obs::RunVerifier
 * (docs/verification.md).
 *
 * attach() walks the memory system and registers one named checker per
 * component: cache tag/LRU consistency (SetAssocCache::self_check),
 * metadata-store entry/key conservation (MetadataStore::self_check),
 * partition-controller state legality and OPTgen occupancy bounds
 * (PartitionController::self_check), cross-epoch partition transitions
 * (level moves only with a counted change, cooldown only rises when
 * the gate fires), and the prefetch-lifecycle class sum. The run loop
 * then calls on_epoch() at every epoch boundary and on_run_end() once
 * after drain; each sweep runs every checker and records violations
 * (messages capped, counts exact).
 */
#ifndef TRIAGE_VERIFY_INVARIANTS_HPP
#define TRIAGE_VERIFY_INVARIANTS_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/observer.hpp"

namespace triage::verify {

/** One recorded invariant failure. */
struct Violation {
    std::string checker; ///< name of the checker that reported it
    std::string message;
};

/** The registered-checker invariant harness. */
class InvariantSuite final : public obs::RunVerifier
{
  public:
    /** Violation messages kept verbatim; the count is always exact. */
    static constexpr std::size_t MAX_RECORDED = 64;

    using ReportFn = std::function<void(const std::string&)>;
    using CheckFn = std::function<void(const ReportFn&)>;

    /**
     * Drop all checkers and results, then register the component
     * checkers for @p mem. Called by attach_observability() at
     * measurement start, so re-running a system re-arms the suite.
     */
    void attach(cache::MemorySystem& mem) override;

    void on_epoch() override { sweep(); }
    void on_run_end() override { sweep(); }

    std::uint64_t checks_run() const override { return checks_; }
    std::uint64_t violations() const override { return violations_; }
    void write_json(obs::json::Writer& w) const override;

    /** Register an extra checker under @p name (tests, experiments). */
    void add_checker(std::string name, CheckFn fn);

    /** Run every registered checker once, outside the run loop. */
    void sweep();

    /** The first MAX_RECORDED violations, in discovery order. */
    const std::vector<Violation>& recorded() const { return recorded_; }

    /** Forget checkers, results and cross-epoch snapshots. */
    void clear();

  private:
    /** Cross-epoch partition-controller state, one per attached core. */
    struct PartitionSnap {
        bool valid = false;
        std::uint32_t level = 0;
        std::uint32_t cooldown = 0;
        std::uint64_t epochs = 0;
        std::uint64_t changes = 0;
        std::uint64_t gate_fires = 0;
    };

    struct Checker {
        std::string name;
        CheckFn fn;
    };

    std::vector<Checker> checkers_;
    std::vector<PartitionSnap> partition_prev_;
    std::uint64_t checks_ = 0;
    std::uint64_t violations_ = 0;
    std::vector<Violation> recorded_;
};

} // namespace triage::verify

#endif // TRIAGE_VERIFY_INVARIANTS_HPP
