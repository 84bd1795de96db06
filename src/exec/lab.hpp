/**
 * @file
 * The Lab: a parallel experiment scheduler. Jobs are submitted
 * declaratively, deduplicated by JobKey, executed by a worker pool
 * (`--jobs=N`; N=1 reproduces the serial path exactly), and collected
 * in submission order.
 *
 * Each worker constructs its own MultiCoreSystem per job — the
 * systems are thread-unsafe but self-contained (see
 * cache/hierarchy.hpp), which makes job-level parallelism safe by
 * construction. Results are bit-identical across any worker count; see
 * docs/parallel-runs.md for the determinism contract.
 */
#ifndef TRIAGE_EXEC_LAB_HPP
#define TRIAGE_EXEC_LAB_HPP

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "exec/checkpoint.hpp"
#include "exec/job.hpp"
#include "obs/perfetto.hpp"
#include "obs/profile.hpp"

namespace triage::exec {

/** Lab construction knobs. */
struct LabOptions {
    /** Worker threads; 0 = std::thread::hardware_concurrency(). */
    unsigned jobs = 0;

    /**
     * Fork jobs sharing a warm prefix from memoized warm-state
     * checkpoints instead of re-simulating their warmup
     * (docs/parallel-runs.md §checkpointing). Bit-identical to cold
     * warmup; only the wall clock changes. The memory tier has
     * CheckpointOptions' default budget.
     */
    bool warm_checkpoints = true;

    /**
     * On-disk checkpoint cache directory; "" = the TRIAGE_CKPT_DIR
     * environment variable (no disk tier when that is unset too).
     * (The empty initializer keeps `LabOptions{.jobs = 1}` free of
     * -Wmissing-field-initializers.)
     */
    std::string ckpt_dir{};
};

/**
 * Parallel, memoizing experiment engine.
 *
 * Usage: submit() every job of a sweep up front (duplicates by JobKey
 * are coalesced onto one run), then collect with result(), which
 * blocks until that job finishes. Each submitted job declares its warm
 * prefix to the checkpoint store, so a warm checkpoint is saved only
 * when a later job can fork it (docs/parallel-runs.md §6). With one
 * worker, nothing runs at submission: result() and wait_all() run the
 * queue in FIFO order on the calling thread, so a serial sweep has
 * declared all its demand before its first warm point. Not reentrant:
 * do not submit from inside a job.
 */
class Lab
{
  public:
    using JobId = std::size_t;

    explicit Lab(LabOptions opt = {});
    ~Lab();
    Lab(const Lab&) = delete;
    Lab& operator=(const Lab&) = delete;

    /**
     * Enqueue @p job. A job whose key was already submitted shares the
     * earlier run's result; a job with an obs bundle attached always
     * runs (observability is a side effect memoization must not skip).
     */
    JobId submit(Job job);

    /** Block until job @p id finishes and return its result (a
     *  serial Lab runs its queue up to that job first). */
    const sim::RunResult& result(JobId id);

    /** submit() + result() in one call. */
    const sim::RunResult&
    run(Job job)
    {
        return result(submit(std::move(job)));
    }

    /** Block until every submitted job has finished. */
    void wait_all();

    /** Jobs submitted so far (JobIds are 0..size()-1). */
    std::size_t size() const;

    /** Distinct simulations actually executed (memo hits excluded). */
    std::size_t runs_executed() const;

    /** Effective worker count. */
    unsigned workers() const { return n_workers_; }

    /**
     * Worker threads started so far. A worker starts at a submit()
     * only while the queued jobs outnumber the idle workers, so a Lab
     * never runs more threads than it had jobs in flight.
     */
    std::size_t started_workers() const;

    /** The warm-checkpoint store (null when warm_checkpoints=false).
     *  Memoization stays keyed on the full JobKey; the store only
     *  shares warm prefixes between distinct jobs. */
    CheckpointStore* checkpoints() { return ckpt_.get(); }

    /**
     * Wall-clock span of every executed job (memo hits excluded),
     * timestamped in microseconds since Lab construction — one
     * Perfetto track row per worker. Snapshot; call after wait_all()
     * for the complete set.
     */
    std::vector<obs::perfetto::JobSpan> job_spans() const;

    /**
     * Per-worker resource accounting (jobs run, busy wall-clock).
     * Rows exist only for workers that executed at least one job;
     * peak RSS is process-wide (sampled after each job), reported on
     * every row. Snapshot; call after wait_all() for final numbers.
     */
    std::vector<obs::prof::Profiler::WorkerAccounting>
    worker_stats() const;

    /**
     * Push this Lab's telemetry into the host profiler: worker
     * accounting rows plus the CheckpointStore counters under
     * "ckpt.*" (docs/observability.md §10). Call after wait_all()
     * when profiling is enabled; a disarmed profiler still accepts
     * the counters (they are summary data, not phase timings).
     */
    void publish_profile() const;

    /**
     * Parse `--jobs=N` from a CLI argument list. Returns the effective
     * worker count: N when given, hardware_concurrency (min 1) when
     * the flag is absent or N=0. A malformed N exits 1 after one error
     * line (util::parse_number).
     */
    static unsigned jobs_from_args(int argc, char** argv);

  private:
    struct Task {
        Job job;
        JobKey key;
        JobId seq = 0;       ///< first submission's JobId (for logs)
        bool started = false;
        bool done = false;
        sim::RunResult result;
    };

    void worker_loop(unsigned worker_id);
    void execute(Task& task, unsigned worker_id,
                 std::unique_lock<std::mutex>& lock);
    /** Start one more worker (up to n_workers_) while a queued job
     *  has no idle worker to take it. Called with mu_ held. */
    void add_worker_if_needed();
    /** Serial Lab: run queued tasks on the calling thread until
     *  @p until is done (null: until the queue is empty). */
    void run_serial(std::unique_lock<std::mutex>& lock, const Task* until);

    unsigned n_workers_;
    std::unique_ptr<CheckpointStore> ckpt_;
    const std::chrono::steady_clock::time_point t0_ =
        std::chrono::steady_clock::now();
    std::vector<obs::perfetto::JobSpan> spans_;
    std::vector<obs::prof::Profiler::WorkerAccounting> worker_stats_;
    mutable std::mutex mu_;
    std::condition_variable work_ready_;
    std::condition_variable task_done_;
    std::vector<std::shared_ptr<Task>> submitted_; ///< by JobId
    std::unordered_map<JobKey, std::shared_ptr<Task>, JobKeyHash> memo_;
    std::deque<std::shared_ptr<Task>> queue_;
    std::vector<std::thread> workers_;
    std::size_t idle_ = 0; ///< workers waiting for work_ready_
    std::size_t executed_ = 0;
    bool stop_ = false;
};

} // namespace triage::exec

#endif // TRIAGE_EXEC_LAB_HPP
