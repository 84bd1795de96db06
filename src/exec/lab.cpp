#include "exec/lab.hpp"

#include <cstdlib>
#include <cstring>
#include <string>

#include "util/log.hpp"
#include "util/parse_number.hpp"

namespace triage::exec {

namespace {

std::string
progress_label(const JobKey& key)
{
    std::string s = "[run] " + key.workload + " / " + key.pf;
    if (key.degree != 1)
        s += " (degree " + std::to_string(key.degree) + ")";
    if (key.replica != 0)
        s += " (replica " + std::to_string(key.replica) + ")";
    return s;
}

} // namespace

Lab::Lab(LabOptions opt)
    : n_workers_(opt.jobs != 0
                     ? opt.jobs
                     : std::max(1u, std::thread::hardware_concurrency()))
{
    if (opt.warm_checkpoints) {
        CheckpointOptions co;
        co.disk_dir = opt.ckpt_dir;
        if (co.disk_dir.empty()) {
            if (const char* env = std::getenv("TRIAGE_CKPT_DIR"))
                co.disk_dir = env;
        }
        ckpt_ = std::make_unique<CheckpointStore>(std::move(co));
    }
}

Lab::~Lab()
{
    {
        std::unique_lock<std::mutex> lock(mu_);
        // Like the worker pool, a serial Lab finishes its queue.
        if (n_workers_ == 1)
            run_serial(lock, nullptr);
        stop_ = true;
    }
    work_ready_.notify_all();
    for (auto& w : workers_)
        w.join();
}

void
Lab::execute(Task& task, unsigned worker_id,
             std::unique_lock<std::mutex>& lock)
{
    task.started = true;
    lock.unlock();
    if (n_workers_ > 1) {
        TRIAGE_LOG_INFO("[w", worker_id, "] ",
                        progress_label(task.key));
    } else {
        TRIAGE_LOG_INFO(progress_label(task.key));
    }
    auto us_since = [this](std::chrono::steady_clock::time_point t) {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(t - t0_)
                .count());
    };
    const auto started = std::chrono::steady_clock::now();
    sim::RunResult r;
    {
        // Top-level profile phase: every sim phase (warmup, measure,
        // snapshot save/restore) nests under "job.", so summed job
        // time is the wall-clock the Lab's workers spent simulating.
        obs::prof::ProfScope prof("job");
        r = run_job(task.job, ckpt_.get());
    }
    const auto ended = std::chrono::steady_clock::now();
    lock.lock();
    if (worker_stats_.size() < static_cast<std::size_t>(n_workers_))
        worker_stats_.resize(n_workers_);
    auto& ws = worker_stats_[worker_id];
    ws.worker = worker_id;
    ws.jobs += 1;
    ws.busy_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(ended -
                                                             started)
            .count());
    ws.peak_rss_kb = obs::prof::peak_rss_kb();
    obs::perfetto::JobSpan span;
    span.worker = worker_id;
    span.label = task.key.workload + " / " + task.key.pf;
    span.start_us = us_since(started);
    span.end_us = us_since(ended);
    spans_.push_back(std::move(span));
    task.result = std::move(r);
    task.done = true;
    ++executed_;
    task_done_.notify_all();
}

void
Lab::worker_loop(unsigned worker_id)
{
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        ++idle_;
        work_ready_.wait(lock,
                         [&] { return stop_ || !queue_.empty(); });
        --idle_;
        if (queue_.empty()) {
            if (stop_)
                return;
            continue;
        }
        std::shared_ptr<Task> task = queue_.front();
        queue_.pop_front();
        execute(*task, worker_id, lock);
    }
}

void
Lab::run_serial(std::unique_lock<std::mutex>& lock, const Task* until)
{
    while (!queue_.empty() && (until == nullptr || !until->done)) {
        std::shared_ptr<Task> task = queue_.front();
        queue_.pop_front();
        execute(*task, 0, lock);
    }
}

void
Lab::add_worker_if_needed()
{
    if (workers_.size() < n_workers_ && queue_.size() > idle_) {
        const auto w = static_cast<unsigned>(workers_.size());
        workers_.emplace_back([this, w] { worker_loop(w); });
    }
}

std::size_t
Lab::started_workers() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return workers_.size();
}

Lab::JobId
Lab::submit(Job job)
{
    JobKey key = key_of(job);
    std::unique_lock<std::mutex> lock(mu_);
    JobId id = submitted_.size();
    // Observability jobs are side-effecting: never satisfy one from a
    // memoized result (the bundle would stay empty) and never let a
    // later plain job reuse its slot.
    const bool memoizable = job.obs == nullptr;
    if (memoizable) {
        auto it = memo_.find(key);
        if (it != memo_.end()) {
            submitted_.push_back(it->second);
            return id;
        }
    }
    auto task = std::make_shared<Task>();
    task->job = std::move(job);
    task->key = std::move(key);
    task->seq = id;
    submitted_.push_back(task);
    if (memoizable)
        memo_.emplace(task->key, task);
    // Declared before any worker can start the job, so the producer of
    // a shared warm prefix knows at its warm point that this job will
    // fork it.
    if (ckpt_ != nullptr)
        ckpt_->expect(warm_prefix(task->key).str());
    queue_.push_back(std::move(task));
    if (n_workers_ == 1)
        return id; // run by result() / wait_all(), in FIFO order
    add_worker_if_needed();
    lock.unlock();
    work_ready_.notify_one();
    return id;
}

const sim::RunResult&
Lab::result(JobId id)
{
    std::unique_lock<std::mutex> lock(mu_);
    TRIAGE_ASSERT(id < submitted_.size(), "bad JobId");
    std::shared_ptr<Task> task = submitted_[id];
    if (n_workers_ == 1)
        run_serial(lock, task.get());
    task_done_.wait(lock, [&] { return task->done; });
    return task->result;
}

void
Lab::wait_all()
{
    std::unique_lock<std::mutex> lock(mu_);
    if (n_workers_ == 1)
        run_serial(lock, nullptr);
    task_done_.wait(lock, [&] {
        for (const auto& t : submitted_)
            if (!t->done)
                return false;
        return true;
    });
}

std::size_t
Lab::size() const
{
    std::unique_lock<std::mutex> lock(mu_);
    return submitted_.size();
}

std::size_t
Lab::runs_executed() const
{
    std::unique_lock<std::mutex> lock(mu_);
    return executed_;
}

std::vector<obs::perfetto::JobSpan>
Lab::job_spans() const
{
    std::unique_lock<std::mutex> lock(mu_);
    return spans_;
}

std::vector<obs::prof::Profiler::WorkerAccounting>
Lab::worker_stats() const
{
    std::unique_lock<std::mutex> lock(mu_);
    std::vector<obs::prof::Profiler::WorkerAccounting> out;
    for (const auto& ws : worker_stats_)
        if (ws.jobs > 0)
            out.push_back(ws);
    return out;
}

void
Lab::publish_profile() const
{
    auto& prof = obs::prof::Profiler::instance();
    for (const auto& ws : worker_stats())
        prof.set_worker(ws);
    if (ckpt_ == nullptr)
        return;
    const CheckpointStore::Stats s = ckpt_->stats();
    auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    prof.set_counter("ckpt.mem_hits", d(s.mem_hits));
    prof.set_counter("ckpt.disk_hits", d(s.disk_hits));
    prof.set_counter("ckpt.misses", d(s.misses));
    prof.set_counter("ckpt.produces", d(s.produces));
    prof.set_counter("ckpt.skipped", d(s.skipped));
    prof.set_counter("ckpt.waits", d(s.waits));
    prof.set_counter("ckpt.evictions", d(s.evictions));
    prof.set_counter("ckpt.lease_wait_seconds",
                     d(s.lease_wait_ns) * 1e-9);
    prof.set_counter("ckpt.bytes_published", d(s.bytes_published));
    prof.set_counter("ckpt.bytes_mem", d(s.bytes_mem));
    prof.set_counter("ckpt.bytes_disk_read", d(s.bytes_disk_read));
    prof.set_counter("ckpt.bytes_disk_written", d(s.bytes_disk_written));
}

unsigned
Lab::jobs_from_args(int argc, char** argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
            unsigned n = 0;
            if (!util::parse_number(util::prog_name(argv[0]), "jobs",
                                    argv[i] + 7, n))
                std::exit(1);
            if (n != 0)
                return n;
            break;
        }
    }
    return std::max(1u, std::thread::hardware_concurrency());
}

} // namespace triage::exec
