#include "exec/checkpoint.hpp"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

#include "util/log.hpp"

namespace triage::exec {

namespace {

/** FNV-1a of the key string — names the disk-tier file. Collisions are
 *  harmless: the full key is the sealed blob's fingerprint, so a
 *  colliding file simply fails open() and reads as a miss. */
std::uint64_t
fnv1a(const std::string& s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char ch : s) {
        h ^= static_cast<unsigned char>(ch);
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** A temp-file name no other producer, in this process or another one
 *  sharing the directory, can be writing at the same time: the pid
 *  tells processes apart, and a process-wide counter tells this
 *  process's threads and successive writes apart. */
std::string
unique_tmp_path(const std::string& path)
{
    static std::atomic<std::uint64_t> counter{0};
    return path + ".tmp." + std::to_string(::getpid()) + "." +
           std::to_string(counter.fetch_add(1));
}

} // namespace

CheckpointStore::CheckpointStore(CheckpointOptions opt)
    : opt_(std::move(opt))
{
}

CheckpointStore::Lease::~Lease()
{
    if (store_ != nullptr && producer_)
        store_->abandon(key_);
}

bool
CheckpointStore::Lease::wanted()
{
    TRIAGE_ASSERT(producer_, "wanted() on a non-producer lease");
    if (store_->decline_unless_wanted(key_))
        return true;
    producer_ = false;
    return false;
}

void
CheckpointStore::Lease::publish(sim::SnapshotBlob blob)
{
    TRIAGE_ASSERT(producer_, "publish() on a non-producer lease");
    store_->do_publish(key_, std::move(blob));
    producer_ = false;
}

void
CheckpointStore::expect(const std::string& key)
{
    std::unique_lock<std::mutex> lock(mu_);
    ++demand_[key];
}

CheckpointStore::Lease
CheckpointStore::acquire(const std::string& key)
{
    std::unique_lock<std::mutex> lock(mu_);
    if (auto d = demand_.find(key); d != demand_.end() && d->second > 0)
        --d->second;
    for (;;) {
        auto it = entries_.find(key);
        if (it != entries_.end() && it->second.blob != nullptr) {
            Entry& e = it->second;
            if (e.cached)
                touch_locked(key, e);
            ++stats_.mem_hits;
            BlobPtr blob = e.blob;
            release_locked(key);
            return Lease(this, key, std::move(blob), false);
        }
        if (it != entries_.end() && it->second.producing) {
            // Another worker is warming this prefix; piggyback on it.
            // The waiter count pins the entry until we wake.
            Entry& e = it->second;
            ++stats_.waits;
            ++e.waiters;
            const auto t0 = std::chrono::steady_clock::now();
            ready_cv_.wait(lock, [&] { return !e.producing; });
            --e.waiters;
            stats_.lease_wait_ns += static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
            continue; // re-examine: published (hit) or abandoned
        }
        // Memory miss: try the disk tier before becoming a producer.
        sim::SnapshotBlob loaded;
        if (load_from_disk(key, loaded)) {
            ++stats_.disk_hits;
            stats_.bytes_disk_read += loaded.size();
            auto blob =
                std::make_shared<const sim::SnapshotBlob>(std::move(loaded));
            settle_locked(key, entries_[key], blob);
            return Lease(this, key, std::move(blob), false);
        }
        ++stats_.misses;
        entries_[key].producing = true;
        return Lease(this, key, nullptr, true);
    }
}

bool
CheckpointStore::decline_unless_wanted(const std::string& key)
{
    std::unique_lock<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    TRIAGE_ASSERT(it != entries_.end() && it->second.producing,
                  "wanted() against a non-producing entry");
    if (!opt_.disk_dir.empty() || it->second.waiters > 0 ||
        !spent_locked(key))
        return true;
    entries_.erase(it);
    ++stats_.skipped;
    return false;
}

void
CheckpointStore::do_publish(const std::string& key,
                                sim::SnapshotBlob blob)
{
    auto shared = std::make_shared<const sim::SnapshotBlob>(std::move(blob));
    const bool wrote = store_to_disk(key, *shared);
    std::unique_lock<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    TRIAGE_ASSERT(it != entries_.end() && it->second.producing,
                  "publish() against a non-producing entry");
    it->second.producing = false;
    ++stats_.produces;
    stats_.bytes_published += shared->size();
    if (wrote)
        stats_.bytes_disk_written += shared->size();
    settle_locked(key, it->second, std::move(shared));
    lock.unlock();
    ready_cv_.notify_all();
}

void
CheckpointStore::abandon(const std::string& key)
{
    {
        std::unique_lock<std::mutex> lock(mu_);
        auto it = entries_.find(key);
        if (it == entries_.end() || !it->second.producing)
            return;
        // Producer died without publishing (exception unwound through
        // the warmup): one waiter re-acquires and becomes the new
        // producer.
        it->second.producing = false;
        release_locked(key);
    }
    ready_cv_.notify_all();
}

bool
CheckpointStore::spent_locked(const std::string& key) const
{
    auto d = demand_.find(key);
    return d != demand_.end() && d->second == 0;
}

void
CheckpointStore::settle_locked(const std::string& key, Entry& e,
                               BlobPtr blob)
{
    e.blob = std::move(blob);
    if (!spent_locked(key)) {
        lru_.push_front(key);
        e.lru_pos = lru_.begin();
        e.cached = true;
        mem_bytes_ += e.blob->size();
        evict_to_budget_locked();
    }
    // Waiters pin the entry, so they take the blob even when the
    // memory tier did not keep it.
    release_locked(key);
}

void
CheckpointStore::uncache_locked(Entry& e)
{
    lru_.erase(e.lru_pos);
    e.cached = false;
    mem_bytes_ -= e.blob->size();
}

void
CheckpointStore::touch_locked(const std::string& key, Entry& e)
{
    lru_.erase(e.lru_pos);
    lru_.push_front(key);
    e.lru_pos = lru_.begin();
}

void
CheckpointStore::release_locked(const std::string& key)
{
    auto it = entries_.find(key);
    if (it == entries_.end())
        return;
    Entry& e = it->second;
    if (e.producing || e.waiters > 0 || (e.cached && !spent_locked(key)))
        return;
    if (e.cached)
        uncache_locked(e);
    entries_.erase(it);
}

void
CheckpointStore::evict_to_budget_locked()
{
    while (mem_bytes_ > opt_.mem_budget_bytes && !lru_.empty()) {
        const std::string victim = lru_.back();
        auto it = entries_.find(victim);
        TRIAGE_ASSERT(it != entries_.end() && it->second.cached,
                      "LRU list out of sync with the entry map");
        uncache_locked(it->second);
        ++stats_.evictions;
        release_locked(victim);
    }
}

std::string
CheckpointStore::disk_path(const std::string& key) const
{
    if (opt_.disk_dir.empty())
        return {};
    return opt_.disk_dir + "/" + hex16(fnv1a(key)) + ".ckpt";
}

bool
CheckpointStore::load_from_disk(const std::string& key,
                                sim::SnapshotBlob& out)
{
    const std::string path = disk_path(key);
    if (path.empty())
        return false;
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    sim::SnapshotBlob blob((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    // Full validation (magic, version, fingerprint, checksum): a
    // stale file from an older build or a different sweep is a miss.
    sim::Snapshot probe;
    if (!sim::Snapshot::open(blob, CKPT_VERSION, key, probe))
        return false;
    out = std::move(blob);
    return true;
}

bool
CheckpointStore::store_to_disk(const std::string& key,
                               const sim::SnapshotBlob& blob)
{
    const std::string path = disk_path(key);
    if (path.empty())
        return false;
    std::error_code ec;
    std::filesystem::create_directories(opt_.disk_dir, ec);
    // Write-then-rename so a concurrent reader never sees a torn file.
    // Each producer writes its own temp file: producers of the same key
    // in other stores or processes sharing the directory would
    // otherwise truncate and interleave one shared temp file, and the
    // rename would publish the mix.
    const std::string tmp = unique_tmp_path(path);
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return false; // disk tier is best-effort
        out.write(reinterpret_cast<const char*>(blob.data()),
                  static_cast<std::streamsize>(blob.size()));
        out.close(); // flushes: a full disk fails here, not in write()
        if (!out) {
            std::filesystem::remove(tmp, ec);
            return false;
        }
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        return false;
    }
    return true;
}

void
CheckpointStore::set_disk_dir(std::string dir)
{
    std::unique_lock<std::mutex> lock(mu_);
    opt_.disk_dir = std::move(dir);
}

CheckpointStore::Stats
CheckpointStore::stats() const
{
    std::unique_lock<std::mutex> lock(mu_);
    Stats s = stats_;
    s.bytes_mem = mem_bytes_;
    return s;
}

} // namespace triage::exec
