#include "workloads/synthetic.hpp"

#include "util/log.hpp"

namespace triage::workloads {

SyntheticWorkload::SyntheticWorkload(std::string name, std::uint64_t seed,
                                     std::uint64_t length,
                                     std::vector<WeightedKernel> kernels)
    : name_(std::move(name)), seed_(seed), length_(length),
      kernels_(std::move(kernels)), rng_(seed)
{
    TRIAGE_ASSERT(!kernels_.empty());
    TRIAGE_ASSERT(length_ > 0);
    double total = 0;
    for (const auto& k : kernels_) {
        TRIAGE_ASSERT(k.weight > 0);
        total += k.weight;
    }
    double acc = 0;
    for (const auto& k : kernels_) {
        acc += k.weight / total;
        cumulative_.push_back(acc);
    }
    cumulative_.back() = 1.0;
}

void
SyntheticWorkload::reset()
{
    pos_ = 0;
    seq_ = 0;
    rng_ = util::Rng(seed_);
    for (auto& k : kernels_)
        k.kernel->reset();
}

bool
SyntheticWorkload::next(sim::TraceRecord& out)
{
    if (pos_ >= length_)
        return false;
    ++pos_;
    ++seq_;
    std::size_t pick = 0;
    if (kernels_.size() > 1) {
        double r = rng_.next_double();
        while (pick + 1 < cumulative_.size() && r > cumulative_[pick])
            ++pick;
    }
    kernels_[pick].kernel->emit(rng_, seq_, out);
    out.addr += addr_offset_;
    out.pc += pc_offset_;
    return true;
}

std::unique_ptr<sim::Workload>
SyntheticWorkload::clone() const
{
    std::vector<WeightedKernel> copies;
    copies.reserve(kernels_.size());
    for (const auto& k : kernels_)
        copies.push_back({k.kernel->clone(), k.weight});
    auto w = std::make_unique<SyntheticWorkload>(name_, seed_, length_,
                                                 std::move(copies));
    w->set_instance(instance_);
    return w;
}

void
SyntheticWorkload::set_instance(unsigned instance_id)
{
    instance_ = instance_id;
    addr_offset_ = static_cast<sim::Addr>(instance_id) << 44;
    pc_offset_ = static_cast<sim::Pc>(instance_id) << 48;
}

} // namespace triage::workloads
