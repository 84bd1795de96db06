#include "obs/sampler.hpp"

#include <algorithm>

#include "obs/json.hpp"
#include "util/log.hpp"

namespace triage::obs {

void
EpochSampler::add_level(const std::string& name, Probe fn)
{
    TRIAGE_ASSERT(fn != nullptr);
    names_.push_back(name);
    ProbeEntry p;
    p.kind = Kind::Level;
    p.fn = std::move(fn);
    probes_.push_back(std::move(p));
}

void
EpochSampler::add_delta(const std::string& name, Probe fn)
{
    TRIAGE_ASSERT(fn != nullptr);
    names_.push_back(name);
    ProbeEntry p;
    p.kind = Kind::Delta;
    p.fn = std::move(fn);
    probes_.push_back(std::move(p));
}

void
EpochSampler::add_rate(const std::string& name, Probe num, Probe den)
{
    TRIAGE_ASSERT(num != nullptr && den != nullptr);
    names_.push_back(name);
    ProbeEntry p;
    p.kind = Kind::Rate;
    p.fn = std::move(num);
    p.den = std::move(den);
    probes_.push_back(std::move(p));
}

void
EpochSampler::clear_probes()
{
    names_.clear();
    probes_.clear();
}

void
EpochSampler::freeze()
{
    probes_.clear();
}

void
EpochSampler::begin(std::uint64_t at)
{
    epoch_start_ = at;
    begun_ = true;
    for (auto& p : probes_) {
        if (p.kind == Kind::Level)
            continue;
        p.last = p.fn();
        if (p.kind == Kind::Rate)
            p.last_den = p.den();
    }
}

double
EpochSampler::eval(ProbeEntry& p)
{
    switch (p.kind) {
      case Kind::Level:
        return p.fn();
      case Kind::Delta: {
        double cur = p.fn();
        double d = cur - p.last;
        p.last = cur;
        return d;
      }
      case Kind::Rate: {
        double num = p.fn();
        double den = p.den();
        double dn = num - p.last;
        double dd = den - p.last_den;
        p.last = num;
        p.last_den = den;
        return dd == 0.0 ? 0.0 : dn / dd;
      }
    }
    return 0.0;
}

void
EpochSampler::sample(std::uint64_t at)
{
    TRIAGE_ASSERT(begun_, "EpochSampler::begin() must precede sample()");
    Epoch e;
    e.begin = epoch_start_;
    e.end = at;
    e.values.reserve(probes_.size());
    for (auto& p : probes_)
        e.values.push_back(eval(p));
    epochs_.push_back(std::move(e));
    epoch_start_ = at;
}

void
EpochSampler::finalize(std::uint64_t at)
{
    if (!enabled() || !begun_ || at <= epoch_start_)
        return;
    sample(at);
}

void
EpochSampler::reset()
{
    epochs_.clear();
    begun_ = false;
    epoch_start_ = 0;
}

void
EpochSampler::write_json(json::Writer& w) const
{
    w.begin_array();
    for (const Epoch& e : epochs_) {
        w.begin_object(false).field("begin", e.begin).field("end", e.end);
        // A frozen sampler keeps names_ but no probes; epochs recorded
        // before older registrations may also be shorter than names_.
        const std::size_t n = std::min(names_.size(), e.values.size());
        for (std::size_t p = 0; p < n; ++p)
            w.field(names_[p], e.values[p]);
        w.end();
    }
    w.end();
}

} // namespace triage::obs
