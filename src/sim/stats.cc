#include "sim/stats.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>

#include "sim/json.hh"
#include "sim/logging.hh"

namespace dtu
{

double
StatSnapshot::value(const std::string &name) const
{
    auto it = values.find(name);
    return it == values.end() ? 0.0 : it->second;
}

double
StatSnapshot::delta(const StatSnapshot &earlier,
                    const std::string &name) const
{
    return value(name) - earlier.value(name);
}

double
StatSnapshot::ratePerSecond(const StatSnapshot &earlier,
                            const std::string &name) const
{
    if (at <= earlier.at)
        return 0.0;
    return delta(earlier, name) / ticksToSeconds(at - earlier.at);
}

void
Stat::init(StatRegistry &registry, std::string name, std::string description)
{
    name_ = std::move(name);
    description_ = std::move(description);
    registry.add(this);
}

void
Histogram::init(StatRegistry &registry, std::string name,
                std::string description, double lo, double hi,
                std::size_t buckets)
{
    name_ = std::move(name);
    description_ = std::move(description);
    init(lo, hi, buckets);
    registry.add(this);
}

void
Histogram::init(double lo, double hi, std::size_t buckets)
{
    fatalIf(buckets == 0, "histogram '", name_,
            "' needs at least 1 bucket");
    fatalIf(hi <= lo, "histogram '", name_, "' needs hi > lo");
    lo_ = lo;
    hi_ = hi;
    counts_.assign(buckets, 0);
    count_ = 0;
    sum_ = 0.0;
    min_ = 0.0;
    max_ = 0.0;
}

double
Histogram::percentile(double fraction) const
{
    // An empty histogram has no order statistics: NaN is the defined
    // "no data" answer. Consumers that serialize it (ServingReport,
    // stat dumps) render it as JSON null via the non-finite rule
    // instead of reporting a fabricated 0.
    if (count_ == 0)
        return std::numeric_limits<double>::quiet_NaN();
    fraction = std::clamp(fraction, 0.0, 1.0);
    // The extreme order statistics are tracked exactly; answering
    // from them keeps p == 1.0 correct even when out-of-range
    // samples were clamped into an edge bucket.
    if (fraction >= 1.0)
        return max_;
    if (count_ == 1)
        return min_;
    double target = fraction * static_cast<double>(count_);
    double width = (hi_ - lo_) / static_cast<double>(counts_.size());
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        if (counts_[i] > 0 &&
            static_cast<double>(cumulative + counts_[i]) >= target) {
            double within =
                (target - static_cast<double>(cumulative)) /
                static_cast<double>(counts_[i]);
            double v = lo_ + (static_cast<double>(i) + within) * width;
            return std::clamp(v, min_, max_);
        }
        cumulative += counts_[i];
    }
    return max_;
}

void
Histogram::sample(double v)
{
    if (std::isnan(v)) {
        warn(csprintf("histogram '", name_, "': NaN sample dropped"));
        return;
    }
    if (count_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++count_;
    sum_ += v;
    // Out-of-range samples clamp into the edge buckets (see the
    // header); the explicit comparisons also keep +/-inf and values
    // whose scaled fraction would overflow the cast well-defined.
    std::size_t idx;
    if (v < lo_) {
        idx = 0;
    } else if (v >= hi_) {
        idx = counts_.size() - 1;
    } else {
        double frac = (v - lo_) / (hi_ - lo_);
        idx = std::min(counts_.size() - 1,
                       static_cast<std::size_t>(
                           frac * static_cast<double>(counts_.size())));
    }
    ++counts_[idx];
}

void
Histogram::reset()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    count_ = 0;
    sum_ = 0.0;
    min_ = 0.0;
    max_ = 0.0;
}

void
StatRegistry::add(Stat *stat)
{
    panicIf(scalars_.count(stat->name()) != 0,
            "duplicate stat name '", stat->name(), "'");
    scalars_[stat->name()] = stat;
}

void
StatRegistry::add(Histogram *histogram)
{
    panicIf(histograms_.count(histogram->name()) != 0,
            "duplicate histogram name '", histogram->name(), "'");
    histograms_[histogram->name()] = histogram;
}

Stat &
StatRegistry::counter(const std::string &name, std::string description)
{
    auto it = scalars_.find(name);
    if (it != scalars_.end())
        return *it->second;
    owned_.push_back(std::make_unique<Stat>());
    owned_.back()->init(*this, name, std::move(description));
    return *owned_.back();
}

double
StatRegistry::lookup(const std::string &name) const
{
    auto it = scalars_.find(name);
    if (it == scalars_.end()) {
        warn(csprintf("lookup of unknown stat '", name,
                      "' returns 0.0 (misspelled name?)"));
        return 0.0;
    }
    return it->second->value();
}

std::optional<double>
StatRegistry::tryLookup(const std::string &name) const
{
    auto it = scalars_.find(name);
    if (it == scalars_.end())
        return std::nullopt;
    return it->second->value();
}

bool
StatRegistry::has(const std::string &name) const
{
    return scalars_.count(name) != 0;
}

double
StatRegistry::sumMatching(const std::string &prefix) const
{
    double total = 0.0;
    for (auto it = scalars_.lower_bound(prefix); it != scalars_.end(); ++it) {
        if (it->first.compare(0, prefix.size(), prefix) != 0)
            break;
        total += it->second->value();
    }
    return total;
}

StatSnapshot
StatRegistry::snapshot(Tick at) const
{
    StatSnapshot snap;
    snap.at = at;
    for (const auto &[name, stat] : scalars_)
        snap.values[name] = stat->value();
    return snap;
}

void
StatRegistry::resetAll()
{
    for (auto &[name, stat] : scalars_)
        stat->reset();
    for (auto &[name, histogram] : histograms_)
        histogram->reset();
}

void
StatRegistry::dump(std::ostream &os) const
{
    os << std::setprecision(12);
    for (const auto &[name, stat] : scalars_) {
        os << name << " " << stat->value();
        if (!stat->description().empty())
            os << " # " << stat->description();
        os << "\n";
    }
    for (const auto &[name, histogram] : histograms_) {
        os << name << ".count " << histogram->count() << "\n"
           << name << ".mean " << histogram->mean() << "\n"
           << name << ".min " << histogram->min() << "\n"
           << name << ".max " << histogram->max() << "\n";
    }
}

void
StatRegistry::dumpJson(std::ostream &os) const
{
    JsonWriter json(os);
    json.beginObject();
    json.key("scalars").beginObject();
    for (const auto &[name, stat] : scalars_) {
        json.key(name).beginObject();
        json.field("value", stat->value());
        if (!stat->description().empty())
            json.field("description", stat->description());
        json.endObject();
    }
    json.endObject();
    json.key("histograms").beginObject();
    for (const auto &[name, histogram] : histograms_) {
        json.key(name).beginObject();
        json.field("count", histogram->count())
            .field("sum", histogram->sum())
            .field("mean", histogram->mean())
            .field("min", histogram->min())
            .field("max", histogram->max())
            .field("lo", histogram->lo())
            .field("hi", histogram->hi());
        if (!histogram->description().empty())
            json.field("description", histogram->description());
        json.key("buckets").beginArray();
        for (std::uint64_t b : histogram->buckets())
            json.value(b);
        json.endArray();
        json.endObject();
    }
    json.endObject();
    json.endObject();
    os << "\n";
}

std::vector<std::string>
StatRegistry::scalarNames() const
{
    std::vector<std::string> names;
    names.reserve(scalars_.size());
    for (const auto &[name, stat] : scalars_)
        names.push_back(name);
    return names;
}

std::vector<std::string>
StatRegistry::histogramNames() const
{
    std::vector<std::string> names;
    names.reserve(histograms_.size());
    for (const auto &[name, histogram] : histograms_)
        names.push_back(name);
    return names;
}

const Histogram *
StatRegistry::histogram(const std::string &name) const
{
    auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : it->second;
}

const Stat *
StatRegistry::stat(const std::string &name) const
{
    auto it = scalars_.find(name);
    return it == scalars_.end() ? nullptr : it->second;
}

} // namespace dtu
