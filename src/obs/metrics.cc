#include "src/obs/metrics.h"

#include <algorithm>

#include "src/base/bench_json.h"
#include "src/base/strings.h"

namespace xoar {

std::string MetricName(std::string_view shard, std::string_view subsystem,
                       std::string_view metric) {
  std::string name;
  name.reserve(shard.size() + subsystem.size() + metric.size() + 2);
  name.append(shard);
  name.push_back('.');
  name.append(subsystem);
  name.push_back('.');
  name.append(metric);
  return name;
}

// --- Histogram ---------------------------------------------------------------

Histogram::Histogram(std::string name, std::vector<double> bounds)
    : name_(std::move(name)), bounds_(std::move(bounds)) {
  if (bounds_.empty()) {
    bounds_ = DefaultLatencyBoundsNs();
  }
  buckets_.assign(bounds_.size() + 1, 0);
}

void Histogram::Observe(double value) {
  auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  ++buckets_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += value;
}

double Histogram::Percentile(double p) const {
  if (count_ == 0) {
    return 0;
  }
  p = std::clamp(p, 0.0, 1.0);
  const double target = p * static_cast<double>(count_);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    cumulative += buckets_[i];
    if (static_cast<double>(cumulative) >= target) {
      if (i >= bounds_.size()) {
        return bounds_.empty() ? 0 : bounds_.back();  // overflow bucket
      }
      const double hi = bounds_[i];
      const double lo = i == 0 ? 0 : bounds_[i - 1];
      const double before = static_cast<double>(cumulative - buckets_[i]);
      const double in_bucket = static_cast<double>(buckets_[i]);
      const double frac =
          in_bucket == 0 ? 1.0 : (target - before) / in_bucket;
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
  }
  return bounds_.empty() ? 0 : bounds_.back();
}

Status Histogram::Merge(const Histogram& other) {
  if (other.bounds_ != bounds_) {
    return InvalidArgumentError(StrFormat(
        "cannot merge histogram %s: bucket bounds differ", name_.c_str()));
  }
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  return Status::Ok();
}

std::vector<double> Histogram::ExponentialBounds(double start, double factor,
                                                 int count) {
  std::vector<double> bounds;
  bounds.reserve(static_cast<std::size_t>(std::max(count, 0)));
  double bound = start;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

std::vector<double> Histogram::DefaultLatencyBoundsNs() {
  // 100ns, 200ns, ... ~104ms: 21 buckets spanning hypercall costs through
  // microreboot downtime windows.
  return ExponentialBounds(100.0, 2.0, 21);
}

// --- MetricsSnapshot ---------------------------------------------------------

const MetricsSnapshot::CounterValue* MetricsSnapshot::FindCounter(
    std::string_view name) const {
  for (const auto& c : counters) {
    if (c.name == name) {
      return &c;
    }
  }
  return nullptr;
}

const MetricsSnapshot::GaugeValue* MetricsSnapshot::FindGauge(
    std::string_view name) const {
  for (const auto& g : gauges) {
    if (g.name == name) {
      return &g;
    }
  }
  return nullptr;
}

const MetricsSnapshot::HistogramValue* MetricsSnapshot::FindHistogram(
    std::string_view name) const {
  for (const auto& h : histograms) {
    if (h.name == name) {
      return &h;
    }
  }
  return nullptr;
}

// --- MetricRegistry ----------------------------------------------------------

Counter* MetricRegistry::GetCounter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::unique_ptr<Counter>(new Counter(std::string(name))))
             .first;
  }
  return it->second.get();
}

Gauge* MetricRegistry::GetGauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string(name),
                      std::unique_ptr<Gauge>(new Gauge(std::string(name))))
             .first;
  }
  return it->second.get();
}

Histogram* MetricRegistry::GetHistogram(std::string_view name,
                                        std::vector<double> bounds) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::unique_ptr<Histogram>(
                          new Histogram(std::string(name), std::move(bounds))))
             .first;
  }
  return it->second.get();
}

MetricsSnapshot MetricRegistry::Snapshot(SimTime taken_at) const {
  MetricsSnapshot snapshot;
  snapshot.taken_at = taken_at;
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.push_back({name, counter->value()});
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.push_back({name, gauge->value()});
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms.push_back({name, histogram->bounds(),
                                   histogram->bucket_counts(),
                                   histogram->count(), histogram->sum(),
                                   histogram->Percentile(0.50),
                                   histogram->Percentile(0.99)});
  }
  return snapshot;
}

namespace {

std::string JsonNumber(double value) {
  // Integral values print without a fraction so counters stay integers.
  // Range-check before the int64 cast: casting a double outside int64
  // range is undefined behaviour.
  if (value < 1e15 && value > -1e15 &&
      value == static_cast<double>(static_cast<std::int64_t>(value))) {
    return StrFormat("%lld", static_cast<long long>(value));
  }
  return StrFormat("%.17g", value);
}

}  // namespace

std::string MetricRegistry::ToJson(const MetricsSnapshot& snapshot,
                                   std::string_view binary_name) {
  BenchJson json(binary_name, snapshot.taken_at);
  for (const auto& c : snapshot.counters) {
    json.AddMetric(c.name, "counter", c.value);
  }
  for (const auto& g : snapshot.gauges) {
    json.AddMetricFields(g.name, "gauge", "\"value\": " + JsonNumber(g.value));
  }
  for (const auto& h : snapshot.histograms) {
    std::string fields = StrFormat("\"count\": %llu",
                                   static_cast<unsigned long long>(h.count));
    fields.append(", \"sum\": ");
    fields.append(JsonNumber(h.sum));
    fields.append(", \"p50\": ");
    fields.append(JsonNumber(h.p50));
    fields.append(", \"p99\": ");
    fields.append(JsonNumber(h.p99));
    fields.append(", \"buckets\": [");
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i > 0) {
        fields.append(", ");
      }
      fields.append("{\"le\": ");
      fields.append(i < h.bounds.size() ? JsonNumber(h.bounds[i])
                                        : std::string("\"inf\""));
      fields.append(StrFormat(", \"count\": %llu}",
                              static_cast<unsigned long long>(h.buckets[i])));
    }
    fields.push_back(']');
    json.AddMetricFields(h.name, "histogram", fields);
  }
  return json.Finish();
}

Status MetricRegistry::WriteJsonFile(const std::string& path,
                                     std::string_view binary_name,
                                     SimTime taken_at) const {
  return BenchJson::WriteFile(path, ToJson(Snapshot(taken_at), binary_name));
}

}  // namespace xoar
