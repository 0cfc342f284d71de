#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace gsi::obs {
namespace {

/// Prometheus sample value: integral values render without a fraction
/// (counters stay readable), everything else as shortest round-trippable
/// decimal-ish "%.10g". Deterministic for a given double.
std::string FormatValue(double v) {
  char buf[64];
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.10g", v);
  }
  return buf;
}

std::string EscapeHelp(std::string_view help) {
  std::string out;
  out.reserve(help.size());
  for (char c : help) {
    if (c == '\\') out += "\\\\";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  return out;
}

/// `name{labels}` or bare `name`; `extra` (the `le` pair) is appended to
/// whatever labels the sample carries.
std::string SampleName(const std::string& name, const std::string& labels,
                       const std::string& extra = "") {
  std::string body = labels;
  if (!extra.empty()) body += body.empty() ? extra : "," + extra;
  if (body.empty()) return name;
  return name + "{" + body + "}";
}

const char* TypeName(MetricsSink::Type t) {
  switch (t) {
    case MetricsSink::Type::kCounter: return "counter";
    case MetricsSink::Type::kGauge: return "gauge";
    case MetricsSink::Type::kHistogram: return "histogram";
  }
  return "untyped";
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) {
  for (double b : bounds)
    if (!std::isnan(b)) bounds_.push_back(b);
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  counts_.assign(bounds_.size() + 1, 0);
}

size_t Histogram::BucketFor(std::span<const double> bounds, double v) {
  // First bound with v <= bound. NaN needs the explicit check: lower_bound
  // with a NaN pivot sees every `bound < NaN` comparison as false and would
  // return bucket 0; the contract sends NaN to +Inf instead.
  if (std::isnan(v)) return bounds.size();
  size_t i =
      static_cast<size_t>(std::lower_bound(bounds.begin(), bounds.end(), v) -
                          bounds.begin());
  return i;
}

void Histogram::Observe(double v) {
  counts_[BucketFor(bounds_, v)] += 1;
  count_ += 1;
  sum_ += v;
}

void MetricsSink::AddCounter(std::string_view name, std::string_view help,
                             double value, std::string_view labels) {
  Sample s;
  s.labels = std::string(labels);
  s.value = value;
  Add(name, help, Type::kCounter, std::move(s));
}

void MetricsSink::AddGauge(std::string_view name, std::string_view help,
                           double value, std::string_view labels) {
  Sample s;
  s.labels = std::string(labels);
  s.value = value;
  Add(name, help, Type::kGauge, std::move(s));
}

void MetricsSink::AddHistogram(std::string_view name, std::string_view help,
                               const Histogram& histogram,
                               std::string_view labels) {
  Sample s;
  s.labels = std::string(labels);
  s.histogram = histogram;
  Add(name, help, Type::kHistogram, std::move(s));
}

void MetricsSink::Add(std::string_view name, std::string_view help,
                      Type type, Sample sample) {
  auto it = families_.find(name);
  if (it == families_.end()) {
    Family family;
    family.help = std::string(help);
    family.type = type;
    it = families_.emplace(std::string(name), std::move(family)).first;
  }
  // Samples of one family must agree on type; a mismatched sample is
  // dropped rather than corrupting the exposition.
  if (it->second.type != type) return;
  it->second.samples.push_back(std::move(sample));
}

std::string MetricsSink::ExportPrometheus() const {
  std::string out;
  for (const auto& [name, family] : families_) {
    out += "# HELP " + name + " " + EscapeHelp(family.help) + "\n";
    out += "# TYPE " + name + " " + TypeName(family.type) + "\n";
    for (const auto& sample : family.samples) {
      if (family.type != Type::kHistogram) {
        out += SampleName(name, sample.labels) + " " +
               FormatValue(sample.value) + "\n";
        continue;
      }
      const Histogram& h = *sample.histogram;
      uint64_t cumulative = 0;
      for (size_t i = 0; i < h.bounds().size(); ++i) {
        cumulative += h.counts()[i];
        out += SampleName(name + "_bucket", sample.labels,
                          "le=\"" + FormatValue(h.bounds()[i]) + "\"") +
               " " + std::to_string(cumulative) + "\n";
      }
      out += SampleName(name + "_bucket", sample.labels, "le=\"+Inf\"") +
             " " + std::to_string(h.count()) + "\n";
      out += SampleName(name + "_sum", sample.labels) + " " +
             FormatValue(h.sum()) + "\n";
      out += SampleName(name + "_count", sample.labels) + " " +
             std::to_string(h.count()) + "\n";
    }
  }
  return out;
}

std::string MetricsSink::DebugString() const {
  std::string out;
  for (const auto& [name, family] : families_) {
    for (const auto& sample : family.samples) {
      if (family.type != Type::kHistogram) {
        out += SampleName(name, sample.labels) + " = " +
               FormatValue(sample.value) + "\n";
        continue;
      }
      const Histogram& h = *sample.histogram;
      out += SampleName(name, sample.labels) +
             " = count=" + std::to_string(h.count()) +
             " sum=" + FormatValue(h.sum()) + "\n";
    }
  }
  return out;
}

}  // namespace gsi::obs
