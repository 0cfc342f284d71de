#include "obs/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <map>
#include <numeric>

namespace gsi::obs {
namespace {

/// Minimal JSON string escaper (span names and attrs are ASCII
/// identifiers in practice; quotes/backslashes/control bytes are escaped
/// so arbitrary attr values stay loadable).
std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Nanoseconds as a microsecond decimal ("1234.567") — exact, so the
/// export is byte-stable wherever the timestamps are.
std::string NanosAsMicros(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03" PRIu64, ns / 1000,
                ns % 1000);
  return buf;
}

std::string NanosAsMillis(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%06" PRIu64, ns / 1000000,
                ns % 1000000);
  return buf;
}

uint64_t DurationNs(const TraceSpan& s) {
  return s.end_ns >= s.start_ns ? s.end_ns - s.start_ns : 0;
}

/// Export order: by device track, then by open time, then by per-device
/// open order (`seq`, which breaks ties among zero-advance spans). This
/// erases the arrival-order nondeterminism of concurrent lanes.
std::vector<size_t> SortedIndices(const std::vector<TraceSpan>& spans) {
  std::vector<size_t> order(spans.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const TraceSpan& x = spans[a];
    const TraceSpan& y = spans[b];
    if (x.device != y.device) return x.device < y.device;
    if (x.start_ns != y.start_ns) return x.start_ns < y.start_ns;
    return x.seq < y.seq;
  });
  return order;
}

/// Earliest span start per device track: cycle counters accumulate across
/// queries on a long-lived device, so each track is re-zeroed at its own
/// first span on export.
std::map<int32_t, uint64_t> TrackBases(const std::vector<TraceSpan>& spans) {
  std::map<int32_t, uint64_t> base;
  for (const TraceSpan& s : spans) {
    auto [it, inserted] = base.emplace(s.device, s.start_ns);
    if (!inserted) it->second = std::min(it->second, s.start_ns);
  }
  return base;
}

}  // namespace

void ScopedSpan::AddAttr(std::string_view key, uint64_t value) {
  if (tracer_ == nullptr) return;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  tracer_->AddAttr(index_, std::string(key), buf);
}

void ScopedSpan::AddAttr(std::string_view key, double value) {
  if (tracer_ == nullptr) return;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  tracer_->AddAttr(index_, std::string(key), buf);
}

int32_t Tracer::OpenSpan(std::string name, int32_t device, uint64_t start_ns,
                         int32_t parent) {
  MutexLock lock(mu_);
  TraceSpan span;
  span.name = std::move(name);
  span.device = device;
  span.start_ns = start_ns;
  span.parent = parent;
  size_t track = static_cast<size_t>(std::max(device, kHostDevice) + 1);
  if (next_seq_.size() <= track) next_seq_.resize(track + 1, 0);
  span.seq = next_seq_[track]++;
  spans_.push_back(std::move(span));
  return static_cast<int32_t>(spans_.size() - 1);
}

void Tracer::CloseSpan(int32_t index, uint64_t end_ns) {
  MutexLock lock(mu_);
  if (index >= 0 && static_cast<size_t>(index) < spans_.size())
    spans_[static_cast<size_t>(index)].end_ns = end_ns;
}

void Tracer::AddAttr(int32_t index, std::string key, std::string value) {
  MutexLock lock(mu_);
  if (index >= 0 && static_cast<size_t>(index) < spans_.size())
    spans_[static_cast<size_t>(index)].attrs.emplace_back(std::move(key),
                                                          std::move(value));
}

int32_t Tracer::RecordSpan(std::string name, int32_t device,
                           uint64_t start_ns, uint64_t end_ns,
                           int32_t parent) {
  int32_t index = OpenSpan(std::move(name), device, start_ns, parent);
  CloseSpan(index, end_ns);
  return index;
}

std::vector<TraceSpan> Tracer::Snapshot() const {
  MutexLock lock(mu_);
  return spans_;
}

std::string Tracer::ToChromeJson() const {
  std::vector<TraceSpan> spans = Snapshot();
  std::vector<size_t> order = SortedIndices(spans);
  std::map<int32_t, uint64_t> base = TrackBases(spans);

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  auto append_event = [&](const std::string& body) {
    if (!first) out += ",";
    first = false;
    out += "\n" + body;
  };

  // Named thread tracks: tid 0 is the host (service threads), tid k+1 is
  // simulated device k.
  for (const auto& [device, unused] : base) {
    (void)unused;
    char buf[160];
    if (device == kHostDevice) {
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                    "\"tid\":0,\"args\":{\"name\":\"host\"}}");
    } else {
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                    "\"tid\":%d,\"args\":{\"name\":\"device %d\"}}",
                    device + 1, device);
    }
    append_event(buf);
  }

  for (size_t i : order) {
    const TraceSpan& s = spans[i];
    std::string body = "{\"name\":\"" + JsonEscape(s.name) +
                       "\",\"ph\":\"X\",\"ts\":" +
                       NanosAsMicros(s.start_ns - base[s.device]) +
                       ",\"dur\":" + NanosAsMicros(DurationNs(s)) +
                       ",\"pid\":0,\"tid\":" +
                       std::to_string(s.device + 1) + ",\"args\":{";
    bool first_attr = true;
    for (const auto& [key, value] : s.attrs) {
      if (!first_attr) body += ",";
      first_attr = false;
      // One append per piece: GCC 12 at -O3 flags the concatenated
      // temporary with a false -Wrestrict.
      body += '"';
      body += JsonEscape(key);
      body += "\":\"";
      body += JsonEscape(value);
      body += '"';
    }
    body += "}}";
    append_event(body);
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

std::string Tracer::ToTreeString() const {
  std::vector<TraceSpan> spans = Snapshot();
  std::vector<size_t> order = SortedIndices(spans);
  std::map<int32_t, uint64_t> base = TrackBases(spans);

  // Children in export order under each parent (and roots likewise).
  std::vector<std::vector<size_t>> children(spans.size());
  std::vector<size_t> roots;
  for (size_t i : order) {
    int32_t p = spans[i].parent;
    if (p >= 0 && static_cast<size_t>(p) < spans.size())
      children[static_cast<size_t>(p)].push_back(i);
    else
      roots.push_back(i);
  }

  std::string out;
  auto emit = [&](auto&& self, size_t i, int depth) -> void {
    const TraceSpan& s = spans[i];
    out.append(static_cast<size_t>(depth) * 2, ' ');
    out += "- " + s.name;
    out += s.device == kHostDevice
               ? " [host]"
               : " [dev " + std::to_string(s.device) + "]";
    out += " start=" + NanosAsMillis(s.start_ns - base[s.device]) + "ms";
    out += " dur=" + NanosAsMillis(DurationNs(s)) + "ms";
    for (const auto& [key, value] : s.attrs)
      out += " " + key + "=" + value;
    out += "\n";
    for (size_t c : children[i]) self(self, c, depth + 1);
  };
  for (size_t r : roots) emit(emit, r, 0);
  return out;
}

}  // namespace gsi::obs
