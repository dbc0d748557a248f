#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace lck::obs {
namespace {

/// Bucket exponent for a histogram value: the smallest k with 2^k >= v.
/// Values <= 0 (possible for deltas or degenerate timings) and NaN get a
/// sentinel bucket below every real one so they still count toward
/// quantiles. Values above kLargestBound have no finite bound and get no
/// bucket (see observe()).
constexpr int kNonPositiveBucket = -1100;  // below 2^-1074 (min subnormal)
constexpr double kLargestBound = 0x1p1023;

int bucket_exponent(double v) noexcept {
  if (!(v > 0.0)) return kNonPositiveBucket;
  int e = 0;
  const double m = std::frexp(v, &e);  // v = m * 2^e, m in [0.5, 1)
  // m == 0.5 means v is exactly 2^(e-1): its own upper bound.
  return m == 0.5 ? e - 1 : e;
}

double bucket_upper_bound(int e) noexcept {
  if (e == kNonPositiveBucket) return 0.0;
  return std::ldexp(1.0, e);
}

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  std::string s{buf};
  if (s.find("inf") != std::string::npos ||
      s.find("nan") != std::string::npos)
    return "null";
  return s;
}

/// The text format's spelling of a sample value: JSON has no non-finite
/// numbers, but Prometheus reads `+Inf`, `-Inf` and `NaN`.
std::string prom_double(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  return fmt_double(v);
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
      continue;
    }
    out += c;
  }
  return out;
}

std::string_view base_name(std::string_view full) noexcept {
  const auto brace = full.find('{');
  return brace == std::string_view::npos ? full : full.substr(0, brace);
}

/// Prometheus metric names allow [a-zA-Z0-9_:]; map everything else to '_'.
std::string prom_name(std::string_view name) {
  std::string out{name};
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

std::string prom_labels(const std::string& full_name,
                        const std::string& extra = {}) {
  const auto brace = full_name.find('{');
  std::string body;
  if (brace != std::string::npos) {
    // Re-render {k=v,...} as {k="v",...}.
    std::string_view inner{full_name};
    inner = inner.substr(brace + 1, full_name.size() - brace - 2);
    while (!inner.empty()) {
      const auto comma = inner.find(',');
      const std::string_view kv = inner.substr(0, comma);
      const auto eq = kv.find('=');
      if (!body.empty()) body += ',';
      body += std::string{kv.substr(0, eq)} + "=\"" +
              std::string{eq == std::string_view::npos ? std::string_view{}
                                                       : kv.substr(eq + 1)} +
              "\"";
      if (comma == std::string_view::npos) break;
      inner = inner.substr(comma + 1);
    }
  }
  if (!extra.empty()) {
    if (!body.empty()) body += ',';
    body += extra;
  }
  return body.empty() ? std::string{} : "{" + body + "}";
}

void prom_scalar(std::string& lines, const std::string& base,
                 const std::string& name, double v) {
  lines += base + prom_labels(name) + " " + prom_double(v) + "\n";
}

/// Cumulative _bucket{le=...} lines, then _sum and _count.
void prom_histogram(std::string& lines, const std::string& base,
                    const std::string& name, const HistogramSnapshot& h) {
  std::uint64_t cum = 0;
  for (const auto& [upper, n] : h.buckets) {
    cum += n;
    lines += base + "_bucket" +
             prom_labels(name, "le=\"" + prom_double(upper) + "\"") + " " +
             std::to_string(cum) + "\n";
  }
  lines += base + "_bucket" + prom_labels(name, "le=\"+Inf\"") + " " +
           std::to_string(h.count) + "\n";
  lines += base + "_sum" + prom_labels(name) + " " + prom_double(h.sum) + "\n";
  lines += base + "_count" + prom_labels(name) + " " +
           std::to_string(h.count) + "\n";
}

/// Appends each family, in order of its Prometheus name: its `# TYPE` line,
/// then the sample lines `render` writes for each of its series. A family's
/// series need not be adjacent in `series` ("a.b" < "a.b_c" < "a.b{x=1}"),
/// and the text format wants them in one group under a single TYPE line.
template <typename Value, typename Render>
void append_families(std::string& out,
                     const std::map<std::string, Value>& series,
                     std::string_view type, Render render) {
  std::map<std::string, std::string> families;  // name -> sample lines
  for (const auto& [name, v] : series) {
    const std::string base = prom_name(base_name(name));
    render(families[base], base, name, v);
  }
  for (const auto& [base, lines] : families)
    out += "# TYPE " + base + " " + std::string{type} + "\n" + lines;
}

}  // namespace

// ----- LabelSet -------------------------------------------------------------

LabelSet::LabelSet(
    std::initializer_list<std::pair<std::string, std::string>> kvs)
    : items_(kvs) {
  std::sort(items_.begin(), items_.end());
  items_.erase(std::unique(items_.begin(), items_.end(),
                           [](const auto& a, const auto& b) {
                             return a.first == b.first;
                           }),
               items_.end());
}

std::string LabelSet::suffix() const {
  if (items_.empty()) return {};
  std::string out = "{";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) out += ',';
    out += items_[i].first;
    out += '=';
    out += items_[i].second;
  }
  out += '}';
  return out;
}

bool is_label_value(std::string_view value) noexcept {
  return std::none_of(value.begin(), value.end(), [](char c) {
    return static_cast<unsigned char>(c) < 0x20 ||
           std::string_view{"{},=\"\\"}.find(c) != std::string_view::npos;
  });
}

// ----- HistogramSnapshot ----------------------------------------------------

double HistogramSnapshot::quantile(double q) const noexcept {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  std::uint64_t seen = 0;
  double lower = 0.0;  // lower edge of the current bucket
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const auto [upper, n] = buckets[i];
    const double lo = i == 0 ? (upper > 0.0 ? upper / 2.0 : upper) : lower;
    if (static_cast<double>(seen + n) >= target) {
      const double frac =
          n > 0 ? (target - static_cast<double>(seen)) / static_cast<double>(n)
                : 0.0;
      const double v = lo + frac * (upper - lo);
      return std::clamp(v, min, max);
    }
    seen += n;
    lower = upper;
  }
  return max;
}

// ----- MetricsSnapshot ------------------------------------------------------

double MetricsSnapshot::counter(std::string_view full_name) const noexcept {
  const auto it = counters.find(std::string{full_name});
  return it != counters.end() ? it->second : 0.0;
}

const HistogramSnapshot* MetricsSnapshot::histogram(
    std::string_view full_name) const noexcept {
  const auto it = histograms.find(std::string{full_name});
  return it != histograms.end() ? &it->second : nullptr;
}

double MetricsSnapshot::counter_total(std::string_view base) const noexcept {
  double total = 0.0;
  for (const auto& [name, v] : counters)
    if (base_name(name) == base) total += v;
  return total;
}

double MetricsSnapshot::hist_sum_total(std::string_view base) const noexcept {
  double total = 0.0;
  for (const auto& [name, h] : histograms)
    if (base_name(name) == base) total += h.sum;
  return total;
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters) {
    out += first ? "\n" : ",\n";
    out += "    \"" + json_escape(name) + "\": " + fmt_double(v);
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : gauges) {
    out += first ? "\n" : ",\n";
    out += "    \"" + json_escape(name) + "\": " + fmt_double(v);
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    out += first ? "\n" : ",\n";
    out += "    \"" + json_escape(name) + "\": {\"count\": " +
           std::to_string(h.count) + ", \"sum\": " + fmt_double(h.sum) +
           ", \"min\": " + fmt_double(h.min) +
           ", \"max\": " + fmt_double(h.max) +
           ", \"p50\": " + fmt_double(h.quantile(0.5)) +
           ", \"p99\": " + fmt_double(h.quantile(0.99)) + ", \"buckets\": [";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i > 0) out += ", ";
      out += "[" + fmt_double(h.buckets[i].first) + ", " +
             std::to_string(h.buckets[i].second) + "]";
    }
    out += "]}";
    first = false;
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

std::string MetricsSnapshot::to_prometheus() const {
  std::string out;
  append_families(out, counters, "counter", prom_scalar);
  append_families(out, gauges, "gauge", prom_scalar);
  append_families(out, histograms, "histogram", prom_histogram);
  return out;
}

// ----- MetricsRegistry ------------------------------------------------------

void MetricsRegistry::add(std::string_view name, double delta,
                          const LabelSet& labels) {
  const std::lock_guard<std::mutex> lock(mu_);
  Cell& cell = cells_[Key{std::string{name}, labels}];
  cell.has_counter = true;
  cell.counter += delta;
}

void MetricsRegistry::observe(std::string_view name, double value,
                              const LabelSet& labels) {
  const std::lock_guard<std::mutex> lock(mu_);
  Hist& h = cells_[Key{std::string{name}, labels}].hist;
  h.min = h.count == 0 ? value : std::min(h.min, value);
  h.max = h.count == 0 ? value : std::max(h.max, value);
  ++h.count;
  h.sum += value;
  // Above 2^1023, +inf included, the next bound would be 2^1024 = inf: such
  // a value counts only in the `+Inf` line and `_count`.
  if (!(value > kLargestBound)) ++h.buckets[bucket_exponent(value)];
}

void MetricsRegistry::set_gauge(std::string_view name, double value,
                                const LabelSet& labels) {
  const std::lock_guard<std::mutex> lock(mu_);
  gauges_[Key{std::string{name}, labels}] = value;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, v] : gauges_)
    snap.gauges[key.first + key.second.suffix()] = v;
  for (const auto& [key, cell] : cells_) {
    const std::string full = key.first + key.second.suffix();
    if (cell.has_counter) snap.counters[full] = cell.counter;
    if (cell.hist.count == 0) continue;
    HistogramSnapshot& h = snap.histograms[full];
    h.count = cell.hist.count;
    h.sum = cell.hist.sum;
    h.min = cell.hist.min;
    h.max = cell.hist.max;
    h.buckets.reserve(cell.hist.buckets.size());
    for (const auto& [e, n] : cell.hist.buckets)
      h.buckets.emplace_back(bucket_upper_bound(e), n);
  }
  return snap;
}

}  // namespace lck::obs
