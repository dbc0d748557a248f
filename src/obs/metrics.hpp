#pragma once
/// \file metrics.hpp
/// \brief MetricsRegistry: named counters, gauges and log-bucketed
///        histograms with label support, under one lock.
///
/// Design goals, in priority order:
///
///  1. *Zero overhead when disabled.* Nothing here is global or ambient;
///     instrumented code holds a nullable pointer (see obs::Sink) and a
///     single branch skips everything. A disabled run allocates no registry
///     and touches no atomics on the instrumented paths.
///  2. *One lock, because the traffic is light.* Every series lives in one
///     map under one mutex. A `resilient_solve cg --metrics` registry takes
///     120-190 records per run from at most two threads; the busiest one,
///     fig_fleet's service registry at 64 jobs, about 14,000 from 65
///     threads in under a second. One mutex takes some 4 M records/s from
///     eight threads doing nothing else (4-vCPU Xeon), so series copied per
///     thread would only add code and a lookup per record.
///  3. *Deterministic snapshots.* snapshot() copies the series into maps
///     sorted by (name, labels); serializing the same state twice yields
///     byte-identical JSON / Prometheus text, so goldens can diff it.
///
/// Metric identity is (name, LabelSet); labels are sorted key=value pairs,
/// so `{tier=L2,codec=sz}` and `{codec=sz,tier=L2}` are the same series.
/// Counter values are doubles: the runner's legacy ResilienceResult sums
/// are double-valued (virtual seconds, cluster-scale bytes), and exact
/// cross-checking requires accumulating the *same* doubles in the *same*
/// order on both sides.
///
/// Histograms use power-of-two buckets: a value lands in the bucket whose
/// upper bound is the smallest 2^k >= value. That spans nanoseconds to
/// hours (or bytes to terabytes) in ~128 sparse buckets with no
/// configuration, and quantiles interpolate within a bucket (log-domain
/// accuracy of a factor of 2 at worst, far tighter in practice since
/// count/sum/min/max are exact).

#include <cstdint>
#include <initializer_list>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lck::obs {

/// Sorted, order-independent set of key=value labels naming one series.
class LabelSet {
 public:
  LabelSet() = default;
  LabelSet(std::initializer_list<std::pair<std::string, std::string>> kvs);

  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
  items() const noexcept {
    return items_;
  }
  [[nodiscard]] bool empty() const noexcept { return items_.empty(); }

  bool operator==(const LabelSet&) const = default;
  auto operator<=>(const LabelSet&) const = default;

  /// Canonical rendering: "" when empty, else "{k1=v1,k2=v2}".
  [[nodiscard]] std::string suffix() const;

 private:
  std::vector<std::pair<std::string, std::string>> items_;  // sorted by key
};

/// True when `value` can be a label value. Neither rendering escapes one, so
/// `{ } , = " \` or a byte below 0x20 would end or split its label; names
/// that configuration turns into label values are checked with this where
/// they enter.
[[nodiscard]] bool is_label_value(std::string_view value) noexcept;

/// View of one histogram series.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< Meaningless while count == 0.
  double max = 0.0;
  /// (upper bound, count) per non-empty power-of-two bucket, ascending.
  /// Values <= 0 and NaN land in a bucket with upper bound 0; values above
  /// 2^1023, +inf included, in none (they count only in `count`).
  std::vector<std::pair<double, std::uint64_t>> buckets;

  /// Quantile estimate (q in [0,1]) by linear interpolation inside the
  /// bucket containing the q-th observation, clamped to [min, max].
  [[nodiscard]] double quantile(double q) const noexcept;
  [[nodiscard]] double mean() const noexcept {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
};

/// Immutable, deterministic snapshot of a registry. Keys are the series'
/// full name: name + labels.suffix().
struct MetricsSnapshot {
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  [[nodiscard]] double counter(std::string_view full_name) const noexcept;
  [[nodiscard]] const HistogramSnapshot* histogram(
      std::string_view full_name) const noexcept;

  /// Sum of every counter series whose base name (the part before any '{')
  /// equals `base` — i.e. summed across label sets.
  [[nodiscard]] double counter_total(std::string_view base) const noexcept;
  /// Sum across every histogram series of `base`.
  [[nodiscard]] double hist_sum_total(std::string_view base) const noexcept;

  /// Pretty-printed JSON object (stable key order, %.17g doubles — enough
  /// to round-trip, so identical state serializes identically).
  [[nodiscard]] std::string to_json() const;
  /// Prometheus text exposition: '.' in names becomes '_', histograms
  /// expand to cumulative _bucket{le=...}/_sum/_count series, and each
  /// family has one `# TYPE` line with all of its series under it.
  [[nodiscard]] std::string to_prometheus() const;
};

/// Metrics registry under one mutex. All recording methods are safe to call
/// from any thread; snapshot() is safe concurrently with recording.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Add `delta` to the counter series (name, labels).
  void add(std::string_view name, double delta, const LabelSet& labels = {});
  /// Record one observation into the histogram series (name, labels).
  void observe(std::string_view name, double value,
               const LabelSet& labels = {});
  /// Set the gauge series (name, labels) to `value` (last writer wins).
  void set_gauge(std::string_view name, double value,
                 const LabelSet& labels = {});

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  struct Hist {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::map<int, std::uint64_t> buckets;  ///< exponent -> count
  };
  struct Cell {
    bool has_counter = false;
    double counter = 0.0;
    Hist hist;  ///< A histogram series once hist.count > 0.
  };
  using Key = std::pair<std::string, LabelSet>;

  mutable std::mutex mu_;  ///< Guards cells_ and gauges_.
  std::map<Key, Cell> cells_;
  std::map<Key, double> gauges_;
};

}  // namespace lck::obs
