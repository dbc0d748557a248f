#pragma once
/// \file timer.hpp
/// \brief Real-time measurement helpers: monotonic wall-clock and process
///        CPU-time stopwatches, plus a ScopedTimer that reports into a
///        metrics histogram.
///
/// Note: experiment *virtual* time (cluster-scale checkpoint I/O, failure
/// arrivals) lives on the ResilientRunner's virtual clock; these timers are
/// only for measuring real local compute such as compression throughput.
/// Everything wall-clock here is std::chrono::steady_clock — never the
/// system clock, which can step backwards under NTP and break durations.

#include <algorithm>
#include <chrono>
#include <ctime>
#include <limits>
#include <string>
#include <string_view>
#include <utility>

#include "obs/metrics.hpp"

namespace lck {

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(clock::now()) {}

  void reset() noexcept { start_ = clock::now(); }

  /// Seconds elapsed since construction or last reset().
  [[nodiscard]] double seconds() const noexcept {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Process CPU-time stopwatch (CLOCK_PROCESS_CPUTIME_ID): sums across
/// threads, so it measures *work*, not wall clock — the right basis for
/// fused-vs-unfused and overhead gates that must be stable on any core
/// count (bench/fig_kernel_speed, bench/fig_obs_overhead).
class CpuTimer {
 public:
  CpuTimer() : start_(now()) {}

  void reset() noexcept { start_ = now(); }

  [[nodiscard]] double seconds() const noexcept { return now() - start_; }

  /// Current process CPU time in seconds.
  [[nodiscard]] static double now() noexcept {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
  }

 private:
  double start_;
};

/// Best-of-`trials` CPU time for `reps` calls of f — the bench-gate
/// measurement primitive (minimum over trials rejects scheduler noise).
template <typename F>
[[nodiscard]] double time_cpu(F&& f, int reps, int trials) {
  double best = std::numeric_limits<double>::infinity();
  for (int t = 0; t < trials; ++t) {
    const CpuTimer timer;
    for (int r = 0; r < reps; ++r) f();
    best = std::min(best, timer.seconds());
  }
  return best;
}

/// RAII span timer: measures steady-clock seconds from construction to
/// destruction and observes them into a registry histogram. Null registry
/// => complete no-op (the zero-overhead-when-disabled contract), so call
/// sites need no branch of their own:
///
///   {
///     obs::ScopedTimer t(sink.metrics, "ckpt.build_seconds",
///                        {{"kind", "sync"}});
///     ... timed work ...
///   }
namespace obs {
class ScopedTimer {
 public:
  ScopedTimer(MetricsRegistry* registry, std::string_view name,
              LabelSet labels = {})
      : registry_(registry), labels_(std::move(labels)) {
    if (registry_ != nullptr) name_ = name;
  }
  ~ScopedTimer() {
    if (registry_ != nullptr)
      registry_->observe(name_, timer_.seconds(), labels_);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Seconds elapsed so far (for call sites that also want the value).
  [[nodiscard]] double seconds() const noexcept { return timer_.seconds(); }

 private:
  MetricsRegistry* registry_;
  std::string name_;
  LabelSet labels_;
  WallTimer timer_;
};
}  // namespace obs

}  // namespace lck
