#pragma once
/// \file observability.hpp
/// \brief ObservabilityConfig (the runtime gate) and obs::Sink
///        (the nullable handle instrumented code records through).
///
/// This header is deliberately lightweight — it forward-declares the
/// registry and recorder so hot headers (resilient_runner.hpp, the ckpt
/// layer) can carry a Sink member without pulling in the metrics/trace
/// implementation headers. Instrumentation sites include obs/metrics.hpp
/// and obs/trace.hpp from their .cpp files only.
///
/// The zero-overhead-when-disabled contract: with `metrics` and `trace`
/// both false (the default), the runner allocates neither object, every
/// Sink stays {nullptr, nullptr}, and each instrumentation site is one
/// pointer test. Spans observe, never branch — no simulation decision may
/// read observability state, so enabling tracing cannot perturb bit-stable
/// reruns (tests/test_obs.cpp proves streams and results stay
/// byte-identical either way).

namespace lck::obs {

class MetricsRegistry;
class TraceRecorder;

/// Runtime gate for the observability subsystem.
struct ObservabilityConfig {
  /// Allocate a MetricsRegistry and record counters/histograms/gauges.
  bool metrics = false;
  /// Allocate a TraceRecorder (default event cap) and record
  /// checkpoint-lifecycle spans.
  bool trace = false;

  [[nodiscard]] bool any() const noexcept { return metrics || trace; }
};

/// Nullable recording handle passed down the checkpoint stack. Copyable,
/// two pointers; both null means "off" and every recording site guards
/// with one branch. The pointed-to objects are owned by the runner (or the
/// embedding application) and must outlive every component holding the
/// sink.
struct Sink {
  MetricsRegistry* metrics = nullptr;
  TraceRecorder* trace = nullptr;

  [[nodiscard]] bool enabled() const noexcept {
    return metrics != nullptr || trace != nullptr;
  }
};

}  // namespace lck::obs
