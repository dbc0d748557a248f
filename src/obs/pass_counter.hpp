#pragma once
/// \file pass_counter.hpp
/// \brief The one always-on counter: full-vector data passes performed by
///        the sparse/vector_ops kernels.
///
/// This is deliberately *not* a MetricsRegistry cell. The kernels are the
/// hottest code in the library and know nothing about any registry (there
/// may be several alive, or none); a single process-global relaxed atomic,
/// bumped once per kernel *call* (not per element), is the entire cost —
/// identical to the ad-hoc counter it replaces. The registry integration
/// happens one layer up: ResilientRunner samples this counter around the
/// solver loop and feeds the per-run delta into its registry as the
/// `solver.vector_passes` counter. Tests and benches read and reset it
/// directly through the functions below.

#include <atomic>
#include <cstdint>

namespace lck::obs {

namespace detail {
inline std::atomic<std::uint64_t> g_vector_passes{0};
}  // namespace detail

/// Record `n` full-vector passes (one relaxed add; called per kernel call).
inline void add_vector_passes(std::uint64_t n) noexcept {
  detail::g_vector_passes.fetch_add(n, std::memory_order_relaxed);
}

/// Total full-vector passes recorded by the process so far.
[[nodiscard]] inline std::uint64_t vector_passes() noexcept {
  return detail::g_vector_passes.load(std::memory_order_relaxed);
}

inline void reset_vector_passes() noexcept {
  detail::g_vector_passes.store(0, std::memory_order_relaxed);
}

}  // namespace lck::obs
