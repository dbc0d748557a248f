#pragma once
/// \file parallel_for.hpp
/// \brief Thin OpenMP wrappers so the rest of the library stays free of
///        pragmas and compiles (serially) without OpenMP.

#include <cstddef>

#include "common/types.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace lck {

/// Number of hardware threads OpenMP will use (1 without OpenMP).
inline int num_threads() noexcept {
#if defined(_OPENMP)
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Parallel loop over [begin, end) with static scheduling.
/// `body` receives the loop index. A range of one index runs inline: a
/// team started for it would only leave idle workers spinning.
template <typename Body>
void parallel_for(index_t begin, index_t end, Body&& body) {
#if defined(_OPENMP)
  if (end - begin <= 1) {
    for (index_t i = begin; i < end; ++i) body(i);
    return;
  }
#pragma omp parallel for schedule(static)
  for (index_t i = begin; i < end; ++i) body(i);
#else
  for (index_t i = begin; i < end; ++i) body(i);
#endif
}

// Reductions live in sparse/vector_ops.hpp (detail::deterministic_reduce):
// an OpenMP `reduction` clause reassociates floating-point sums per thread
// count, which would make solver trajectories machine-dependent, so the
// convenient-but-irreproducible helpers were removed rather than kept
// available for accidental reintroduction.

}  // namespace lck
