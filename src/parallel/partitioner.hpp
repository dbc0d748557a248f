#pragma once
/// \file partitioner.hpp
/// \brief Block decomposition of a global index range over logical ranks.
///
/// The paper runs with up to 2,048 MPI ranks; this repo executes the solver
/// mathematics on one node but still needs per-rank quantities (per-process
/// checkpoint sizes in Table 3, per-rank compression throughput in the PFS
/// model). The Partitioner provides the same contiguous block decomposition
/// PETSc uses for its parallel vectors.

#include <cstddef>

#include "common/types.hpp"

namespace lck {

/// Contiguous block partition of [0, n) over `ranks` logical ranks.
/// The first (n % ranks) ranks hold one extra element, matching PETSc's
/// default layout.
class Partitioner {
 public:
  Partitioner(index_t n, int ranks) : n_(n), ranks_(ranks) {
    require(n >= 0, "partitioner: negative size");
    require(ranks >= 1, "partitioner: need at least one rank");
  }

  [[nodiscard]] int ranks() const noexcept { return ranks_; }

  /// Number of elements owned by `rank`.
  [[nodiscard]] index_t local_size(int rank) const noexcept {
    const index_t base = n_ / ranks_;
    const index_t extra = n_ % ranks_;
    return base + (rank < extra ? 1 : 0);
  }

  /// First global index owned by `rank`.
  [[nodiscard]] index_t offset(int rank) const noexcept {
    const index_t base = n_ / ranks_;
    const index_t extra = n_ % ranks_;
    const index_t r = rank;
    return r * base + (r < extra ? r : extra);
  }

  /// Rank owning global index `i`.
  [[nodiscard]] int owner(index_t i) const noexcept {
    const index_t base = n_ / ranks_;
    const index_t extra = n_ % ranks_;
    const index_t cutoff = extra * (base + 1);
    if (i < cutoff) return static_cast<int>(i / (base + 1));
    return static_cast<int>(extra + (i - cutoff) / base);
  }

  /// Largest local size across ranks (load-balance bound).
  [[nodiscard]] index_t max_local_size() const noexcept {
    return local_size(0);
  }

 private:
  index_t n_;
  int ranks_;
};

}  // namespace lck
