#pragma once
/// \file cluster_model.hpp
/// \brief Virtual-time model of the paper's 2,048-core Bebop environment:
///        PFS write/read bandwidth and parallel (de)compression throughput.
///
/// Calibration (all straight from the paper, so the virtual clock reproduces
/// its reported times rather than this host's):
///  - 78.8 GB traditional checkpoint takes ~120 s at 2,048 ranks
///    ⇒ aggregate PFS write bandwidth ≈ 0.657 GB/s (shared, so checkpoint
///    time grows linearly with total data — paper Figs. 4–6).
///  - SZ compression runs at 80 GB/s and decompression at 180 GB/s on
///    1,024 cores with ~90 % parallel efficiency (paper §5.3).

#include <cstddef>

#include "common/types.hpp"

namespace lck {

struct ClusterModel {
  int ranks = 2048;                ///< Logical MPI ranks.
  double pfs_write_bw = 0.8e9;     ///< Aggregate bytes/s to PFS.
  double pfs_read_bw = 0.8e9;      ///< Aggregate bytes/s from PFS.
  double pfs_latency = 1.0;        ///< Fixed per-operation seconds.
  /// Per-rank metadata/contention cost of a collective PFS operation
  /// (MPI-IO open/sync); this is what keeps small lossy checkpoints from
  /// being free and makes Figs. 4–6 grow linearly with ranks.
  double pfs_per_rank_overhead = 0.01;
  double compress_bw_per_rank = 80.0e9 / 1024.0;    ///< bytes/s/rank (SZ-class).
  double decompress_bw_per_rank = 180.0e9 / 1024.0; ///< bytes/s/rank (SZ-class).
  double parallel_efficiency = 0.9;
  /// gzip-class lossless throughput per rank (each rank compresses its own
  /// block independently).
  double lossless_compress_bw_per_rank = 60.0e6;
  double lossless_decompress_bw_per_rank = 200.0e6;
  /// Local staging copy for the async pipeline (FTI L1-style: each rank
  /// snapshots its protected state into node-local memory/SSD before the
  /// background drain to the PFS). Node-local, so it scales with ranks.
  double stage_bw_per_rank = 1.0e9;  ///< bytes/s/rank memcpy-class copy.
  double stage_latency = 0.05;       ///< Fixed per-stage seconds (barrier).
  /// L2 partner-copy tier (FTI L2): each rank ships its blob halves +
  /// parity to partner nodes over the interconnect. Node-local NIC-bound,
  /// so it scales with ranks like the staging copy but is slower.
  double partner_bw_per_rank = 1.25e9;  ///< bytes/s/rank interconnect copy.
  double partner_latency = 0.1;         ///< Fixed per-op seconds (exchange).
  /// Bytes moved per checkpoint byte at L2 (two halves + XOR parity = 1.5x).
  double partner_redundancy = 1.5;

  /// Seconds to write `bytes` to the PFS.
  [[nodiscard]] double write_seconds(double bytes) const noexcept {
    return pfs_latency + pfs_per_rank_overhead * ranks + bytes / pfs_write_bw;
  }
  /// Seconds to read `bytes` from the PFS.
  [[nodiscard]] double read_seconds(double bytes) const noexcept {
    return pfs_latency + pfs_per_rank_overhead * ranks + bytes / pfs_read_bw;
  }
  /// Seconds to lossy-compress `bytes` across all ranks in parallel.
  [[nodiscard]] double compress_seconds(double bytes) const noexcept {
    return bytes / (compress_bw_per_rank * ranks * parallel_efficiency);
  }
  /// Seconds to decompress `bytes` across all ranks in parallel.
  [[nodiscard]] double decompress_seconds(double bytes) const noexcept {
    return bytes / (decompress_bw_per_rank * ranks * parallel_efficiency);
  }
  /// Seconds for gzip-class lossless compression of `bytes` across ranks.
  [[nodiscard]] double lossless_compress_seconds(double bytes) const noexcept {
    return bytes / (lossless_compress_bw_per_rank * ranks * parallel_efficiency);
  }
  /// Seconds for gzip-class lossless decompression of `bytes` across ranks.
  [[nodiscard]] double lossless_decompress_seconds(double bytes) const noexcept {
    return bytes /
           (lossless_decompress_bw_per_rank * ranks * parallel_efficiency);
  }
  /// Seconds to stage `bytes` of raw state into the node-local double
  /// buffer — the only part of an async checkpoint that blocks the solver.
  [[nodiscard]] double stage_seconds(double bytes) const noexcept {
    return stage_latency +
           bytes / (stage_bw_per_rank * ranks * parallel_efficiency);
  }
  /// Seconds to write `bytes` to the node-local L1 tier (burst buffer /
  /// local SSD — same per-rank channel as the staging copy).
  [[nodiscard]] double local_write_seconds(double bytes) const noexcept {
    return stage_seconds(bytes);
  }
  /// Seconds to read `bytes` back from the node-local L1 tier.
  [[nodiscard]] double local_read_seconds(double bytes) const noexcept {
    return stage_seconds(bytes);
  }
  /// Seconds to place `bytes` on the L2 partner tier: the redundancy factor
  /// (halves + parity) rides the interconnect.
  [[nodiscard]] double partner_write_seconds(double bytes) const noexcept {
    return partner_latency + bytes * partner_redundancy /
                                 (partner_bw_per_rank * ranks *
                                  parallel_efficiency);
  }
  /// Seconds to gather `bytes` back from the partner tier on recovery (the
  /// surviving pieces total one blob's worth of traffic).
  [[nodiscard]] double partner_read_seconds(double bytes) const noexcept {
    return partner_latency +
           bytes / (partner_bw_per_rank * ranks * parallel_efficiency);
  }

  /// Model with the same per-rank characteristics at a different scale
  /// (PFS bandwidth is a shared resource and does not scale with ranks).
  [[nodiscard]] ClusterModel with_ranks(int r) const noexcept {
    ClusterModel m = *this;
    m.ranks = r;
    return m;
  }
};

}  // namespace lck
