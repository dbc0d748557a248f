#pragma once
/// \file lck.hpp
/// \brief The stable public API surface of lckpt in one include.
///
/// Applications embedding the library should include this header (and
/// nothing under src/ directly); everything an application needs to build,
/// protect and run a resilient solve is reachable from here:
///
///  - problem setup:   CsrMatrix, generators (poisson3d, kkt), Matrix
///                     Market I/O, make_solver / make_preconditioner
///  - checkpointing:   CheckpointManager (Protect/Checkpoint/Recover),
///                     stores (memory, disk, tiered, dedup), make_compressor,
///                     one framed, chunk-addressed wire format
///                     (frame_stream.hpp; every chunk is compressed by the
///                     manager's one codec), delta checkpoints (DeltaConfig
///                     / set_delta)
///  - pacing:          CheckpointPolicy + make_policy ("fixed" | "young" |
///                     "adaptive"), PolicyContext
///  - execution:       ResilientRunner + ResilienceConfig (nested
///                     CompressionConfig / FailureConfig / TieredConfig /
///                     PolicyConfig sub-structs)
///  - analysis:        the paper's perf_model formulas and the calibrated
///                     ClusterModel / experiment builders
///  - observability:   ObservabilityConfig (ResilienceConfig::obs),
///                     MetricsRegistry / MetricsSnapshot (JSON + Prometheus
///                     text), TraceRecorder + write_chrome_trace (Perfetto)
///  - multi-tenancy:   svc::CheckpointService + JobHandle (shared dedup L3,
///                     per-job namespaces, per-job dedup accounting and
///                     metrics)
///
/// Headers outside this set (individual solver classes, compressor
/// internals, tier stores) remain usable but are implementation surface and
/// may move between releases.

#include "ckpt/checkpoint_manager.hpp"
#include "ckpt/checkpoint_store.hpp"
#include "ckpt/chunk/dedup_store.hpp"
#include "ckpt/frame_stream.hpp"
#include "common/severity.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "compress/compressor.hpp"
#include "core/ckpt_policy.hpp"
#include "core/experiment.hpp"
#include "core/resilient_runner.hpp"
#include "obs/metrics.hpp"
#include "obs/observability.hpp"
#include "obs/trace.hpp"
#include "sim/cluster_model.hpp"
#include "sim/failure.hpp"
#include "sim/perf_model.hpp"
#include "solvers/factory.hpp"
#include "sparse/csr.hpp"
#include "sparse/gen/kkt.hpp"
#include "sparse/gen/poisson3d.hpp"
#include "sparse/matrix_market.hpp"
#include "svc/checkpoint_service.hpp"
