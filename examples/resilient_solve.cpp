/// Domain scenario 1 — the paper's headline use case: run an iterative
/// solver to convergence on a failure-prone (virtual) cluster and compare
/// the three checkpointing schemes end to end.
///
///   build/examples/resilient_solve [method] [--policy fixed|young|adaptive]
///                                  [--delta <chain-len>] [--jobs <n>]
///                                  [--trace <path>] [--metrics <path>]
///   (method: jacobi | cg | gmres | bicgstab; --delta enables chunked delta
///    checkpointing with at most <chain-len> deltas per full checkpoint)
///
/// Prints, per scheme: total virtual wall-clock, failures survived,
/// checkpoints taken, mean checkpoint size/time, and the fault-tolerance
/// overhead relative to the failure-free baseline.
///
/// --jobs N switches to multi-tenant mode: N concurrent copies of the lossy
/// tiered run share one CheckpointService (one content-addressed L3, per-job
/// namespaces); prints per-job and aggregate dedup stats. Delta chunking
/// defaults on in this mode — it is the unit of cross-job dedup.
///
/// --trace merges every scheme x mode run into one Chrome trace_event file
/// (one pid per run; open in Perfetto). --metrics writes one JSON object
/// keyed "<scheme>-<mode>" per run, each value a MetricsSnapshot.

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/experiment.hpp"
#include "core/resilient_runner.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/perf_model.hpp"
#include "svc/checkpoint_service.hpp"

int main(int argc, char** argv) {
  using namespace lck;
  std::string method = "cg";
  std::string policy = "fixed";
  std::string trace_path;
  std::string metrics_path;
  int delta_chain = -1;  // sentinel: default 0, but 4 in --jobs mode
  int jobs = 1;
  bench::CliParser cli(
      argc, argv,
      "[method] [--policy fixed|young|adaptive] [--delta <chain-len>] "
      "[--jobs <n>] [--trace <path>] [--metrics <path>]");
  while (cli.more()) {
    if (cli.match("--policy"))
      policy = cli.value();
    else if (cli.match("--delta"))
      delta_chain = static_cast<int>(cli.number(0));
    else if (cli.match("--jobs"))
      jobs = static_cast<int>(cli.number(1));
    else if (cli.match("--trace"))
      trace_path = cli.value();
    else if (cli.match("--metrics"))
      metrics_path = cli.value();
    else if (cli.positional())
      method = cli.take();
    else
      cli.die_unknown();
  }
  if (delta_chain < 0) delta_chain = jobs > 1 ? 4 : 0;

  const bool stationary = method == "jacobi";
  const LocalProblem p = make_local_problem(method, stationary ? 14 : 20,
                                            stationary ? 1e-4 : 1e-8, 200000,
                                            /*precondition=*/false);
  auto baseline = p.make_solver();
  baseline->solve();
  const double n_base = static_cast<double>(baseline->iteration());
  // Map the local run onto a 2,048-rank hour-scale execution.
  const double t_it = 3600.0 / n_base;
  const double baseline_seconds = 3600.0;
  std::printf("%s on %lld unknowns: failure-free N = %.0f iterations\n",
              method.c_str(), static_cast<long long>(p.a.rows()), n_base);
  std::printf("Virtual setting: 2,048 ranks, MTTI = 1 h, baseline %.0f s, "
              "pacing policy \"%s\", delta chain %d%s\n\n",
              baseline_seconds, policy.c_str(), delta_chain,
              delta_chain > 0 ? "" : " (full checkpoints)");

  const auto base_cfg = [&](CkptScheme scheme, CkptMode mode) {
    ResilienceConfig cfg;
    cfg.scheme = scheme;
    cfg.ckpt_mode = mode;
    cfg.compression.adaptive_error_bound = method == "gmres";
    cfg.compression.adaptive_theta = 0.25;
    cfg.failure.mtti_seconds = 3600.0;
    cfg.failure.seed = 2024;
    cfg.iteration_seconds = t_it;
    cfg.cluster = ClusterModel{};  // 2,048 ranks
    cfg.dynamic_scale = 78.8e9 / p.vector_bytes();
    cfg.static_bytes = 0.25 * 78.8e9;
    // Fixed pacing: first guess for the Young interval from an
    // uncompressed write (the paper's offline pick). The "young" and
    // "adaptive" policies derive their own interval from the perf model
    // and, for adaptive, the observed per-checkpoint costs.
    cfg.policy.name = policy;
    cfg.policy.interval_seconds =
        young_interval_seconds(cfg.cluster.write_seconds(78.8e9), 3600.0);
    // Chunked delta checkpointing: unchanged chunks between consecutive
    // checkpoints become references (lck.hpp re-exports DeltaConfig).
    cfg.delta.max_delta_chain = delta_chain;
    return cfg;
  };

  if (jobs > 1) {
    // ----- multi-tenant mode: N identical lossy tiered jobs, one service ----
    // Every job runs the same deterministic simulation, so their delta
    // chunks collide in the shared content-addressed L3: the aggregate
    // physical footprint stays near one job's, not N jobs'.
    svc::CheckpointService service;
    std::vector<svc::JobStats> stats(static_cast<std::size_t>(jobs));
    std::vector<char> ok(static_cast<std::size_t>(jobs), 0);
    std::vector<std::thread> threads;
    for (int j = 0; j < jobs; ++j)
      threads.emplace_back([&, j] {
        auto job = service.open_job({.name = "job" + std::to_string(j)});
        auto solver = p.make_solver();
        ResilienceConfig cfg = base_cfg(CkptScheme::kLossy,
                                        CkptMode::kTiered);
        cfg.store_factory = job.store_factory();
        const auto res = ResilientRunner(*solver, cfg).run();
        ok[static_cast<std::size_t>(j)] = res.converged ? 1 : 0;
        stats[static_cast<std::size_t>(j)] = job.stats();
      });
    for (auto& t : threads) t.join();

    std::printf("Multi-tenant: %d lossy tiered jobs through one "
                "CheckpointService (delta chain %d)\n\n", jobs, delta_chain);
    std::printf("%-8s %-10s %-9s %-11s %-13s\n", "job", "converged",
                "L3 wr", "dedup hits", "bytes saved");
    bool all_ok = true;
    for (int j = 0; j < jobs; ++j) {
      const auto& s = stats[static_cast<std::size_t>(j)];
      all_ok = all_ok && ok[static_cast<std::size_t>(j)] != 0;
      std::printf("%-8s %-10s %-9zu %-11zu %-13zu\n", s.name.c_str(),
                  ok[static_cast<std::size_t>(j)] != 0 ? "yes" : "NO",
                  s.l3_writes, s.dedup_hits, s.dedup_bytes_saved);
    }
    const std::size_t logical = service.l3().logical_bytes();
    const std::size_t physical = service.l3().physical_bytes();
    std::printf("\nAggregate shared tier: logical %zu B, physical %zu B "
                "(%.1fx dedup), %zu chunk hits\n",
                logical, physical,
                physical > 0 ? static_cast<double>(logical) /
                                   static_cast<double>(physical)
                             : 1.0,
                static_cast<std::size_t>(service.l3().dedup_hits()));
    std::printf("%s\n", all_ok ? "All jobs converged."
                               : "CONVERGENCE FAILURES — see rows above.");
    return all_ok ? 0 : 1;
  }

  std::printf("%-13s %-6s %-10s %-7s %-7s %-11s %-11s %-9s %-11s\n",
              "scheme", "mode", "total(s)", "fails", "ckpts", "ckpt MB",
              "blk ckpt s", "drain s", "overhead");
  // Per-run observability output, collected across the scheme x mode grid.
  std::vector<std::unique_ptr<obs::TraceRecorder>> traces;
  std::vector<std::string> run_names;
  std::vector<std::string> metrics_json;
  for (const CkptScheme scheme :
       {CkptScheme::kTraditional, CkptScheme::kLossless, CkptScheme::kLossy}) {
    for (const CkptMode mode :
         {CkptMode::kSync, CkptMode::kAsync, CkptMode::kTiered}) {
      auto solver = p.make_solver();
      ResilienceConfig cfg = base_cfg(scheme, mode);
      cfg.obs.trace = !trace_path.empty();
      cfg.obs.metrics = !metrics_path.empty();

      ResilientRunner runner(*solver, cfg);
      const auto res = runner.run();
      if (cfg.obs.any()) {
        std::string run = to_string(scheme);
        run += '-';
        run += to_string(mode);
        run_names.push_back(run);
        if (cfg.obs.metrics)
          metrics_json.push_back(runner.metrics()->snapshot().to_json());
        if (cfg.obs.trace) traces.push_back(runner.take_trace());
      }
      std::printf(
          "%-13s %-6s %-10.0f %-7d %-7d %-11.1f %-11.1f %-9.1f %9.1f%%\n",
          to_string(scheme), to_string(mode), res.virtual_seconds,
          res.failures, res.checkpoints,
          res.mean_ckpt_stored_bytes / 1e6 / 2048.0, res.mean_ckpt_seconds,
          res.checkpoints > 0
              ? res.ckpt_drain_seconds_total / res.checkpoints
              : 0.0,
          100.0 * (res.virtual_seconds - baseline_seconds) /
              baseline_seconds);
    }
  }
  std::printf(
      "\nLossy checkpointing trades a bounded perturbation of x (SZ, "
      "eb = 1e-4) for dramatically cheaper checkpoints (paper Theorem 1); "
      "the async pipeline then moves the remaining compress+write off the "
      "critical path, so only the staging copy ('blk ckpt s') blocks the "
      "solver while the drain overlaps iterations. The tiered mode drains "
      "into a node-local L1 tier and promotes to L2 (partner) and L3 (PFS) "
      "in the background; failures carry a severity and recover from the "
      "cheapest surviving tier, so the common process/node failures skip "
      "the PFS read entirely.\n");

  if (!trace_path.empty()) {
    std::vector<obs::TraceProcess> processes;
    for (std::size_t i = 0; i < traces.size(); ++i)
      processes.push_back({traces[i].get(), run_names[i]});
    obs::write_chrome_trace(trace_path, processes);
    std::printf("\nwrote Chrome trace (%zu runs) to %s\n", traces.size(),
                trace_path.c_str());
  }
  if (!metrics_path.empty()) {
    std::ofstream f(metrics_path, std::ios::trunc);
    if (!f) {
      std::fprintf(stderr, "cannot open --metrics path %s\n",
                   metrics_path.c_str());
      return 1;
    }
    f << "{\n";
    for (std::size_t i = 0; i < metrics_json.size(); ++i)
      f << "\"" << run_names[i] << "\": " << metrics_json[i]
        << (i + 1 < metrics_json.size() ? ",\n" : "\n");
    f << "}\n";
    if (!f) {
      std::fprintf(stderr, "short write to %s\n", metrics_path.c_str());
      return 1;
    }
    std::printf("wrote metrics for %zu runs to %s\n", metrics_json.size(),
                metrics_path.c_str());
  }
  return 0;
}
