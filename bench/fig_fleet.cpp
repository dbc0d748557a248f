/// Beyond the paper: a multi-tenant checkpoint fleet. N concurrent jobs —
/// a mix of Poisson and KKT problems across the three schemes — share one
/// CheckpointService: a single content-addressed L3 with per-job
/// namespaces; each job's runner decides and executes its own promotions.
///
///   build/bench/fig_fleet [--json <path>]
///
/// For N in {1, 4, 16, 64}: job throughput (jobs/s), aggregate L3 logical
/// vs physical bytes, cross-job dedup hit rate and p99 shared-tier write
/// latency under contention. Solo per-flavor baselines anchor the headline
/// claim: the fleet's physical bytes grow with the number of *distinct*
/// problems, not the number of jobs.
///
/// Exit code enforces the claim: at N = 16 the shared tier must hold less
/// than 0.5x the sum of the 16 jobs' solo physical footprints, and every
/// job in every fleet must converge.

#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/timer.hpp"
#include "core/experiment.hpp"
#include "core/resilient_runner.hpp"
#include "obs/metrics.hpp"
#include "sparse/gen/kkt.hpp"
#include "svc/checkpoint_service.hpp"

namespace {

using namespace lck;

/// One tenant archetype: a problem, a solver and a checkpoint scheme.
/// Jobs of the same flavor run bit-identical simulations, so their delta
/// chunks collide in the shared tier — the fleet's dedup opportunity.
struct Flavor {
  std::string name;
  CkptScheme scheme = CkptScheme::kLossy;
  LocalProblem problem;
};

std::vector<Flavor> make_flavors() {
  std::vector<Flavor> flavors;
  flavors.push_back({"poisson-cg-lossy", CkptScheme::kLossy,
                     make_local_problem("cg", 8, 1e-8, 200000, false)});
  flavors.push_back({"poisson-bicgstab-lossless", CkptScheme::kLossless,
                     make_local_problem("bicgstab", 8, 1e-8, 200000, false)});
  flavors.push_back({"poisson-minres-trad", CkptScheme::kTraditional,
                     make_local_problem("minres", 8, 1e-8, 200000, false)});
  // Saddle-point stand-in for the constrained problems in the fleet mix.
  Flavor kkt{"kkt-gmres-lossy", CkptScheme::kLossy, {}};
  kkt.problem.a = kkt_matrix({.grid_n = 6});
  const Vector xt = smooth_solution(kkt.problem.a.rows());
  kkt.problem.b.assign(xt.size(), 0.0);
  kkt.problem.a.multiply(xt, kkt.problem.b);
  kkt.problem.spec.method = "gmres";
  kkt.problem.spec.options.rtol = 1e-6;
  kkt.problem.spec.options.max_iterations = 200000;
  flavors.push_back(std::move(kkt));
  return flavors;
}

/// Short failure-rich virtual run (same shape as the tiered test config):
/// MTTI well below the run length so every job recovers several times.
ResilienceConfig fleet_config(const Flavor& flavor,
                              svc::JobHandle& job) {
  ResilienceConfig cfg;
  cfg.scheme = flavor.scheme;
  cfg.ckpt_mode = CkptMode::kTiered;
  cfg.policy.interval_seconds = 20.0;
  cfg.failure.mtti_seconds = 60.0;
  cfg.failure.seed = 7;
  cfg.iteration_seconds = 5.0;
  cfg.dynamic_scale = 1.0;
  cfg.cluster.ranks = 64;
  cfg.cluster.pfs_per_rank_overhead = 0.001;
  cfg.static_bytes = 1e6;
  cfg.tiered.l2_promote_every = 1;
  cfg.tiered.l3_promote_every = 2;
  // Small delta chunks are the unit of cross-job dedup: jobs of one flavor
  // write identical chunks, which the shared L3 stores once.
  cfg.delta.max_delta_chain = 4;
  cfg.delta.chunk_elems = 256;
  cfg.store_factory = job.store_factory();
  return cfg;
}

/// Merge every per-job `svc.l3_write_seconds{job=...}` series into one
/// histogram so the fleet-wide p99 reflects all shared-tier writes.
obs::HistogramSnapshot merged_l3_write_hist(const obs::MetricsSnapshot& snap) {
  obs::HistogramSnapshot merged;
  std::map<double, std::uint64_t> buckets;
  bool first = true;
  for (const auto& [name, h] : snap.histograms) {
    if (name.rfind("svc.l3_write_seconds", 0) != 0) continue;
    merged.count += h.count;
    merged.sum += h.sum;
    if (first || h.min < merged.min) merged.min = h.min;
    if (first || h.max > merged.max) merged.max = h.max;
    first = false;
    for (const auto& [bound, count] : h.buckets) buckets[bound] += count;
  }
  merged.buckets.assign(buckets.begin(), buckets.end());
  return merged;
}

struct FleetResult {
  int jobs = 0;
  double wall_seconds = 0.0;
  bool all_converged = true;
  std::size_t logical_bytes = 0;
  std::size_t physical_bytes = 0;
  std::uint64_t dedup_hits = 0;
  std::uint64_t chunks = 0;
  double p99_l3_write_seconds = 0.0;
};

FleetResult run_fleet(const std::vector<Flavor>& flavors, int jobs) {
  svc::CheckpointService service;
  std::vector<std::thread> threads;
  std::atomic<bool> converged{true};
  const WallTimer timer;
  for (int j = 0; j < jobs; ++j)
    threads.emplace_back([&, j] {
      const Flavor& flavor =
          flavors[static_cast<std::size_t>(j) % flavors.size()];
      auto job = service.open_job(
          {.name = flavor.name + "-" + std::to_string(j)});
      auto solver = flavor.problem.make_solver();
      const auto res =
          ResilientRunner(*solver, fleet_config(flavor, job)).run();
      if (!res.converged) converged.store(false);
    });
  for (auto& t : threads) t.join();

  FleetResult r;
  r.jobs = jobs;
  r.wall_seconds = timer.seconds();
  r.all_converged = converged.load();
  r.logical_bytes = service.l3().logical_bytes();
  r.physical_bytes = service.l3().physical_bytes();
  r.dedup_hits = service.l3().dedup_hits();
  const auto snap = service.metrics().snapshot();
  r.chunks = static_cast<std::uint64_t>(service.l3().chunk_count()) +
             r.dedup_hits;
  const obs::HistogramSnapshot hist = merged_l3_write_hist(snap);
  r.p99_l3_write_seconds = hist.count > 0 ? hist.quantile(0.99) : 0.0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lck;
  using namespace lck::bench;

  JsonSink json;
  CliParser cli(argc, argv, "[--json <path>]");
  while (cli.more()) {
    if (cli.match("--json"))
      json = JsonSink(cli.value());
    else
      cli.die_unknown();
  }

  banner("Multi-tenant checkpoint fleet: shared dedup L3 vs job count",
         "Beyond Tao et al., HPDC'18 (multi-tenant checkpoint service)");

  const std::vector<Flavor> flavors = make_flavors();

  // ----- solo baselines: one job per flavor, each in its own service --------
  std::printf("Solo baselines (one job, fresh service)\n");
  std::printf("%-28s %-10s %-14s %-14s\n", "flavor", "converged",
              "logical B", "physical B");
  std::vector<std::size_t> solo_physical;
  bool solos_converged = true;
  for (std::size_t f = 0; f < flavors.size(); ++f) {
    svc::CheckpointService service;
    bool conv = false;
    {
      auto job = service.open_job({.name = flavors[f].name});
      auto solver = flavors[f].problem.make_solver();
      conv = ResilientRunner(*solver, fleet_config(flavors[f], job))
                 .run()
                 .converged;
    }
    solos_converged = solos_converged && conv;
    solo_physical.push_back(service.l3().physical_bytes());
    std::printf("%-28s %-10s %-14zu %-14zu\n", flavors[f].name.c_str(),
                conv ? "yes" : "NO", service.l3().logical_bytes(),
                service.l3().physical_bytes());
  }

  // ----- fleets --------------------------------------------------------------
  std::printf("\nFleets (N concurrent jobs, one shared service)\n");
  std::printf("%-6s %-9s %-10s %-13s %-13s %-9s %-12s\n", "N", "jobs/s",
              "converged", "logical B", "physical B", "hit rate",
              "p99 L3 wr s");
  std::vector<std::vector<double>> fleet_rows;
  FleetResult fleet16;
  bool fleets_converged = true;
  for (const int n : {1, 4, 16, 64}) {
    const FleetResult r = run_fleet(flavors, n);
    if (n == 16) fleet16 = r;
    fleets_converged = fleets_converged && r.all_converged;
    const double hit_rate =
        r.chunks > 0 ? static_cast<double>(r.dedup_hits) /
                           static_cast<double>(r.chunks)
                     : 0.0;
    std::printf("%-6d %-9.2f %-10s %-13zu %-13zu %-9.3f %-12.6f\n", r.jobs,
                static_cast<double>(r.jobs) / r.wall_seconds,
                r.all_converged ? "all" : "SOME NOT", r.logical_bytes,
                r.physical_bytes, hit_rate, r.p99_l3_write_seconds);
    fleet_rows.push_back({static_cast<double>(r.jobs),
                          static_cast<double>(r.jobs) / r.wall_seconds,
                          r.all_converged ? 1.0 : 0.0,
                          static_cast<double>(r.logical_bytes),
                          static_cast<double>(r.physical_bytes), hit_rate,
                          r.p99_l3_write_seconds});
  }

  // ----- the sublinear-bytes claim ------------------------------------------
  double solo_sum_16 = 0.0;
  for (int j = 0; j < 16; ++j)
    solo_sum_16 += static_cast<double>(
        solo_physical[static_cast<std::size_t>(j) % solo_physical.size()]);
  const double ratio =
      static_cast<double>(fleet16.physical_bytes) / solo_sum_16;
  const bool sublinear = ratio < 0.5;
  const bool all_converged = solos_converged && fleets_converged;
  std::printf(
      "\nAt N = 16: shared-tier physical %zu B vs %.0f B if each job kept "
      "its solo footprint — ratio %.3f %s (claim: < 0.5)\n",
      fleet16.physical_bytes, solo_sum_16, ratio,
      sublinear ? "(holds)" : "(VIOLATED)");
  std::printf("%s\n", all_converged
                          ? "All jobs converged in every fleet."
                          : "CONVERGENCE FAILURES — see rows above.");
  std::printf(
      "\nThe shared content-addressed tier stores each distinct problem's "
      "chunks once: growing the fleet re-references resident chunks instead "
      "of duplicating them, so aggregate physical bytes track the number of "
      "distinct workloads while logical bytes grow with job count.\n");

  json.table("fleet",
             {"jobs", "jobs_per_sec", "all_converged", "logical_bytes",
              "physical_bytes", "dedup_hit_rate", "p99_l3_write_seconds"},
             fleet_rows);
  json.scalar("solo_physical_sum_16", solo_sum_16);
  json.scalar("fleet16_physical_bytes",
              static_cast<double>(fleet16.physical_bytes));
  json.scalar("sublinear_ratio", ratio);
  json.scalar("sublinear_holds", sublinear ? 1.0 : 0.0);
  json.scalar("all_converged", all_converged ? 1.0 : 0.0);
  json.write();
  return sublinear && all_converged ? 0 : 1;
}
