/// Peak-memory gate for the checkpoint stream: checkpoint + recover of a
/// large protected state must stay within a small constant of 1x the state
/// size, because the writer streams frames into the store sink and the
/// reader restores them one frame at a time — no whole-stream buffer.
///
///   build/bench/fig_stream_mem [--mode streaming|delta] [--state-mb <n>]
///                              [--dir <path>] [--json <path>]
///
/// streaming: one full checkpoint of the state into a DiskStore, then
///            recover.
/// delta:     two checkpoints with set_delta — the second is all
///            references — then recover through the chain.
///
/// One mode per process — peak RSS (getrusage ru_maxrss) is a process-wide
/// high-water mark. The exit code enforces peak RSS < 1.3x state.

#include <sys/resource.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "bench_common.hpp"
#include "ckpt/checkpoint_manager.hpp"

namespace {

double peak_rss_bytes() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0;  // Linux: KiB
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lck;
  using namespace lck::bench;

  std::string mode = "streaming";
  long state_mb = 256;
  std::string dir;
  JsonSink json;
  CliParser cli(argc, argv,
                "[--mode streaming|delta] [--state-mb <n>] [--dir <path>] "
                "[--json <path>]");
  while (cli.more()) {
    if (cli.match("--mode"))
      mode = cli.value();
    else if (cli.match("--state-mb"))
      state_mb = cli.number(8);
    else if (cli.match("--dir"))
      dir = cli.value();
    else if (cli.match("--json"))
      json = JsonSink(cli.value());
    else
      cli.die_unknown();
  }
  if (mode != "streaming" && mode != "delta")
    cli.die("--mode expects streaming or delta, got \"" + mode + "\"");
  if (dir.empty())
    dir = (std::filesystem::temp_directory_path() /
           ("lckpt_stream_mem_" + std::to_string(::getpid())))
              .string();

  banner("Checkpoint stream peak memory — " + mode + " checkpoints",
         "bounded-memory framed checkpoint writer and reader");

  const std::size_t state_bytes = static_cast<std::size_t>(state_mb) << 20;
  const std::size_t elems = state_bytes / sizeof(double);
  Vector x(elems);
  // Touch every page with non-trivial content so the state is resident and
  // the raw-fallback path stays honest (smooth data still frames fine).
  for (std::size_t i = 0; i < elems; ++i)
    x[i] = static_cast<double>(i % 8191) * 1e-4;

  const double rss_before = peak_rss_bytes();
  std::filesystem::remove_all(dir);
  NoneCompressor none;  // traditional scheme: the worst case for peak memory
  {
    CheckpointManager mgr(std::make_unique<DiskStore>(dir), &none);
    if (mode == "delta") mgr.set_delta(4);
    mgr.protect(0, "x", &x);
    mgr.checkpoint();
    if (mode == "delta") {
      const CheckpointRecord rec = mgr.checkpoint();  // unchanged: all refs
      std::printf("delta checkpoint: %zu of %zu chunks are references, "
                  "%zu bytes stored\n",
                  rec.chunks_deduped, rec.chunks, rec.stored_bytes);
    }
    for (auto& v : x) v = 0.0;
    mgr.recover();
  }
  std::filesystem::remove_all(dir);

  const double rss_peak = peak_rss_bytes();
  const double ratio = rss_peak / static_cast<double>(state_bytes);
  std::printf("state: %ld MiB, peak RSS before ckpt: %.1f MiB, after "
              "ckpt+recover: %.1f MiB\n",
              state_mb, rss_before / 1048576.0, rss_peak / 1048576.0);
  std::printf("peak RSS / state size: %.3f\n", ratio);

  json.text("mode", mode);
  json.scalar("state_mb", static_cast<double>(state_mb));
  json.scalar("peak_rss_mb", rss_peak / 1048576.0);
  json.scalar("rss_ratio", ratio);

  const bool ok = ratio < 1.3;
  std::printf("gate: %s peak RSS must stay < 1.3x state: %s\n", mode.c_str(),
              ok ? "PASS" : "FAIL");
  json.scalar("gate_ok", ok ? 1.0 : 0.0);
  json.write();
  return ok ? 0 : 1;
}
