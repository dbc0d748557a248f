#pragma once
/// \file serial_worker.hpp
/// \brief The one background executor: a single thread that runs submitted
///        tasks one at a time, in submit order; and the lane runner that
///        spreads one thread's loop over it and helper SerialWorkers.
///
/// FTI hands the slow part of every asynchronous or multi-level checkpoint
/// to one background agent per rank, and so does this library: the
/// CheckpointManager drains staged snapshots into its store on a
/// SerialWorker, and a self-promoting TieredCheckpointStore copies
/// committed versions up its hierarchy on another. One thread per owner
/// also keeps the store contract that at most one background writer
/// touches a store at a time (checkpoint_store.hpp).
///
/// A manager owns its drain worker plus, in a LaneRunner, up to W − 1
/// helper lanes (W: the writing thread's num_threads()), which compress
/// and hash the chunks of the stream being written. Lanes only run the
/// codec and the chunk hash; every frame, sink and store call stays on the
/// writing thread, so the one-writer store contract holds.
///
/// The thread starts with the worker, so owners create theirs on first use:
/// one that never goes asynchronous never spawns a thread. submit() returns
/// a future that carries the task's result or its exception; nothing a task
/// throws reaches the worker. The destructor runs every queued task, then
/// joins — so an owner declares its worker after everything the tasks
/// touch, and it is destroyed first.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace lck {

class SerialWorker {
 public:
  SerialWorker();
  ~SerialWorker();

  SerialWorker(const SerialWorker&) = delete;
  SerialWorker& operator=(const SerialWorker&) = delete;

  /// Queue `task` behind every earlier one. The future holds its result, or
  /// the exception it threw.
  template <class F>
  std::future<std::invoke_result_t<F&>> submit(F task) {
    using R = std::invoke_result_t<F&>;
    // std::function needs a copyable target; the packaged_task is not.
    auto job = std::make_shared<std::packaged_task<R()>>(std::move(task));
    std::future<R> result = job->get_future();
    post([job] { (*job)(); });
    return result;
  }

 private:
  void post(std::function<void()> job);
  void run();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::thread thread_;  // declared last: it starts once the rest exists
};

/// Runs one thread's loops side by side on that thread plus helper
/// SerialWorkers, the lanes. Helpers start on first need and are kept;
/// between loops they sleep in their worker's wait, so an idle runner
/// costs no CPU. One thread at a time may call run().
class LaneRunner {
 public:
  /// Call body(i) once for every i in [0, n) on min(lanes, n) lanes: the
  /// calling thread and helpers, each claiming the next unclaimed index.
  /// One lane runs the loop inline, and starts no helper. Every lane runs
  /// under the caller's stop request (stop_request.hpp). After a call
  /// throws, no lane claims another index; once every lane has ended, the
  /// first exception is rethrown.
  void run(std::size_t lanes, std::size_t n,
           const std::function<void(std::size_t)>& body);

 private:
  std::vector<std::unique_ptr<SerialWorker>> helpers_;
};

}  // namespace lck
