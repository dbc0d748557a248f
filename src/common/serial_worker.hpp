#pragma once
/// \file serial_worker.hpp
/// \brief The one background executor: a single thread that runs submitted
///        tasks one at a time, in submit order.
///
/// FTI hands the slow part of every asynchronous or multi-level checkpoint
/// to one background agent per rank, and so does this library: the
/// CheckpointManager drains staged snapshots into its store on a
/// SerialWorker, and a self-promoting TieredCheckpointStore copies
/// committed versions up its hierarchy on another. One thread per owner
/// also keeps the store contract that at most one background writer
/// touches a store at a time (checkpoint_store.hpp).
///
/// The thread starts with the worker, so owners create theirs on first use:
/// one that never goes asynchronous never spawns a thread. submit() returns
/// a future that carries the task's result or its exception; nothing a task
/// throws reaches the worker. The destructor runs every queued task, then
/// joins — so an owner declares its worker after everything the tasks
/// touch, and it is destroyed first.

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>

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

}  // namespace lck
