#pragma once
/// \file promo_pool.hpp
/// \brief Promotion worker pool with byte-weighted deficit-round-robin
///        fairness across clients — where every self-promoting tiered
///        store runs its background promotion jobs.
///
/// A store either owns a one-worker pool or shares one across stores (the
/// CheckpointService installs its pool into every tenant's stack, so N
/// tenants do not spawn N threads). Each client submits under its own
/// fairness class (fair_key = job id), and workers pick the next task by
/// deficit round robin over the classes [Shreedhar & Varghese]: every
/// visit to a non-empty class tops its deficit up by one quantum, and the
/// class's head task runs once the accumulated deficit covers its byte
/// weight. A job checkpointing 100 MB blobs therefore cannot starve a job
/// checkpointing 1 MB blobs — between two heavy tasks the light class
/// accumulates enough deficit to run many of its own.
///
/// Tasks are opaque closures; the pool guarantees every accepted task runs
/// exactly once, including during shutdown (tiered stores block in
/// drain_promotions() until their submitted tasks complete — dropping one
/// would deadlock the store's destructor).

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

namespace lck {

class PromotionPool {
 public:
  /// `workers` threads drain the queues; `quantum_bytes` is the DRR
  /// increment per class visit (≈ the typical blob size keeps one task per
  /// visit; the scheduler is fair for any positive value).
  explicit PromotionPool(int workers = 2,
                         std::size_t quantum_bytes = std::size_t{1} << 20);
  ~PromotionPool();

  PromotionPool(const PromotionPool&) = delete;
  PromotionPool& operator=(const PromotionPool&) = delete;

  /// Enqueue `task` under fairness class `fair_key`. Weight 0 is treated
  /// as 1 byte so a zero-cost task still consumes schedule share.
  void submit(int fair_key, std::size_t weight_bytes,
              std::function<void()> task);

  /// Tasks executed to completion (cumulative).
  [[nodiscard]] std::size_t executed() const;

 private:
  struct Task {
    std::size_t weight = 1;
    std::function<void()> run;
  };
  /// One tenant's FIFO plus its DRR deficit. A drained class is erased,
  /// which also resets its deficit — an idle job cannot bank credit.
  struct ClassQueue {
    std::deque<Task> q;
    std::size_t deficit = 0;
  };

  void worker_loop();
  /// Pick the next runnable task under mu_, or return false when the
  /// queues are empty. Advances cursor_ and deficits per DRR.
  [[nodiscard]] bool take_next_locked(Task& out);

  const std::size_t quantum_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<int, ClassQueue> classes_;
  std::size_t queued_ = 0;    ///< Tasks across all classes.
  std::size_t executed_ = 0;  ///< Completed tasks (cumulative).
  int cursor_ = std::numeric_limits<int>::min();  ///< Last served class.
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace lck
