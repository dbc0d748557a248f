#include "ckpt/tier/promo_pool.hpp"

#include <algorithm>
#include <utility>

#include "common/types.hpp"

namespace lck {

PromotionPool::PromotionPool(int workers, std::size_t quantum_bytes)
    : quantum_(quantum_bytes) {
  require(workers >= 1, "promotion pool: at least one worker required");
  require(quantum_bytes >= 1, "promotion pool: quantum must be >= 1");
  threads_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i)
    threads_.emplace_back([this] { worker_loop(); });
}

PromotionPool::~PromotionPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  // Workers drain every remaining task before exiting (see worker_loop):
  // a tiered store blocked in drain_promotions() is waiting on one of them.
  for (auto& t : threads_) t.join();
}

void PromotionPool::submit(int fair_key, std::size_t weight_bytes,
                           std::function<void()> task) {
  require(task != nullptr, "promotion pool: null task");
  {
    const std::lock_guard<std::mutex> lock(mu_);
    require(!stop_, "promotion pool: submit after shutdown");
    Task t;
    t.weight = std::max<std::size_t>(weight_bytes, 1);
    t.run = std::move(task);
    classes_[fair_key].q.push_back(std::move(t));
    ++queued_;
  }
  cv_.notify_one();
}

bool PromotionPool::take_next_locked(Task& out) {
  if (queued_ == 0) return false;
  // Deficit round robin: starting after the last served class (wrapping),
  // visit non-empty classes in key order, topping each visited class's
  // deficit up by one quantum; the first class whose head task fits its
  // deficit serves it. Each full cycle adds a quantum to every non-empty
  // class, so the loop terminates — some head weight is always reached.
  for (;;) {
    auto it = classes_.upper_bound(cursor_);
    if (it == classes_.end()) it = classes_.begin();
    cursor_ = it->first;
    ClassQueue& cls = it->second;
    cls.deficit += quantum_;
    if (cls.q.front().weight <= cls.deficit) {
      out = std::move(cls.q.front());
      cls.q.pop_front();
      cls.deficit -= out.weight;
      --queued_;
      // Erasing the drained class resets its deficit: an idle tenant must
      // not bank credit while it has nothing to promote.
      if (cls.q.empty()) classes_.erase(it);
      return true;
    }
  }
}

void PromotionPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [&] { return queued_ > 0 || stop_; });
    if (queued_ == 0 && stop_) return;
    Task task;
    if (!take_next_locked(task)) continue;
    lock.unlock();
    task.run();
    lock.lock();
    ++executed_;
  }
}

std::size_t PromotionPool::executed() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return executed_;
}

}  // namespace lck
