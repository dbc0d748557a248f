#include "common/serial_worker.hpp"

namespace lck {

SerialWorker::SerialWorker() : thread_([this] { run(); }) {}

SerialWorker::~SerialWorker() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_one();
  thread_.join();
}

void SerialWorker::post(std::function<void()> job) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void SerialWorker::run() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      // Run every queued task before honouring stop_: an owner's destructor
      // relies on it to never strand a staged snapshot or a promotion.
      if (queue_.empty()) return;
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
  }
}

}  // namespace lck
