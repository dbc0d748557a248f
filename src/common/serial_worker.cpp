#include "common/serial_worker.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

#include "common/stop_request.hpp"

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

void LaneRunner::run(std::size_t lanes, std::size_t n,
                     const std::function<void(std::size_t)>& body) {
  lanes = std::min(lanes, n);
  if (lanes <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  while (helpers_.size() < lanes - 1)
    helpers_.push_back(std::make_unique<SerialWorker>());

  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr error;
  const auto lane = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        body(i);
      } catch (...) {
        next.store(n);
        const std::lock_guard<std::mutex> lock(error_mu);
        if (error == nullptr) error = std::current_exception();
      }
    }
  };
  {
    // Helpers do not inherit the caller's stop request, so each lane
    // installs it. Their tasks reference this frame, so they are joined
    // however this block is left, a throwing submit() included.
    const StopRequest* const stop = current_stop_request();
    struct Joined {
      std::vector<std::future<void>> lanes;
      ~Joined() {
        for (auto& f : lanes) f.wait();
      }
    } helping;
    helping.lanes.reserve(lanes - 1);
    for (std::size_t k = 0; k + 1 < lanes; ++k)
      helping.lanes.push_back(helpers_[k]->submit([&lane, stop] {
        const StopScope scope(stop);
        lane();
      }));
    lane();
  }
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace lck
