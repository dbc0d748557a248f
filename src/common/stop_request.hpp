#pragma once
/// \file stop_request.hpp
/// \brief Cooperative stopping of background work: an owner requests a
///        stop, and the work polls for it where it can unwind.
///
/// The work does not take the request as a parameter. Its thread installs
/// the request as the thread's current one with a StopScope, and code
/// anywhere below, codecs included, calls throw_if_stop_requested(). So the
/// request passes through any decorator that forwards Compressor::compress.
/// Threads do not inherit a scope: a loop that hands work to other threads
/// installs the request again on each of them, as LaneRunner does for its
/// helpers (serial_worker.hpp). With no scope on the calling thread,
/// throw_if_stop_requested() does nothing.

#include <atomic>
#include <stdexcept>

namespace lck {

/// Thrown by throw_if_stop_requested() once a stop is requested. Not a
/// corrupt_stream_error: nothing was malformed, the work was abandoned.
class stop_requested_error : public std::runtime_error {
 public:
  stop_requested_error() : std::runtime_error("lck: stop requested") {}
};

/// A stop request: the owner sets it, the work polls it.
using StopRequest = std::atomic<bool>;

namespace detail {
inline thread_local const StopRequest* thread_stop_request = nullptr;
}  // namespace detail

/// Installs `stop` (null for none) as the calling thread's current request
/// until the scope ends, then restores the one it replaced.
class StopScope {
 public:
  explicit StopScope(const StopRequest* stop) noexcept
      : outer_(detail::thread_stop_request) {
    detail::thread_stop_request = stop;
  }
  ~StopScope() { detail::thread_stop_request = outer_; }
  StopScope(const StopScope&) = delete;
  StopScope& operator=(const StopScope&) = delete;

 private:
  const StopRequest* outer_;
};

/// The calling thread's current request, or null outside every scope.
[[nodiscard]] inline const StopRequest* current_stop_request() noexcept {
  return detail::thread_stop_request;
}

/// Throw stop_requested_error if the calling thread's current request has
/// been set; otherwise, and with no current request, return.
inline void throw_if_stop_requested() {
  const StopRequest* stop = detail::thread_stop_request;
  if (stop != nullptr && stop->load()) throw stop_requested_error();
}

}  // namespace lck
