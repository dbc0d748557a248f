#pragma once
/// \file admission.hpp
/// \brief Service-level admission control: a token budget over outstanding
///        L3 write bytes and write count, shared by every job of the
///        multi-tenant CheckpointService.
///
/// Each shared-tier write first acquires a Grant covering its byte size;
/// the grant is released when the write completes (RAII). When the fleet's
/// aggregate demand exceeds the budget, acquirers queue in strict FIFO
/// ticket order — a large request at the head reserves the budget as it
/// drains, so small requests arriving behind it cannot starve it forever
/// (no "bypass while big waits" livelock). A request larger than the whole
/// budget is clamped to the budget rather than rejected: it admits alone,
/// which is the only meaningful way to run an oversized write.
///
/// This is back-pressure, not scheduling: admission only bounds the total
/// bytes simultaneously in flight against the shared L3, and FIFO order is
/// the only fairness among the writers it queues.

#include <condition_variable>
#include <cstddef>
#include <mutex>

namespace lck::svc {

class AdmissionController {
 public:
  /// `byte_budget` bounds the summed sizes of admitted writes;
  /// `max_inflight` bounds their count. Both must be >= 1.
  AdmissionController(std::size_t byte_budget, std::size_t max_inflight);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// One admitted write's reservation. Move-only; releases on destruction.
  class Grant {
   public:
    Grant() = default;
    Grant(Grant&& other) noexcept { swap(other); }
    Grant& operator=(Grant&& other) noexcept {
      if (this != &other) {
        release();
        swap(other);
      }
      return *this;
    }
    ~Grant() { release(); }

    /// True if the acquire had to queue (budget or inflight exhausted, or
    /// an earlier ticket still waiting) — the service's admission_waits.
    [[nodiscard]] bool waited() const noexcept { return waited_; }
    /// Seconds the acquire spent blocked (0 when it did not wait).
    [[nodiscard]] double wait_seconds() const noexcept {
      return wait_seconds_;
    }
    [[nodiscard]] std::size_t bytes() const noexcept { return bytes_; }

    /// Give the reservation back early (idempotent).
    void release() noexcept;

   private:
    friend class AdmissionController;
    Grant(AdmissionController* ctl, std::size_t bytes, bool waited,
          double wait_seconds) noexcept
        : ctl_(ctl),
          bytes_(bytes),
          waited_(waited),
          wait_seconds_(wait_seconds) {}
    void swap(Grant& other) noexcept {
      std::swap(ctl_, other.ctl_);
      std::swap(bytes_, other.bytes_);
      std::swap(waited_, other.waited_);
      std::swap(wait_seconds_, other.wait_seconds_);
    }

    AdmissionController* ctl_ = nullptr;
    std::size_t bytes_ = 0;
    bool waited_ = false;
    double wait_seconds_ = 0.0;
  };

  /// Block until `bytes` (clamped to the budget) fit under both limits and
  /// every earlier acquire has been admitted, then reserve. Never fails.
  [[nodiscard]] Grant acquire(std::size_t bytes);

  // ----- introspection (monotonic counters + instantaneous state) -----------
  [[nodiscard]] std::size_t bytes_in_use() const;
  [[nodiscard]] std::size_t inflight() const;
  /// Acquires that found room immediately + acquires that had to queue.
  [[nodiscard]] std::size_t grants() const;
  [[nodiscard]] std::size_t waits() const;
  [[nodiscard]] std::size_t byte_budget() const noexcept {
    return byte_budget_;
  }
  [[nodiscard]] std::size_t max_inflight() const noexcept {
    return max_inflight_;
  }

 private:
  void release(std::size_t bytes) noexcept;

  const std::size_t byte_budget_;
  const std::size_t max_inflight_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::size_t bytes_in_use_ = 0;
  std::size_t inflight_ = 0;
  std::size_t next_ticket_ = 0;  ///< Issued to each acquire, FIFO order.
  std::size_t serving_ = 0;      ///< Lowest ticket not yet admitted.
  std::size_t grants_ = 0;
  std::size_t waits_ = 0;
};

}  // namespace lck::svc
