#pragma once
/// \file traced.hpp
/// \brief In-memory span recorder and the forwarding decorators the traced
///        run wraps around the library's public objects.
///
/// Spans are taken only from outside the library, around calls into its
/// public functions: the solve loop opens spans around solver and manager
/// calls, and the decorators below open spans around every Compressor and
/// CheckpointStore call the manager (or the tiered store's promoter) makes.
/// Each span records its name, start, end, parent (the innermost open span
/// on the same thread), the solve it belongs to and the thread it ran on.
/// Spans stay in memory until the run ends.
///
/// The decorators are transparent: they report the inner name(), forward
/// every virtual, and wrap streaming sinks and sources so streaming stays
/// streaming. Two wrappers are deliberately never built:
///  - a Compressor around NoneCompressor, because the manager recognises
///    verbatim variables with a dynamic_cast to NoneCompressor;
///  - a CheckpointStore around the L2 PartnerStore, because the tiered store
///    dynamic_casts its level to PartnerStore to make node failures real.

#include <pthread.h>

#include <atomic>
#include <chrono>
#include <ctime>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "lck.hpp"

namespace perfbench {

struct Span {
  const char* name = "";
  double start = 0.0;  ///< Seconds since the recorder's epoch.
  double end = 0.0;
  int parent = -1;     ///< Index of the enclosing span on the same thread.
  int solve = -1;
  int thread = 0;      ///< 0 = the thread that created the recorder.
  std::uint64_t bytes = 0;  ///< Payload bytes the call moved, if any.
};

class SpanRecorder {
 public:
  SpanRecorder() : epoch_(clock::now()), loop_thread_(std::this_thread::get_id()) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  [[nodiscard]] double now() const noexcept {
    return std::chrono::duration<double>(clock::now() - epoch_).count();
  }

  /// Stable C string for a span name (names outlive the decorators).
  const char* intern(const std::string& name) {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto& s : names_)
      if (s == name) return s.c_str();
    return names_.emplace_back(name).c_str();
  }

  void set_solve(int solve) noexcept { solve_.store(solve); }

  int begin(const char* name) {
    Span s;
    s.name = name;
    s.solve = solve_.load();
    auto& stack = open_stack();
    s.parent = stack.empty() ? -1 : stack.back();
    int id = 0;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      s.thread = thread_index_locked(name);
      s.start = now();
      id = static_cast<int>(spans_.size());
      spans_.push_back(s);
    }
    stack.push_back(id);
    return id;
  }

  void end(int id, std::uint64_t bytes) {
    const double t = now();
    open_stack().pop_back();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = t;
    spans_[static_cast<std::size_t>(id)].bytes = bytes;
  }

  [[nodiscard]] std::vector<Span> spans() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// CPU seconds used so far by the background threads that called into a
  /// store (the async writer, the tiered promoter) since the last
  /// forget_threads(). Threads that never opened a store span are left
  /// out. Call while those threads are still alive.
  [[nodiscard]] double store_thread_cpu_seconds() const {
    const std::lock_guard<std::mutex> lock(mu_);
    double s = 0.0;
    for (const auto& [tid, t] : threads_) {
      timespec ts{};
      if (t.store && clock_gettime(t.clock, &ts) == 0)
        s += static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
    }
    return s;
  }

  /// Drop the background-thread registry (their threads end with the solve).
  void forget_threads() {
    const std::lock_guard<std::mutex> lock(mu_);
    threads_.clear();
  }

 private:
  using clock = std::chrono::steady_clock;

  struct BackgroundThread {
    int index = 0;
    clockid_t clock{};
    bool store = false;  ///< Opened a store span and has a CPU clock.
  };

  /// Open spans of the calling thread. Recorders are used one at a time,
  /// and every span closes before the next recorder is used, so a single
  /// thread-local stack suffices.
  static std::vector<int>& open_stack() {
    thread_local std::vector<int> stack;
    return stack;
  }

  int thread_index_locked(const char* span_name) {
    const auto tid = std::this_thread::get_id();
    if (tid == loop_thread_) return 0;
    auto it = threads_.find(tid);
    if (it == threads_.end()) {
      BackgroundThread t;
      t.index = static_cast<int>(threads_.size()) + 1;
      it = threads_.emplace(tid, t).first;
    }
    BackgroundThread& t = it->second;
    if (!t.store && std::string_view(span_name).starts_with("store."))
      t.store = pthread_getcpuclockid(pthread_self(), &t.clock) == 0;
    return t.index;
  }

  const clock::time_point epoch_;
  const std::thread::id loop_thread_;
  std::atomic<int> solve_{-1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::deque<std::string> names_;
  std::map<std::thread::id, BackgroundThread> threads_;
};

/// RAII span; a null recorder makes it a no-op (the untraced run).
class Scope {
 public:
  Scope(SpanRecorder* rec, const char* name)
      : rec_(rec), id_(rec != nullptr ? rec->begin(name) : -1) {}
  ~Scope() {
    if (rec_ != nullptr) rec_->end(id_, bytes_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void bytes(std::uint64_t n) noexcept { bytes_ = n; }

 private:
  SpanRecorder* rec_;
  int id_;
  std::uint64_t bytes_ = 0;
};

class TracedCompressor final : public lck::Compressor {
 public:
  TracedCompressor(const lck::Compressor& inner, SpanRecorder& rec)
      : inner_(inner), rec_(rec) {
    lck::require(dynamic_cast<const lck::NoneCompressor*>(&inner) == nullptr,
                 "perfbench: NoneCompressor must stay unwrapped");
  }

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] bool lossy() const noexcept override { return inner_.lossy(); }

  [[nodiscard]] std::vector<lck::byte_t> compress(
      std::span<const double> data) const override {
    Scope s(&rec_, "compress.encode");
    auto out = inner_.compress(data);
    s.bytes(data.size_bytes());
    encoded_out_.fetch_add(out.size(), std::memory_order_relaxed);
    return out;
  }

  void decompress(std::span<const lck::byte_t> stream,
                  std::span<double> out) const override {
    Scope s(&rec_, "compress.decode");
    inner_.decompress(stream, out);
    s.bytes(out.size_bytes());
  }

  /// Compressed bytes produced so far (thread-safe; the async drain encodes
  /// on the writer thread).
  [[nodiscard]] std::uint64_t encoded_bytes() const noexcept {
    return encoded_out_.load(std::memory_order_relaxed);
  }

 private:
  const lck::Compressor& inner_;
  SpanRecorder& rec_;
  mutable std::atomic<std::uint64_t> encoded_out_{0};
};

/// Store span names: "store.<backend>.<op>" for op in write | commit |
/// read | remove | abort | meta.
class TracedStore final : public lck::CheckpointStore {
 public:
  TracedStore(std::unique_ptr<lck::CheckpointStore> inner,
              const std::string& backend, SpanRecorder& rec)
      : inner_(std::move(inner)),
        rec_(rec),
        write_(rec.intern("store." + backend + ".write")),
        commit_(rec.intern("store." + backend + ".commit")),
        read_(rec.intern("store." + backend + ".read")),
        remove_(rec.intern("store." + backend + ".remove")),
        abort_(rec.intern("store." + backend + ".abort")),
        meta_(rec.intern("store." + backend + ".meta")) {
    lck::require(inner_ != nullptr, "perfbench: null store");
  }

  void write(int version, std::span<const lck::byte_t> data) override {
    Scope s(&rec_, write_);
    inner_->write(version, data);
    s.bytes(data.size());
  }
  [[nodiscard]] std::vector<lck::byte_t> read(int version) const override {
    Scope s(&rec_, read_);
    auto out = inner_->read(version);
    s.bytes(out.size());
    return out;
  }
  [[nodiscard]] bool exists(int version) const override {
    const Scope s(&rec_, meta_);
    return inner_->exists(version);
  }
  void remove(int version) override {
    const Scope s(&rec_, remove_);
    inner_->remove(version);
  }
  [[nodiscard]] int latest_version() const override {
    const Scope s(&rec_, meta_);
    return inner_->latest_version();
  }
  void write_pending(int version, std::span<const lck::byte_t> data) override {
    Scope s(&rec_, write_);
    inner_->write_pending(version, data);
    s.bytes(data.size());
  }
  void commit(int version) override {
    const Scope s(&rec_, commit_);
    inner_->commit(version);
  }
  void abort(int version) override {
    const Scope s(&rec_, abort_);
    inner_->abort(version);
  }
  [[nodiscard]] bool has_pending(int version) const override {
    const Scope s(&rec_, meta_);
    return inner_->has_pending(version);
  }
  [[nodiscard]] std::unique_ptr<lck::ByteSink> open_write_pending(
      int version) override {
    const Scope s(&rec_, write_);
    return std::make_unique<Sink>(inner_->open_write_pending(version), *this);
  }
  [[nodiscard]] std::unique_ptr<lck::ByteSource> open_read(
      int version) const override {
    const Scope s(&rec_, read_);
    return std::make_unique<Source>(inner_->open_read(version), *this);
  }
  void set_observability(lck::obs::Sink sink) override {
    inner_->set_observability(sink);
  }

 private:
  class Sink final : public lck::ByteSink {
   public:
    Sink(std::unique_ptr<lck::ByteSink> inner, const TracedStore& owner)
        : inner_(std::move(inner)), owner_(owner) {}
    void append(std::span<const lck::byte_t> bytes) override {
      Scope s(&owner_.rec_, owner_.write_);
      inner_->append(bytes);
      s.bytes(bytes.size());
    }
    void finish() override {
      const Scope s(&owner_.rec_, owner_.write_);
      inner_->finish();
    }

   private:
    std::unique_ptr<lck::ByteSink> inner_;
    const TracedStore& owner_;
  };

  class Source final : public lck::ByteSource {
   public:
    Source(std::unique_ptr<lck::ByteSource> inner, const TracedStore& owner)
        : inner_(std::move(inner)), owner_(owner) {}
    [[nodiscard]] std::size_t read_some(std::span<lck::byte_t> dst) override {
      Scope s(&owner_.rec_, owner_.read_);
      const std::size_t n = inner_->read_some(dst);
      s.bytes(n);
      return n;
    }

   private:
    std::unique_ptr<lck::ByteSource> inner_;
    const TracedStore& owner_;
  };

  std::unique_ptr<lck::CheckpointStore> inner_;
  SpanRecorder& rec_;
  const char* write_;
  const char* commit_;
  const char* read_;
  const char* remove_;
  const char* abort_;
  const char* meta_;
};

}  // namespace perfbench
