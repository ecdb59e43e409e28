// Fixed-size work-sharing thread pool for the MRP engine.
//
// Two parallel grains use the same pool with no oversubscription:
//   * batch layers fan independent solves out by index (every worker writes
//     only results[i] for the indices it claims, so output ordering — and
//     therefore every downstream table — is identical to a serial run
//     regardless of scheduling);
//   * stages *inside* a solve (the MRP set-cover seeding) call
//     `parallel_for` again on the same pool. Nested calls are
//     safe: the calling worker publishes the inner loop as a new job, drains
//     it inline itself, and any worker that is idle (or blocked waiting for
//     its own job to finish) steals indices from it. There is never a second
//     pool and never a deadlock — a nested publisher always makes progress
//     on its own job.
//
// Thread count resolution: explicit argument > MRPF_THREADS environment
// variable > std::thread::hardware_concurrency(). A pool of size 1 never
// spawns threads and runs everything inline.
//
// MRPF_THREADS grammar: a non-empty string of decimal digits with value
// >= 1 (no sign, no whitespace, no suffix); values above 512 are clamped
// to 512. Anything else — "4x", "0", "-2", "" — is rejected with a
// one-time warning on stderr and the hardware default is used instead.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

namespace mrpf {

/// MRPF_THREADS if set and well-formed (see grammar above, clamped to
/// [1, 512]), else hardware_concurrency(), else 1. Re-read on every call so
/// tests can change the environment between batches. Malformed values warn
/// once per process on stderr and fall back to the hardware default.
int default_thread_count();

namespace detail {
/// True once default_thread_count() has warned about a malformed
/// MRPF_THREADS value (the warning fires at most once per process).
bool thread_env_warning_fired();
}  // namespace detail

class ThreadPool {
 public:
  /// threads <= 0 resolves via default_thread_count().
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return num_threads_; }

  /// Runs fn(i) for every i in [0, n), blocking until all calls returned.
  /// Indices are claimed dynamically (atomic counter) but fn must write
  /// only state owned by index i, so results are order-deterministic.
  /// The first exception thrown by fn is rethrown here after the loop
  /// drains; remaining indices still run.
  ///
  /// Reentrant: fn may itself call parallel_for on the same pool. The
  /// nested loop is published as an independent job that the calling
  /// thread drains inline while idle workers steal shares of it.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  /// One published index loop. Lives on the publisher's stack; the
  /// publisher only returns once `drainers == 0 && done == n`, and threads
  /// only start touching a job while it is listed in `active_` (under
  /// `mu_`), so the lifetime is safe.
  struct Job {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    std::atomic<std::size_t> next{0};  // next unclaimed index
    std::atomic<std::size_t> done{0};  // indices whose fn() returned
    int drainers = 0;                  // threads inside run_job (mu_)
    bool listed = false;               // still in active_ (mu_)
    std::exception_ptr error;          // first throw (mu_)
  };

  void worker_loop();
  /// Claims and runs indices of `job` until exhausted. `lk` (locking mu_)
  /// is held on entry and exit.
  void run_job(Job& job, std::unique_lock<std::mutex>& lk);
  bool job_finished(const Job& job) const {
    return job.drainers == 0 &&
           job.done.load(std::memory_order_acquire) == job.n;
  }

  int num_threads_ = 1;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::vector<Job*> active_;  // jobs with unclaimed indices, LIFO
  bool stop_ = false;
};

/// Bounded multi-producer multi-consumer queue — the accept/dispatch
/// spine of the synthesis daemon (serve/server.cpp), usable anywhere a
/// produce-side backpressure boundary is needed.
///
/// Semantics:
///   * push() blocks while the queue is full (backpressure, never
///     unbounded growth) and returns false once the queue is closed;
///   * pop() blocks while the queue is empty and returns nullopt only
///     when the queue is closed *and* drained — items pushed before
///     close() are always delivered;
///   * close() is idempotent and wakes every blocked producer and
///     consumer.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  bool push(T value) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_push_.wait(lk, [&] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(value));
    if (items_.size() > high_water_) high_water_ = items_.size();
    lk.unlock();
    cv_pop_.notify_one();
    return true;
  }

  /// Non-blocking push: false when full or closed.
  bool try_push(T value) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(value));
      if (items_.size() > high_water_) high_water_ = items_.size();
    }
    cv_pop_.notify_one();
    return true;
  }

  std::optional<T> pop() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_pop_.wait(lk, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;  // closed and drained
    T value = std::move(items_.front());
    items_.pop_front();
    lk.unlock();
    cv_push_.notify_one();
    return value;
  }

  void close() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      closed_ = true;
    }
    cv_push_.notify_all();
    cv_pop_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lk(mu_);
    return closed_;
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return items_.size();
  }
  /// Deepest the queue has ever been (backpressure observability).
  std::size_t high_water() const {
    std::lock_guard<std::mutex> lk(mu_);
    return high_water_;
  }
  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_push_;
  std::condition_variable cv_pop_;
  std::deque<T> items_;
  std::size_t high_water_ = 0;
  bool closed_ = false;
};

/// Process-wide pool, lazily constructed on first use and sized from
/// default_thread_count() at that moment (later MRPF_THREADS changes do
/// not resize it — results are thread-count-independent anyway). Shared so
/// no hot path pays thread-spawn cost per call.
ThreadPool& shared_thread_pool();

/// Convenience over [0, n): threads <= 0 routes through the process-wide
/// shared_thread_pool(); an explicit positive count builds a dedicated
/// pool of that exact size (test/bench use — pays spawn cost per call).
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  int threads = 0);

}  // namespace mrpf
