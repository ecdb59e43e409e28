#include "mrpf/common/parallel.hpp"

#include <algorithm>

#include "mrpf/common/env.hpp"

namespace mrpf {

namespace {

int hardware_default() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

}  // namespace

int default_thread_count() {
  const int threads = env::read_threads();
  return threads > 0 ? threads : hardware_default();
}

ThreadPool::ThreadPool(int threads) {
  num_threads_ = threads > 0 ? threads : default_thread_count();
  workers_.reserve(static_cast<std::size_t>(num_threads_ - 1));
  for (int t = 1; t < num_threads_; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cv_work_.wait(lk, [&] { return stop_ || !active_.empty(); });
    if (!active_.empty()) {
      // LIFO: prefer the most recently published job — nested jobs sit on
      // top, so stealing helps the deepest (critical-path) loop first.
      run_job(*active_.back(), lk);
      continue;
    }
    if (stop_) return;
  }
}

void ThreadPool::run_job(Job& job, std::unique_lock<std::mutex>& lk) {
  ++job.drainers;
  lk.unlock();
  for (;;) {
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.n) break;
    try {
      (*job.fn)(i);
    } catch (...) {
      std::lock_guard<std::mutex> g(mu_);
      if (!job.error) job.error = std::current_exception();
    }
    job.done.fetch_add(1, std::memory_order_acq_rel);
  }
  lk.lock();
  --job.drainers;
  if (job.listed) {
    // All indices are claimed: withdraw so no new thread joins the job.
    job.listed = false;
    active_.erase(std::find(active_.begin(), active_.end(), &job));
  }
  if (job_finished(job)) cv_done_.notify_all();
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (num_threads_ == 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  Job job;
  job.fn = &fn;
  job.n = n;
  std::unique_lock<std::mutex> lk(mu_);
  job.listed = true;
  active_.push_back(&job);
  cv_work_.notify_all();
  cv_done_.notify_all();  // publishers blocked in the help loop below
  run_job(job, lk);
  // Straggler wait — but keep helping: while another job (typically one
  // published by a worker still running one of *our* indices) has
  // unclaimed work, drain it instead of sleeping.
  while (!job_finished(job)) {
    if (!active_.empty()) {
      run_job(*active_.back(), lk);
      continue;
    }
    cv_done_.wait(lk, [&] { return job_finished(job) || !active_.empty(); });
  }
  const std::exception_ptr err = job.error;
  lk.unlock();
  if (err) std::rethrow_exception(err);
}

ThreadPool& shared_thread_pool() {
  static ThreadPool pool;
  return pool;
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  int threads) {
  if (threads <= 0) {
    shared_thread_pool().parallel_for(n, fn);
    return;
  }
  ThreadPool pool(threads);
  pool.parallel_for(n, fn);
}

}  // namespace mrpf
