#include "common/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "obs/trace.h"

namespace pc {

ThreadPool::ThreadPool(size_t n_threads) {
  if (n_threads == 0) {
    n_threads = std::thread::hardware_concurrency();
    if (n_threads == 0) n_threads = 1;
    // PC_THREADS caps default-sized pools (including the global one). The
    // serving stack runs one thread per serving lane; kernel-level
    // parallel_for fanning out to all cores inside each of N lanes would
    // oversubscribe the machine, so bench_server pins PC_THREADS=1 while it
    // sweeps lane counts. Values < 1 and non-numeric strings are ignored.
    if (const char* cap_env = std::getenv("PC_THREADS")) {
      const long cap = std::atol(cap_env);
      if (cap > 0) {
        n_threads = std::min(n_threads, static_cast<size_t>(cap));
      }
    }
  }
  // The calling thread participates in parallel_for, so spawn one fewer.
  for (size_t i = 1; i < n_threads; ++i) {
    workers_.emplace_back([this, i] {
      // Label the lane in exported traces so parallel_for fan-out is
      // attributable to a specific pool thread.
      obs::set_thread_name("pool" + std::to_string(i));
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

ThreadPool::Job* ThreadPool::first_claimable_locked() {
  size_t keep = 0;
  Job* found = nullptr;
  for (size_t i = 0; i < jobs_.size(); ++i) {
    Job* j = jobs_[i];
    if (j->next >= j->n_chunks) continue;  // exhausted: drop from the FIFO
    jobs_[keep++] = j;
    if (found == nullptr) found = j;
  }
  jobs_.resize(keep);
  return found;
}

void ThreadPool::run_chunk(Job& job, size_t c) {
  const size_t begin = c * job.chunk;
  const size_t end = std::min(job.n, begin + job.chunk);
  std::exception_ptr err = nullptr;
  try {
    if (begin < end) {
      PC_SPAN("pool_chunk", {"begin", static_cast<int64_t>(begin)},
              {"n", static_cast<int64_t>(end - begin)});
      (*job.fn)(begin, end);
    }
  } catch (...) {
    err = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> lock(job.done_mutex);
    if (err && !job.error) job.error = err;
    if (--job.unfinished == 0) job.done_cv.notify_all();
  }
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [this] {
      return stop_ || first_claimable_locked() != nullptr;
    });
    Job* job = first_claimable_locked();
    if (job == nullptr) {
      if (stop_) return;
      continue;
    }
    const size_t c = job->next++;  // claim under mutex_: keeps `job` alive
    lock.unlock();
    run_chunk(*job, c);
    lock.lock();
  }
}

void ThreadPool::parallel_for(size_t n,
                              const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  const size_t n_chunks = std::min(size(), n);
  if (n_chunks <= 1) {
    fn(0, n);
    return;
  }

  Job job;
  job.fn = &fn;
  job.n = n;
  job.chunk = (n + n_chunks - 1) / n_chunks;
  job.n_chunks = n_chunks;
  job.unfinished = n_chunks;

  {
    std::lock_guard<std::mutex> lock(mutex_);
    jobs_.push_back(&job);
  }
  cv_.notify_all();

  // The caller claims chunks of its own job until none remain (other
  // workers may be claiming concurrently), then waits for stragglers.
  for (;;) {
    size_t c;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (job.next >= job.n_chunks) break;
      c = job.next++;
    }
    run_chunk(job, c);
  }
  {
    std::unique_lock<std::mutex> dlock(job.done_mutex);
    job.done_cv.wait(dlock, [&job] { return job.unfinished == 0; });
  }
  {
    // The job may still sit (exhausted) in the FIFO; remove it before the
    // stack frame dies. Workers never dereference exhausted FIFO entries.
    std::lock_guard<std::mutex> lock(mutex_);
    jobs_.erase(std::remove(jobs_.begin(), jobs_.end(), &job), jobs_.end());
  }
  if (job.error) std::rethrow_exception(job.error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace pc
