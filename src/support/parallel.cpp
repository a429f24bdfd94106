#include "support/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>

namespace qvliw {

std::size_t worker_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

namespace {

/// Depth of pool fan-outs on this thread: > 0 inside a chunk body (on a
/// pool thread or the participating caller).  Nested parallel_for calls
/// run inline instead of re-entering a pool mid-fan-out.
thread_local int pool_depth = 0;

std::size_t default_grain(std::size_t count, std::size_t workers) {
  // ~8 claims per worker amortises the atomic while still load-balancing
  // variable-cost items; heavy small batches degrade to grain 1.
  return std::clamp<std::size_t>(count / (workers * 8), 1, 256);
}

}  // namespace

namespace detail {

void parallel_chunks(std::size_t count, std::size_t grain, ChunkFn invoke, void* body_ptr) {
  ThreadPool::shared().run(count, grain, invoke, body_ptr);
}

}  // namespace detail

/// One fan-out in flight.  Lives on the caller's stack for the duration
/// of run(); `entered` counts pool threads currently inside drain() so
/// the caller never destroys the Job while a thread still touches it.
struct ThreadPool::Job {
  std::size_t count = 0;
  std::size_t grain = 1;
  std::size_t chunk_count = 0;
  detail::ChunkFn invoke = nullptr;
  void* body = nullptr;
  std::atomic<std::size_t> next{0};
  std::size_t chunks_done = 0;             // guarded by ThreadPool::mutex_
  std::size_t entered = 0;                 // guarded by ThreadPool::mutex_
  std::vector<std::exception_ptr> errors;  // guarded by ThreadPool::mutex_
};

ThreadPool::ThreadPool(std::size_t workers) : workers_(workers == 0 ? 1 : workers) {
  threads_.reserve(workers_ - 1);
  try {
    for (std::size_t w = 1; w < workers_; ++w) {
      threads_.emplace_back(&ThreadPool::worker_main, this, w);
    }
  } catch (...) {
    // Thread exhaustion: fan-outs drain on whatever pool exists plus the
    // caller; creation failure is not a work failure.
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

ThreadPool& ThreadPool::shared() {
  // Leaked deliberately (see class comment): a static-destruction-order
  // join against detached user code is a worse failure mode than one
  // never-freed pool.
  static ThreadPool* pool = new ThreadPool(worker_count());
  return *pool;
}

void ThreadPool::run_serial(std::size_t count, std::size_t grain, detail::ChunkFn invoke,
                            void* body_ptr) {
  // Same contract as the threaded path: every chunk is attempted, the
  // first captured exception is rethrown at the end.
  const std::size_t chunk_count = (count + grain - 1) / grain;
  std::exception_ptr first_error;
  for (std::size_t c = 0; c < chunk_count; ++c) {
    try {
      invoke(body_ptr, 0, c * grain, std::min(count, (c + 1) * grain));
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::drain(Job& job, std::size_t worker) noexcept {
  while (true) {
    const std::size_t c = job.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= job.chunk_count) return;
    std::exception_ptr error;
    try {
      job.invoke(job.body, worker, c * job.grain, std::min(job.count, (c + 1) * job.grain));
    } catch (...) {
      error = std::current_exception();
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    if (error) job.errors.push_back(error);
    if (++job.chunks_done == job.chunk_count) done_cv_.notify_all();
  }
}

void ThreadPool::worker_main(std::size_t worker) {
  ++pool_depth;  // bodies run here; their nested parallel_for calls inline
  std::unique_lock<std::mutex> lock(mutex_);
  std::uint64_t seen = 0;
  while (true) {
    work_cv_.wait(lock, [&] { return stop_ || (job_ != nullptr && generation_ != seen); });
    if (stop_) return;
    seen = generation_;
    Job& job = *job_;
    ++job.entered;
    lock.unlock();
    drain(job, worker);
    lock.lock();
    if (--job.entered == 0 && job.chunks_done == job.chunk_count) done_cv_.notify_all();
  }
}

void ThreadPool::run(std::size_t count, std::size_t grain, detail::ChunkFn invoke,
                     void* body_ptr) {
  if (count == 0) return;
  if (grain == 0) grain = default_grain(count, workers_);
  const std::size_t chunk_count = (count + grain - 1) / grain;
  if (workers_ <= 1 || chunk_count <= 1 || threads_.empty() || pool_depth > 0) {
    run_serial(count, grain, invoke, body_ptr);
    return;
  }

  const std::lock_guard<std::mutex> submit(submit_mutex_);
  Job job;
  job.count = count;
  job.grain = grain;
  job.chunk_count = chunk_count;
  job.invoke = invoke;
  job.body = body_ptr;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    job_ = &job;
    ++generation_;
  }
  work_cv_.notify_all();

  ++pool_depth;
  drain(job, 0);
  --pool_depth;

  {
    std::unique_lock<std::mutex> lock(mutex_);
    // chunks_done covers the work; entered == 0 covers threads that woke
    // for this job but found the cursor exhausted — they still hold a
    // reference to the stack-allocated Job until they leave drain().
    done_cv_.wait(lock, [&] { return job.chunks_done == job.chunk_count && job.entered == 0; });
    job_ = nullptr;
  }
  if (!job.errors.empty()) std::rethrow_exception(job.errors.front());
}

}  // namespace qvliw
