// Shared fork-join thread pool for experiment sweeps.
//
// The harness evaluates ~1258 independent loops per sweep point;
// `parallel_for` fans the index range out over a *persistent* worker pool
// in chunks: workers claim contiguous index ranges from an atomic cursor,
// so there is one synchronisation per chunk instead of one per index, and
// the body is dispatched through a statically-typed trampoline — no
// per-index (or even per-call) std::function allocation.  The pool's
// threads outlive individual calls (`ThreadPool::shared()` is the
// process-wide instance sized to the hardware), so benches and the sweep
// runner stop paying thread spawn/join per fan-out.
//
// Exception contract: every worker exception is captured; after the
// fan-out completes, the first captured exception is rethrown on the
// caller thread.  The caller participates in the chunk loop itself, and
// its exceptions go through the same capture path, so a throwing body can
// never bypass (or deadlock) the completion wait.
//
// Fork safety: a forked child inherits the pool object but none of its
// threads.  Completion is counted per *chunk*, not per worker, so a
// fan-out on a thread-less pool degrades to the caller draining every
// chunk itself — serial, but correct and deadlock-free.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace qvliw {

/// Number of workers used by parallel_for (>= 1).
[[nodiscard]] std::size_t worker_count();

namespace detail {

/// Trampoline invoked once per claimed chunk: body_ptr is the address of
/// the caller's body object; worker ids are dense in [0, workers).
using ChunkFn = void (*)(void* body_ptr, std::size_t worker, std::size_t begin, std::size_t end);

/// Chunked dispatch through ThreadPool::shared() (lives in parallel.cpp).
/// grain == 0 selects a load-balancing default from count and the pool
/// size; otherwise chunks are [k*grain, (k+1)*grain) intersected with
/// [0, count).
void parallel_chunks(std::size_t count, std::size_t grain, ChunkFn invoke, void* body_ptr);

}  // namespace detail

/// A fixed-size fork-join pool.  `workers` counts the caller: a pool of N
/// owns N-1 persistent threads and the caller of run() claims chunks as
/// worker 0, so ThreadPool(1) spawns nothing and runs serially.
///
/// Threading contract: run() serialises concurrent callers (one fan-out
/// at a time); a nested run() from inside a chunk body executes its
/// chunks inline on the calling worker instead of deadlocking on the
/// pool.  The destructor joins all threads; the shared() instance is
/// intentionally leaked so exiting threads never race process teardown.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Configured worker count (caller included), >= 1.  The number of live
  /// threads can be lower if thread creation failed — fan-outs still
  /// complete on whatever exists.
  [[nodiscard]] std::size_t workers() const { return workers_; }

  /// Fans `count` indices out in chunks of `grain` (0 = load-balancing
  /// default).  Blocks until every chunk has run; rethrows the first
  /// captured body exception.  Every chunk is attempted even when one
  /// throws — same contract as the serial path.
  void run(std::size_t count, std::size_t grain, detail::ChunkFn invoke, void* body_ptr);

  /// The process-wide pool, sized worker_count(), created on first use
  /// and never destroyed.
  [[nodiscard]] static ThreadPool& shared();

 private:
  struct Job;

  void worker_main(std::size_t worker);
  void drain(Job& job, std::size_t worker) noexcept;
  static void run_serial(std::size_t count, std::size_t grain, detail::ChunkFn invoke,
                         void* body_ptr);

  std::size_t workers_;
  std::mutex submit_mutex_;  // one fan-out at a time
  std::mutex mutex_;         // guards job_/generation_/stop_ + Job counters
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  Job* job_ = nullptr;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

/// Invokes body(i) for every i in [0, count) across the shared pool.
template <typename Body>
void parallel_for(std::size_t count, Body&& body) {
  using Stored = std::remove_reference_t<Body>;
  detail::parallel_chunks(
      count, 0,
      [](void* body_ptr, std::size_t, std::size_t begin, std::size_t end) {
        Stored& b = *static_cast<Stored*>(body_ptr);
        for (std::size_t i = begin; i < end; ++i) b(i);
      },
      const_cast<void*>(static_cast<const void*>(std::addressof(body))));
}

/// parallel_for on an explicit pool (grain 0 = default): how the sweep
/// runner targets a private pool sized by SweepOptions::workers instead
/// of the hardware-sized shared one.
template <typename Body>
void parallel_for_on(ThreadPool& pool, std::size_t count, std::size_t grain, Body&& body) {
  using Stored = std::remove_reference_t<Body>;
  pool.run(
      count, grain,
      [](void* body_ptr, std::size_t, std::size_t begin, std::size_t end) {
        Stored& b = *static_cast<Stored*>(body_ptr);
        for (std::size_t i = begin; i < end; ++i) b(i);
      },
      const_cast<void*>(static_cast<const void*>(std::addressof(body))));
}

}  // namespace qvliw
