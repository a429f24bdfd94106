// Fork-join parallel loop for experiment sweeps.
//
// `parallel_for(count, workers, body)` calls body(i) for every i in
// [0, count) and returns once every index has run.  It spawns its threads
// for the call and joins them before it returns: nothing outlives a call,
// so a nested call or a call in a forked child is just another call.
// Threads claim indices one at a time from an atomic counter, so an
// expensive index never holds a static slice of cheap ones behind it.
//
// Exception contract: every index runs even when one throws; the first
// exception caught is rethrown on the caller after the join.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace qvliw {

/// Hardware thread count (>= 1).
[[nodiscard]] std::size_t worker_count();

/// Invokes body(i) for every i in [0, count) on `workers` threads, the
/// caller included: exactly that many, even above the core count (how
/// tests exercise real concurrency on small machines).  One worker (or 0)
/// runs the indices in order on the caller.  If a thread cannot be
/// created, the threads that exist drain every index.
template <typename Body>
void parallel_for(std::size_t count, std::size_t workers, Body&& body) {
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const auto drain = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= count) return;
      try {
        body(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  {
    std::vector<std::jthread> threads;  // the caller is the first worker
    const std::size_t used = std::min(workers, count);
    threads.reserve(used);
    for (std::size_t t = 1; t < used; ++t) {
      try {
        threads.emplace_back(drain);
      } catch (const std::system_error&) {
        break;  // thread exhaustion is not a work failure: fewer threads drain
      }
    }
    drain();
  }  // the jthreads join here, before any rethrow
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace qvliw
