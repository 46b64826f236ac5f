// A small fixed-size thread pool with a blocking ParallelFor.
//
// The session executor evaluates the slots of one batch concurrently on the
// process-wide shared pool (src/platform/session.cc); every slot owns its
// testbench clone, RNG stream, and clock, so chunking never changes results.
// No work stealing, no futures: a plain chunked parallel-for is all it
// needs.
#ifndef WAYFINDER_SRC_UTIL_THREAD_POOL_H_
#define WAYFINDER_SRC_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace wayfinder {

class ThreadPool {
 public:
  // Spawns `threads` workers (0 is allowed: every ParallelFor runs inline).
  explicit ThreadPool(size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t thread_count() const { return workers_.size(); }

  // Runs body(begin, end) over [0, n) split into at most `max_ways` chunks
  // of at least `grain` items. The caller executes one chunk itself, so a
  // pool is never required to make progress. Blocks until every chunk is
  // done; the first exception thrown by any chunk is rethrown here.
  // Reentrancy-safe: called from a pool worker (a nested parallel region),
  // the whole range runs inline on that worker instead of deadlocking on
  // the queue it is draining.
  void ParallelFor(size_t n, size_t grain, size_t max_ways,
                   const std::function<void(size_t, size_t)>& body);

  // Process-wide pool, created on first use with hardware_concurrency - 1
  // workers (at least 1). Callers bound their own parallelism via the
  // `max_ways` argument of ParallelFor, so one shared pool serves every
  // session in the process.
  static ThreadPool& Shared();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
};

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_UTIL_THREAD_POOL_H_
