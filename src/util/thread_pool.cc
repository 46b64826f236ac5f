#include "src/util/thread_pool.h"

#include <algorithm>
#include <exception>

namespace wayfinder {

namespace {
// Set for the lifetime of a pool worker thread. A ParallelFor issued from a
// worker (a parallel region nested inside an already-parallel chunk) must
// not block on the queue it is itself draining: with every worker busy the
// nested round's chunks would never be picked up and the worker would wait
// forever. Nested calls run inline instead — correct for any body (chunking
// is only a performance split) and deadlock-free.
thread_local bool tls_pool_worker = false;
}  // namespace

ThreadPool::ThreadPool(size_t threads) {
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::WorkerLoop() {
  tls_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        return;  // stop_ set and queue drained.
      }
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(size_t n, size_t grain, size_t max_ways,
                             const std::function<void(size_t, size_t)>& body) {
  if (n == 0) {
    return;
  }
  // Reentrant call from one of this process's pool workers: run inline.
  // Queueing and blocking here could deadlock once every worker is inside a
  // nested round (nobody left to drain the queue).
  if (tls_pool_worker) {
    body(0, n);
    return;
  }
  grain = std::max<size_t>(grain, 1);
  size_t ways = std::min({max_ways, thread_count() + 1, (n + grain - 1) / grain});
  if (ways <= 1) {
    body(0, n);
    return;
  }

  // One chunk per way; the caller runs chunk 0 so progress never depends on
  // a worker being free. All completion state lives under one mutex so the
  // last worker can never touch `shared` after the caller has woken up and
  // destroyed it.
  struct Shared {
    size_t remaining;
    std::mutex done_mutex;
    std::condition_variable done;
    std::exception_ptr error;
  } shared;
  shared.remaining = ways - 1;

  size_t chunk = (n + ways - 1) / ways;
  auto run_chunk = [&body, &shared](size_t begin, size_t end) {
    try {
      body(begin, end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(shared.done_mutex);
      if (!shared.error) {
        shared.error = std::current_exception();
      }
    }
  };

  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t w = 1; w < ways; ++w) {
      size_t begin = w * chunk;
      size_t end = std::min(n, begin + chunk);
      tasks_.emplace_back([run_chunk, begin, end, &shared] {
        run_chunk(begin, end);
        std::lock_guard<std::mutex> done_lock(shared.done_mutex);
        if (--shared.remaining == 0) {
          shared.done.notify_one();
        }
      });
    }
  }
  wake_.notify_all();

  run_chunk(0, std::min(n, chunk));

  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(shared.done_mutex);
    shared.done.wait(lock, [&shared] { return shared.remaining == 0; });
    error = shared.error;
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool(std::max<size_t>(1, std::thread::hardware_concurrency() > 0
                                                 ? std::thread::hardware_concurrency() - 1
                                                 : 1));
  return pool;
}

}  // namespace wayfinder
