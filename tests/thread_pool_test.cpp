// Tests for the shared thread pool: ParallelFor correctness and chunking,
// exception propagation, shutdown, and nested (reentrant) parallel regions.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "src/util/thread_pool.h"

namespace wayfinder {
namespace {

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(), /*grain=*/1, /*max_ways=*/4, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      hits[i].fetch_add(1);
    }
  });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, ZeroWorkerPoolRunsInline) {
  ThreadPool pool(0);
  size_t covered = 0;
  pool.ParallelFor(17, 1, 8, [&](size_t b, size_t e) { covered += e - b; });
  EXPECT_EQ(covered, 17u);
}

TEST(ThreadPoolTest, EmptyRangeIsANoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, 1, 4, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, GrainBoundsChunkCount) {
  ThreadPool pool(3);
  std::atomic<int> chunks{0};
  // 10 items with grain 8 can support at most 2 chunks.
  pool.ParallelFor(10, /*grain=*/8, /*max_ways=*/4, [&](size_t, size_t) {
    chunks.fetch_add(1);
  });
  EXPECT_LE(chunks.load(), 2);
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.ParallelFor(100, 1, 3,
                       [&](size_t b, size_t) {
                         if (b > 0) {
                           throw std::runtime_error("worker chunk failed");
                         }
                       }),
      std::runtime_error);
  // The pool must survive a throwing round and keep serving work.
  size_t covered = 0;
  pool.ParallelFor(5, 1, 1, [&](size_t b, size_t e) { covered += e - b; });
  EXPECT_EQ(covered, 5u);
}

TEST(ThreadPoolTest, CallerChunkExceptionPropagatesToo) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelFor(100, 1, 3,
                                [&](size_t b, size_t) {
                                  if (b == 0) {  // Chunk 0 runs on the caller.
                                    throw std::runtime_error("caller chunk failed");
                                  }
                                }),
               std::runtime_error);
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedWork) {
  // Destroying a pool right after a round must join cleanly (no hang, no
  // leak under sanitizers).
  for (int round = 0; round < 10; ++round) {
    ThreadPool pool(4);
    std::atomic<size_t> sum{0};
    pool.ParallelFor(256, 1, 5, [&](size_t b, size_t e) {
      for (size_t i = b; i < e; ++i) {
        sum.fetch_add(i);
      }
    });
    EXPECT_EQ(sum.load(), 256u * 255u / 2u);
  }
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineInsteadOfDeadlocking) {
  // A ParallelFor issued from inside a pool worker must not block on the
  // queue it is draining. With one worker this deadlocked before the
  // reentrancy fix: the worker's nested round queued a chunk nobody was
  // left to run. Now nested rounds run inline on the worker.
  ThreadPool pool(1);
  std::vector<std::atomic<int>> hits(64 * 16);
  pool.ParallelFor(64, /*grain=*/1, /*max_ways=*/2, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      pool.ParallelFor(16, /*grain=*/1, /*max_ways=*/2, [&](size_t nb, size_t ne) {
        for (size_t j = nb; j < ne; ++j) {
          hits[i * 16 + j].fetch_add(1);
        }
      });
    }
  });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, NestedParallelForPropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.ParallelFor(8, 1, 3,
                       [&](size_t, size_t) {
                         pool.ParallelFor(4, 1, 2, [&](size_t nb, size_t) {
                           if (nb == 0) {
                             throw std::runtime_error("nested chunk failed");
                           }
                         });
                       }),
      std::runtime_error);
  // Still serviceable afterwards.
  size_t covered = 0;
  pool.ParallelFor(5, 1, 1, [&](size_t b, size_t e) { covered += e - b; });
  EXPECT_EQ(covered, 5u);
}

TEST(ThreadPoolTest, SharedPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::Shared(), &ThreadPool::Shared());
  EXPECT_GE(ThreadPool::Shared().thread_count(), 1u);
}

}  // namespace
}  // namespace wayfinder
