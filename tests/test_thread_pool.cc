#include "util/thread_pool.h"

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace dbtune {
namespace {

TEST(ThreadPoolTest, SizeIsClampedToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(ThreadPoolTest, SubmitRunsEveryTask) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&] { counter.fetch_add(1); });
    }
    // The destructor drains the queue before joining the workers.
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, SubmitInlineAtPoolSizeOne) {
  ThreadPool pool(1);
  int ran = 0;
  pool.Submit([&] { ran = 1; });  // inline: visible immediately, no race
  EXPECT_EQ(ran, 1);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<int> hits(1000, 0);
  ParallelFor(&pool, 0, hits.size(), 7, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) ++hits[i];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  ParallelFor(&pool, 5, 5, 1, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ParallelForSequentialFallbacks) {
  // Null pool and size-1 pool both run the body inline on this thread.
  std::vector<int> hits(64, 0);
  ParallelFor(nullptr, 0, hits.size(), 8, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) ++hits[i];
  });
  ThreadPool sequential(1);
  ParallelFor(&sequential, 0, hits.size(), 8, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) ++hits[i];
  });
  for (int h : hits) EXPECT_EQ(h, 2);
}

TEST(ThreadPoolTest, ParallelForPropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      ParallelFor(&pool, 0, 100, 1,
                  [&](size_t begin, size_t) {
                    if (begin == 42) throw std::runtime_error("chunk 42");
                  }),
      std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForExceptionDoesNotWedgePool) {
  ThreadPool pool(2);
  EXPECT_THROW(ParallelFor(&pool, 0, 10, 1,
                           [](size_t, size_t) {
                             throw std::runtime_error("boom");
                           }),
               std::runtime_error);
  // The pool must still accept and finish work afterwards.
  std::atomic<int> counter{0};
  ParallelFor(&pool, 0, 10, 1,
              [&](size_t, size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  // Waiting on the queue from a worker would deadlock once every worker
  // blocks; nested regions therefore execute inline and must still cover
  // their full range.
  ParallelFor(&pool, 0, 8, 1, [&](size_t, size_t) {
    EXPECT_TRUE(pool.InWorkerThread());
    ParallelFor(&pool, 0, 16, 1, [&](size_t begin, size_t end) {
      inner_total.fetch_add(static_cast<int>(end - begin));
    });
  });
  EXPECT_EQ(inner_total.load(), 8 * 16);
}

// Occupies every worker of `pool` (a pool of size N runs N - 1) until
// destruction, so a ParallelFor issued meanwhile has its helpers queued
// behind the blockers and its caller runs every chunk itself. Needs a
// pool of size >= 2 (at size 1 `Submit` runs inline and the blocker
// would spin forever).
class WorkerBlocker {
 public:
  explicit WorkerBlocker(ThreadPool* pool)
      : workers_(static_cast<int>(pool->size()) - 1) {
    for (int i = 0; i < workers_; ++i) {
      pool->Submit([this] {
        blocked_.fetch_add(1);
        while (!release_.load()) std::this_thread::yield();
        blocked_.fetch_sub(1);  // last touch of *this
      });
    }
    while (blocked_.load() < workers_) {
      std::this_thread::yield();
    }
  }
  // Waits for every blocker task to leave, since each holds `this`.
  ~WorkerBlocker() {
    release_.store(true);
    while (blocked_.load() > 0) std::this_thread::yield();
  }

  WorkerBlocker(const WorkerBlocker&) = delete;
  WorkerBlocker& operator=(const WorkerBlocker&) = delete;

 private:
  const int workers_;
  std::atomic<int> blocked_{0};
  std::atomic<bool> release_{false};
};

TEST(ThreadPoolTest, CallerRunsEveryChunkWhenWorkersAreBusy) {
  ThreadPool pool(2);
  std::vector<int> hits(50, 0);
  {
    WorkerBlocker blocker(&pool);
    ParallelFor(&pool, 0, hits.size(), 1, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) ++hits[i];
    });
  }
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ExceptionInCallerRunChunkPropagates) {
  ThreadPool pool(3);
  {
    WorkerBlocker blocker(&pool);
    EXPECT_THROW(ParallelFor(&pool, 0, 10, 1,
                             [](size_t begin, size_t) {
                               if (begin == 3) {
                                 throw std::runtime_error("chunk 3");
                               }
                             }),
                 std::runtime_error);
  }
  // The pool must still accept and finish work afterwards, helpers too.
  std::atomic<int> counter{0};
  ParallelFor(&pool, 0, 64, 1, [&](size_t, size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPoolTest, NestedRegionInCallerRunChunkRunsInline) {
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> inner_total{0};
  std::atomic<int> off_caller{0};
  EXPECT_FALSE(pool.InWorkerThread());
  {
    WorkerBlocker blocker(&pool);
    ParallelFor(&pool, 0, 4, 1, [&](size_t, size_t) {
      EXPECT_TRUE(pool.InWorkerThread());
      ParallelFor(&pool, 0, 16, 1, [&](size_t begin, size_t end) {
        if (std::this_thread::get_id() != caller) off_caller.fetch_add(1);
        inner_total.fetch_add(static_cast<int>(end - begin));
      });
    });
  }
  EXPECT_EQ(inner_total.load(), 4 * 16);
  EXPECT_EQ(off_caller.load(), 0);
  EXPECT_FALSE(pool.InWorkerThread());
}

TEST(ThreadPoolTest, RegionQueuesAtMostSizeMinusOneTasks) {
  obs::ScopedMetricsForTest metrics;
  const obs::Counter& executed =
      obs::MetricsRegistry::Get().counter("pool.tasks_executed");
  size_t pool_size = 0;
  {
    ThreadPool pool(4);
    pool_size = pool.size();
    std::atomic<int> chunks{0};
    ParallelFor(&pool, 0, 1000, 1,
                [&](size_t, size_t) { chunks.fetch_add(1); });
    EXPECT_EQ(chunks.load(), 1000);
    // Destruction drains the queue, so late helpers are counted too.
  }
  EXPECT_LE(executed.value(), pool_size - 1);
}

TEST(ThreadPoolTest, QueueDepthGaugeReadsZeroWhenDrained) {
  obs::ScopedMetricsForTest metrics;
  const obs::Gauge& depth =
      obs::MetricsRegistry::Get().gauge("pool.queue_depth");
  {
    ThreadPool pool(2);
    WorkerBlocker blocker(&pool);
    for (int i = 0; i < 5; ++i) pool.Submit([] {});
    EXPECT_EQ(depth.value(), 5.0);
  }
  EXPECT_EQ(depth.value(), 0.0);
}

TEST(ThreadPoolTest, ManyTinyRegionsCoverTheirRangesOnce) {
  ThreadPool pool(4);
  constexpr size_t kRegions = 10000;
  constexpr size_t kWidth = 6;
  std::vector<int> hits(kRegions * kWidth, 0);
  for (size_t r = 0; r < kRegions; ++r) {
    ParallelFor(&pool, r * kWidth, (r + 1) * kWidth, 1,
                [&](size_t begin, size_t end) {
                  for (size_t i = begin; i < end; ++i) ++hits[i];
                });
  }
  for (int h : hits) ASSERT_EQ(h, 1);
}

TEST(ThreadPoolTest, DeterministicChunkResults) {
  // The same indexed computation must produce identical output at every
  // pool size (chunk boundaries depend only on the range and grain).
  auto compute = [](ThreadPool* pool) {
    std::vector<double> out(512);
    ParallelFor(pool, 0, out.size(), 10, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        out[i] = static_cast<double>(i) * 1.5 + 1.0;
      }
    });
    return out;
  };
  ThreadPool one(1), many(5);
  EXPECT_EQ(compute(&one), compute(&many));
}

TEST(ExecutionContextTest, HonorsSetNumThreads) {
  ExecutionContext& context = ExecutionContext::Get();
  const size_t original = context.num_threads();
  context.SetNumThreads(3);
  EXPECT_EQ(context.num_threads(), 3u);
  EXPECT_EQ(context.pool().size(), 3u);
  EXPECT_EQ(GlobalPool(), &context.pool());
  context.SetNumThreads(original);
}

}  // namespace
}  // namespace dbtune
