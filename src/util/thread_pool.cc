#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <string>

#include "obs/clock.h"
#include "obs/metrics.h"
#include "util/logging.h"

namespace dbtune {

namespace {

// Set while a thread is executing pool work: on workers for their whole
// life, on a ParallelFor caller while it runs chunks. Nested ParallelFor
// calls on such a thread run inline instead of re-entering the queue
// (waiting on the queue from a worker can deadlock once every worker is
// waiting).
thread_local bool t_in_pool_worker = false;

// Shared state of one parallel region. Chunk `c` covers
// [begin + c * grain, min(end, begin + (c + 1) * grain)): boundaries
// depend only on (begin, end, grain), never on which thread claims the
// chunk, so any per-index output written by `fn` is identical for every
// pool size. Helpers hold the region by shared_ptr and may start after
// the caller has returned; they then claim nothing and never touch `fn`.
struct Region {
  Region(size_t begin, size_t end, size_t grain,
         const std::function<void(size_t, size_t)>* fn)
      : begin(begin),
        end(end),
        grain(grain),
        num_chunks((end - begin + grain - 1) / grain),
        fn(fn) {}

  // Claims chunks until none is left. The thread that completes the last
  // chunk wakes the caller.
  void RunChunks() {
    for (;;) {
      const size_t chunk = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= num_chunks) return;
      const size_t chunk_begin = begin + chunk * grain;
      const size_t chunk_end = std::min(end, chunk_begin + grain);
      try {
        (*fn)(chunk_begin, chunk_end);
      } catch (...) {
        MutexLock lock(&mu);
        if (!first_error) first_error = std::current_exception();
      }
      // acq_rel: the caller's wake-up happens after every chunk's writes.
      if (chunks_done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          num_chunks) {
        MutexLock lock(&mu);
        done = true;
        done_cv.NotifyAll();
      }
    }
  }

  const size_t begin;
  const size_t end;
  const size_t grain;
  const size_t num_chunks;
  const std::function<void(size_t, size_t)>* const fn;
  std::atomic<size_t> next_chunk{0};
  std::atomic<size_t> chunks_done{0};
  Mutex mu;
  CondVar done_cv;
  bool done DBTUNE_GUARDED_BY(mu) = false;
  std::exception_ptr first_error DBTUNE_GUARDED_BY(mu);
};

}  // namespace

ThreadPool::ThreadPool(size_t size) : size_(std::max<size_t>(1, size)) {
  if (size_ == 1) return;  // sequential fallback: no threads at all
  // The ParallelFor caller is the remaining lane.
  workers_.reserve(size_ - 1);
  for (size_t i = 0; i + 1 < size_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  DBTUNE_CHECK(task != nullptr);
  if (workers_.empty()) {
    task();
    return;
  }
  {
    MutexLock lock(&mu_);
    queue_.push_back(std::move(task));
    if (obs::MetricsEnabled()) {
      static obs::Gauge& depth =
          obs::MetricsRegistry::Get().gauge("pool.queue_depth");
      depth.Set(static_cast<double>(queue_.size()));
      static obs::Gauge& peak =
          obs::MetricsRegistry::Get().gauge("pool.queue_depth_peak");
      peak.Max(static_cast<double>(queue_.size()));
    }
  }
  cv_.NotifyOne();
}

bool ThreadPool::InWorkerThread() const { return t_in_pool_worker; }

void ThreadPool::WorkerLoop(size_t worker) {
  t_in_pool_worker = true;
  // Handles are resolved once per worker; recording is lock-free.
  obs::Gauge& worker_busy = obs::MetricsRegistry::Get().gauge(
      "pool.worker_busy_seconds." + std::to_string(worker));
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      while (!shutdown_ && queue_.empty()) cv_.Wait(&mu_);
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
      if (obs::MetricsEnabled()) {
        static obs::Gauge& depth =
            obs::MetricsRegistry::Get().gauge("pool.queue_depth");
        depth.Set(static_cast<double>(queue_.size()));
      }
    }
    if (obs::MetricsEnabled()) {
      static obs::Counter& executed =
          obs::MetricsRegistry::Get().counter("pool.tasks_executed");
      const double start = obs::MonotonicSeconds();
      task();
      executed.Increment();
      worker_busy.Add(obs::MonotonicSeconds() - start);
    } else {
      task();
    }
  }
}

void ParallelFor(ThreadPool* pool, size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& fn) {
  if (begin >= end) return;
  grain = std::max<size_t>(1, grain);
  const size_t count = end - begin;
  const bool sequential = pool == nullptr || pool->size() == 1 ||
                          count <= grain || pool->InWorkerThread();
  if (sequential) {
    fn(begin, end);
    return;
  }

  auto region = std::make_shared<Region>(begin, end, grain, &fn);
  // The caller claims chunks too, so a region never needs more than
  // size() - 1 helpers, and never more helpers than chunks beyond its own.
  const size_t helpers = std::min(pool->size() - 1, region->num_chunks - 1);
  for (size_t h = 0; h < helpers; ++h) {
    pool->Submit([region] { region->RunChunks(); });
  }
  // While it runs chunks the caller counts as pool work, so regions
  // nested in its chunks run inline exactly as they do on a helper.
  t_in_pool_worker = true;
  region->RunChunks();
  t_in_pool_worker = false;

  std::exception_ptr first_error;
  {
    MutexLock lock(&region->mu);
    while (!region->done) region->done_cv.Wait(&region->mu);
    first_error = region->first_error;
  }
  if (first_error) std::rethrow_exception(first_error);
}

size_t ExecutionContext::num_threads_locked() const {
  if (const char* env = std::getenv("DBTUNE_NUM_THREADS")) {
    const long parsed = std::atol(env);
    if (parsed >= 1) return static_cast<size_t>(std::min(parsed, 256L));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

ExecutionContext& ExecutionContext::Get() {
  // Intentionally leaked so worker threads may outlive static destructors.
  static ExecutionContext* context =
      new ExecutionContext();  // dbtune-lint: allow(naked-new)
  return *context;
}

ThreadPool& ExecutionContext::pool() {
  MutexLock lock(&mu_);
  if (!pool_) {
    if (configured_ == 0) configured_ = num_threads_locked();
    pool_ = std::make_unique<ThreadPool>(configured_);
  }
  return *pool_;
}

size_t ExecutionContext::num_threads() {
  MutexLock lock(&mu_);
  if (configured_ == 0) configured_ = num_threads_locked();
  return configured_;
}

void ExecutionContext::SetNumThreads(size_t n) {
  MutexLock lock(&mu_);
  configured_ = std::max<size_t>(1, n);
  pool_.reset();  // rebuilt lazily at the new size
}

ThreadPool* GlobalPool() { return &ExecutionContext::Get().pool(); }

}  // namespace dbtune
