#pragma once

/// \file thread_pool.h
/// \brief A small persistent work pool for batch oracle evaluation.
///
/// The paper charges every algorithm purely by its number of
/// Is-interesting queries (Theorem 10, Theorem 21), and the levelwise
/// algorithm evaluates a whole candidate level with no data dependency
/// between candidates — an embarrassingly parallel batch.  ThreadPool
/// provides the one primitive that batch needs: ParallelFor over a dense
/// index range with deterministic contiguous chunking.  Determinism
/// contract: chunk boundaries depend only on (range size, chunk count),
/// never on scheduling, and callers reduce per-chunk results in chunk
/// order — so all outputs are bit-for-bit identical at any thread count.

#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/stopwatch.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hgm {

/// A copyable counter with atomic increments, for query tallies that are
/// bumped from parallel regions but read single-threaded afterwards.
/// (std::atomic itself is neither copyable nor movable, which would make
/// every result struct holding one unreturnable by value.)
class AtomicCounter {
 public:
  AtomicCounter(uint64_t v = 0) : v_(v) {}  // NOLINT(runtime/explicit)
  AtomicCounter(const AtomicCounter& o) : v_(o.load()) {}
  AtomicCounter& operator=(const AtomicCounter& o) {
    v_.store(o.load(), std::memory_order_relaxed);
    return *this;
  }

  uint64_t load() const { return v_.load(std::memory_order_relaxed); }
  operator uint64_t() const { return load(); }

  AtomicCounter& operator+=(uint64_t d) {
    v_.fetch_add(d, std::memory_order_relaxed);
    return *this;
  }
  AtomicCounter& operator++() {
    v_.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }

 private:
  std::atomic<uint64_t> v_;
};

/// Number of threads to use by default: the HGMINE_THREADS environment
/// variable if set and positive, otherwise std::thread::hardware_concurrency
/// (itself clamped to >= 1).
inline size_t DefaultThreadCount() {
  if (const char* env = std::getenv("HGMINE_THREADS")) {
    long v = std::atol(env);
    if (v >= 1) return static_cast<size_t>(v);
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

/// Batches of fewer items than this are better run on the calling thread
/// than spread over the pool: waking the workers costs more than they
/// save.  Measured on the stream smoke's per-level fresh counts (window
/// 1000, 4 threads): repair 129-141 ms inline below 256 items against
/// 149-183 ms always waking the pool.
inline constexpr size_t kInlineBatchItems = 256;

/// A fixed-size pool of worker threads executing ParallelFor chunks.
///
/// A pool of size t runs each ParallelFor as exactly t contiguous chunks,
/// t-1 candidates for workers and one for the calling thread (the caller
/// also steals leftover chunks, so a slow worker wake-up never stalls the
/// batch).  Size 1 spawns no workers and runs everything inline.  Nested
/// ParallelFor calls from inside a chunk run inline, so parallel oracles
/// may be freely composed without deadlock.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads = DefaultThreadCount()) {
    if (num_threads < 1) num_threads = 1;
    workers_.reserve(num_threads - 1);
    for (size_t i = 0; i + 1 < num_threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      MutexLock lock(mu_);
      stop_ = true;
    }
    work_cv_.NotifyAll();
    for (auto& w : workers_) w.join();
  }

  /// Total execution lanes: workers plus the calling thread.
  size_t num_threads() const { return workers_.size() + 1; }

  /// Invokes fn(begin, end, chunk) for num_threads() contiguous chunks
  /// covering [0, n), where `chunk` is the deterministic chunk index in
  /// [0, num_threads()).  Blocks until every chunk has finished.  Chunk
  /// boundaries are a pure function of (n, num_threads()); callers that
  /// accumulate per-chunk partials must reduce them in chunk order.
  ///
  /// Exception safety: if a chunk throws, the first exception is
  /// captured, the remaining unclaimed chunks are abandoned, and the
  /// exception is rethrown here once every worker has left the batch —
  /// the pool itself stays healthy and reusable.  If \p cancel is
  /// cancelled, chunks not yet started are skipped and CancelledError is
  /// thrown at the join point (a chunk already running is not
  /// interrupted; fn may also poll the token itself).  In both cases the
  /// per-chunk outputs are incomplete and must be discarded.
  void ParallelFor(size_t n,
                   const std::function<void(size_t, size_t, size_t)>& fn,
                   const CancellationToken& cancel = {}) {
    if (n == 0) return;
    const size_t chunks = num_threads();
    // Telemetry: one span + batch/item tallies per ParallelFor; per-chunk
    // busy time accumulates inside RunChunk.  All gated on the relaxed
    // enabled flags, so an idle registry costs two loads per batch.
    HGM_OBS_COUNT("pool.batches", 1);
    HGM_OBS_COUNT("pool.items", n);
    HGM_OBS_OBSERVE("pool.batch_items", n);
    obs::TraceSpan batch_span("pool.batch", "pool",
                              {{"items", n}, {"chunks", chunks}});
    if (chunks == 1 || in_worker_) {
      cancel.ThrowIfCancelled("ParallelFor");
      RunTimed(fn, 0, n, 0);
      return;
    }
    Batch batch;
    batch.fn = &fn;
    batch.n = n;
    batch.chunks = chunks;
    batch.cancel = &cancel;

    {
      MutexLock lock(mu_);
      current_ = &batch;
      ++epoch_;
    }
    work_cv_.NotifyAll();

    // Caller runs chunk 0, then steals whatever the workers have not
    // claimed yet.
    RunChunk(&batch, 0);
    for (size_t c = batch.next.fetch_add(1); c < chunks;
         c = batch.next.fetch_add(1)) {
      RunChunk(&batch, c);
    }
    // Wait until all chunks ran AND every worker that entered the batch
    // has left it: `batch` lives on this stack frame, so returning while
    // a worker still holds the pointer would be a use-after-free.
    {
      MutexLock lock(mu_);
      // The predicate reads only the batch's atomics, so it needs no
      // guarded-state exemption.
      done_cv_.Wait(mu_, [&] {
        return batch.done.load() == chunks && batch.refs.load() == 0;
      });
      current_ = nullptr;
    }
    if (batch.error) std::rethrow_exception(batch.error);
    if (batch.abandoned.load(std::memory_order_acquire)) {
      throw CancelledError("cancelled in ParallelFor");
    }
  }

 private:
  struct Batch {
    const std::function<void(size_t, size_t, size_t)>* fn = nullptr;
    size_t n = 0;
    size_t chunks = 0;
    std::atomic<size_t> next{1};  // chunk 0 belongs to the caller
    std::atomic<size_t> done{0};
    std::atomic<size_t> refs{0};  // workers currently inside the batch
    /// First exception thrown by any chunk (guarded by the pool mutex);
    /// rethrown at the join point.
    std::exception_ptr error;
    /// Set on exception or external cancellation: chunks claimed after
    /// this point are marked done without running.
    std::atomic<bool> abandoned{false};
    const CancellationToken* cancel = nullptr;
  };

  /// Invokes one chunk, charging pool.chunks / pool.busy_us (the per-lane
  /// busy-time tally behind the utilization figures) when metrics are on.
  static void RunTimed(const std::function<void(size_t, size_t, size_t)>& fn,
                       size_t begin, size_t end, size_t c) {
    if (!obs::MetricsOn()) {
      fn(begin, end, c);
      return;
    }
    obs::TraceSpan chunk_span("pool.chunk", "pool",
                              {{"chunk", c}, {"items", end - begin}});
    StopWatch sw;
    fn(begin, end, c);
    HGM_OBS_COUNT("pool.chunks", 1);
    HGM_OBS_COUNT("pool.busy_us", static_cast<uint64_t>(sw.Micros()));
  }

  void RunChunk(Batch* batch, size_t c) {
    // Cancellation / first-exception check at the chunk boundary: an
    // abandoned batch still counts every chunk done (the join waits on
    // that), it just stops doing work.
    bool run = !batch->abandoned.load(std::memory_order_acquire);
    if (run && batch->cancel != nullptr && batch->cancel->cancelled()) {
      batch->abandoned.store(true, std::memory_order_release);
      run = false;
    }
    if (run) {
      const size_t begin = c * batch->n / batch->chunks;
      const size_t end = (c + 1) * batch->n / batch->chunks;
      if (begin < end) {
        try {
          RunTimed(*batch->fn, begin, end, c);
        } catch (...) {
          MutexLock lock(mu_);
          if (!batch->error) batch->error = std::current_exception();
          batch->abandoned.store(true, std::memory_order_release);
        }
      }
    }
    if (batch->done.fetch_add(1) + 1 == batch->chunks) {
      MutexLock lock(mu_);
      done_cv_.NotifyAll();
    }
  }

  void WorkerLoop() {
    in_worker_ = true;
    uint64_t seen_epoch = 0;
    while (true) {
      Batch* batch = nullptr;
      {
        MutexLock lock(mu_);
        // The predicate reads guarded members; CondVar::Wait always runs
        // it with mu_ held, but the lambda is opaque to the analysis.
        work_cv_.Wait(mu_, [&]() HGM_NO_THREAD_SAFETY_ANALYSIS {
          return stop_ || (current_ != nullptr && epoch_ != seen_epoch);
        });
        if (stop_) return;
        seen_epoch = epoch_;
        batch = current_;
        batch->refs.fetch_add(1);  // under mu_: the caller's done-wait
                                   // predicate observes this or runs later
      }
      for (size_t c = batch->next.fetch_add(1); c < batch->chunks;
           c = batch->next.fetch_add(1)) {
        RunChunk(batch, c);
      }
      {
        MutexLock lock(mu_);
        batch->refs.fetch_sub(1);
        done_cv_.NotifyAll();
      }
    }
  }

  static thread_local bool in_worker_;

  /// Guards the batch hand-off state below.  The Batch object itself
  /// lives on the calling thread's stack; its atomics (next/done/refs/
  /// abandoned) synchronize on their own, while Batch::error is written
  /// under mu_ and read by the caller only after the done-wait's
  /// refs==0 condition, which the same mutex orders.
  Mutex mu_;
  CondVar work_cv_;
  CondVar done_cv_;
  Batch* current_ HGM_GUARDED_BY(mu_) = nullptr;
  uint64_t epoch_ HGM_GUARDED_BY(mu_) = 0;
  bool stop_ HGM_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

inline thread_local bool ThreadPool::in_worker_ = false;

/// The process-wide default pool, sized by DefaultThreadCount() at first
/// use.  Algorithms that take an optional ThreadPool* treat nullptr as
/// "use the global pool".
inline ThreadPool* GlobalPool() {
  static ThreadPool pool;
  return &pool;
}

/// Resolves an optional pool argument to a usable pool.
inline ThreadPool* PoolOrGlobal(ThreadPool* pool) {
  return pool != nullptr ? pool : GlobalPool();
}

}  // namespace hgm
