#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

namespace ealgap {
namespace {

thread_local bool t_in_parallel = false;

int InitialThreads() {
  if (const char* env = std::getenv("EALGAP_NUM_THREADS")) {
    const int n = std::atoi(env);
    if (n >= 1) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// One dispatched ParallelFor: workers and the caller claim chunk indices
/// with an atomic counter. Jobs are pool-owned and recycled through a
/// freelist instead of heap-allocated per dispatch, so the steady state
/// performs zero allocations. A job returns to the freelist only when its
/// reference count (always mutated under mu_) drops to zero, so a worker
/// that wakes late and still holds an old job never sees its fields
/// rewritten by the next dispatch.
struct Job {
  internal::ChunkFn fn = nullptr;
  void* ctx = nullptr;
  int64_t begin = 0;
  int64_t end = 0;
  int64_t chunk = 0;
  int ntasks = 0;
  std::atomic<int> next{0};
  std::atomic<int> done{0};
  int refs = 0;  // guarded by Pool::mu_
  Job* free_next = nullptr;
};

class Pool {
 public:
  static Pool& Instance() {
    // Leaked intentionally: worker threads must never outlive the pool, and
    // static destruction order across translation units is unknowable.
    static Pool* pool = new Pool();
    return *pool;
  }

  int num_threads() const { return num_threads_.load(std::memory_order_acquire); }

  void Resize(int n) {
    n = std::max(n, 1);
    // Resizing from inside a chunk would self-deadlock on run_mu_; refuse.
    if (t_in_parallel) return;
    std::lock_guard<std::mutex> resize_lock(resize_mu_);
    if (n == num_threads()) return;
    // Drain any in-flight dispatch before touching the workers.
    std::lock_guard<std::mutex> run_lock(run_mu_);
    StopWorkers();
    num_threads_.store(n, std::memory_order_release);
    StartWorkers();
  }

  /// Runs fn(ctx, b, e) over `ntasks` chunks of [begin, end), the caller
  /// participating. Returns false without running anything when another
  /// dispatch is in flight (concurrent caller); the caller then falls back
  /// to serial.
  bool TryRun(int ntasks, int64_t begin, int64_t end, int64_t chunk,
              internal::ChunkFn fn, void* ctx) {
    std::unique_lock<std::mutex> run_lock(run_mu_, std::try_to_lock);
    if (!run_lock.owns_lock()) return false;
    Job* job;
    {
      std::lock_guard<std::mutex> lock(mu_);
      job = AcquireJobLocked();
      job->fn = fn;
      job->ctx = ctx;
      job->begin = begin;
      job->end = end;
      job->chunk = chunk;
      job->ntasks = ntasks;
      job->next.store(0, std::memory_order_relaxed);
      job->done.store(0, std::memory_order_relaxed);
      job->refs = 1;  // the dispatching caller
      job_ = job;
      ++seq_;
    }
    work_cv_.notify_all();
    RunTasks(*job);
    {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [&] {
        return job->done.load(std::memory_order_acquire) >= job->ntasks;
      });
      job_ = nullptr;
      ReleaseJobLocked(job);
    }
    return true;
  }

 private:
  Pool() : num_threads_(InitialThreads()) { StartWorkers(); }

  void StartWorkers() {
    {
      // A live job is either the one in flight or a finished one that a
      // worker has not released yet — at most one per executor — so
      // num_threads jobs made here keep every later dispatch off the heap,
      // however late workers wake.
      std::lock_guard<std::mutex> lock(mu_);
      while (jobs_made_ < num_threads()) {
        Job* job = new Job();
        ++jobs_made_;
        job->free_next = free_jobs_;
        free_jobs_ = job;
      }
    }
    // The dispatching caller counts as one executor.
    for (int i = 0; i < num_threads() - 1; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  void StopWorkers() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& w : workers_) w.join();
    workers_.clear();
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = false;
  }

  Job* AcquireJobLocked() {
    if (free_jobs_ != nullptr) {
      Job* job = free_jobs_;
      free_jobs_ = job->free_next;
      job->free_next = nullptr;
      return job;
    }
    // Unreachable while StartWorkers' bound holds; kept as a safe default.
    ++jobs_made_;
    return new Job();
  }

  void ReleaseJobLocked(Job* job) {
    if (--job->refs == 0) {
      job->free_next = free_jobs_;
      free_jobs_ = job;
    }
  }

  void WorkerLoop() {
    uint64_t last_seq = 0;
    for (;;) {
      Job* job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [&] {
          return shutdown_ || (job_ != nullptr && seq_ != last_seq);
        });
        if (shutdown_) return;
        last_seq = seq_;
        job = job_;
        ++job->refs;
      }
      RunTasks(*job);
      {
        std::lock_guard<std::mutex> lock(mu_);
        ReleaseJobLocked(job);
      }
    }
  }

  void RunTasks(Job& job) {
    t_in_parallel = true;
    for (;;) {
      const int i = job.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= job.ntasks) break;
      const int64_t b = job.begin + i * job.chunk;
      const int64_t e = std::min(job.end, b + job.chunk);
      if (b < e) job.fn(job.ctx, b, e);
      if (job.done.fetch_add(1, std::memory_order_acq_rel) + 1 == job.ntasks) {
        std::lock_guard<std::mutex> lock(mu_);
        done_cv_.notify_all();
      }
    }
    t_in_parallel = false;
  }

  std::mutex resize_mu_;  // serializes Resize calls
  std::mutex run_mu_;     // one dispatch at a time; Resize drains through it
  std::mutex mu_;         // guards job_, seq_, shutdown_, refs, freelist, cvs
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  Job* job_ = nullptr;
  Job* free_jobs_ = nullptr;
  int jobs_made_ = 0;  // guarded by mu_
  uint64_t seq_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
  std::atomic<int> num_threads_{1};
};

}  // namespace

int GetNumThreads() { return Pool::Instance().num_threads(); }

void SetNumThreads(int n) { Pool::Instance().Resize(n); }

bool InParallelRegion() { return t_in_parallel; }

namespace internal {

bool ShouldParallelize(int64_t n, int64_t grain) {
  // Nested calls must not touch pool state at all.
  if (t_in_parallel) return false;
  return Pool::Instance().num_threads() > 1 && n >= 2 * grain;
}

void ParallelForImpl(int64_t begin, int64_t end, int64_t grain, ChunkFn fn,
                     void* ctx) {
  Pool& pool = Pool::Instance();
  const int64_t n = end - begin;
  const int nt = pool.num_threads();
  const int64_t max_chunks = (n + grain - 1) / grain;
  const int nchunks = static_cast<int>(std::min<int64_t>(nt, max_chunks));
  const int64_t chunk = (n + nchunks - 1) / nchunks;
  if (!pool.TryRun(nchunks, begin, end, chunk, fn, ctx)) fn(ctx, begin, end);
}

}  // namespace internal

}  // namespace ealgap
