#ifndef PCDB_COMMON_THREAD_POOL_H_
#define PCDB_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"

namespace pcdb {

/// \brief A fixed-size pool of worker threads with a submit/wait-group
/// API.
///
/// Tasks are plain std::function<void()> jobs executed FIFO by whichever
/// worker frees up first; Wait() blocks until every task submitted so far
/// has finished (a wait group, not a shutdown). The pool runs whole
/// requests concurrently (the front end's worker and loop pools, the
/// load generator); a single query is always evaluated serially.
///
/// Tasks may fail: a throwing task is caught in the worker, converted to
/// Status::Internal, and recorded as the pool's first failure; once a
/// failure is recorded, tasks still in the queue are skipped instead of
/// run (first-error cancel-the-rest). Submitters retrieve and clear the
/// failure with ConsumeStatus() after Wait().
///
/// With num_threads <= 1 no worker threads are spawned and Submit runs
/// the task inline.
class ThreadPool {
 public:
  /// Creates `num_threads` workers (0 and 1 both mean "inline").
  explicit ThreadPool(size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains the queue, then joins all workers.
  ~ThreadPool();

  /// Enqueues a task (runs it inline when the pool has no workers).
  /// Must not be called from inside a task while holding pool state.
  void Submit(std::function<void()> task) PCDB_EXCLUDES(mu_);

  /// Blocks until all tasks submitted before this call have completed.
  void Wait() PCDB_EXCLUDES(mu_);

  /// Returns the first failure captured since the last call (a task
  /// threw, or the pool.dispatch failpoint fired) and re-arms the pool:
  /// the failure slot is cleared and queued-task skipping stops. OK when
  /// every task completed normally. Call after Wait().
  [[nodiscard]] Status ConsumeStatus() PCDB_EXCLUDES(mu_);

  /// Worker count; 1 for an inline pool.
  size_t num_threads() const {
    return workers_.empty() ? 1 : workers_.size();
  }

 private:
  void WorkerLoop() PCDB_EXCLUDES(mu_);

  /// Runs one task under the dispatch failpoint and an exception guard;
  /// any failure is recorded via RecordFailure.
  void RunTask(const std::function<void()>& task) PCDB_EXCLUDES(mu_);

  /// Records the pool's first failure and starts skipping queued tasks.
  void RecordFailure(Status status) PCDB_EXCLUDES(mu_);

  /// Immutable after the constructor returns; joined in the destructor.
  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar work_available_;
  CondVar all_done_;
  std::deque<std::function<void()>> queue_ PCDB_GUARDED_BY(mu_);
  size_t in_flight_ PCDB_GUARDED_BY(mu_) = 0;  // queued + executing
  bool shutting_down_ PCDB_GUARDED_BY(mu_) = false;
  /// First task failure since the last ConsumeStatus; while non-OK,
  /// queued tasks are skipped (cancel-the-rest).
  Status first_error_ PCDB_GUARDED_BY(mu_);
};

}  // namespace pcdb

#endif  // PCDB_COMMON_THREAD_POOL_H_
