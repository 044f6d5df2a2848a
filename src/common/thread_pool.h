// Fixed-size worker pool for the concurrent SODA engine.
//
// The pool is deliberately minimal: a bounded set of workers draining one
// shared FIFO queue, plus a blocking ParallelFor used by the engine to fan
// the queries of a batch out and join before the merge step (one query's
// work is too fine-grained to pay for a hand-off, so it never splits).
// A pool of size 0 or 1 degenerates to inline execution on the calling
// thread, which keeps the single-threaded path allocation- and lock-free
// and makes "1 thread" an exact replica of the serial pipeline.

#ifndef SODA_COMMON_THREAD_POOL_H_
#define SODA_COMMON_THREAD_POOL_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace soda {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers. 0 and 1 both mean "no workers": tasks
  /// run inline on the submitting thread.
  explicit ThreadPool(size_t num_threads) {
    if (num_threads <= 1) return;
    workers_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  /// Number of worker threads (0 when execution is inline).
  size_t size() const { return workers_.size(); }

  /// Tasks queued but not yet claimed by a worker. A sampled gauge for
  /// the engine's metrics (backlog under bursty batch traffic); always 0
  /// for inline pools.
  size_t queue_depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
  }

  /// Enqueues a task. Runs it inline when the pool has no workers.
  void Submit(std::function<void()> task) {
    if (workers_.empty()) {
      task();
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(task));
    }
    wake_.notify_one();
  }

  /// Runs body(0) .. body(n-1) across the pool and blocks until all calls
  /// have returned. Indexes are claimed atomically, so the schedule is
  /// nondeterministic but every index runs exactly once. With no workers
  /// the loop runs serially in index order on the calling thread. The
  /// calling thread always participates, so progress is guaranteed even
  /// when every worker is busy with unrelated tasks.
  ///
  /// Exceptions: a body that throws does not take a worker thread down
  /// (no std::terminate). Every remaining claimed index still completes;
  /// the first exception (by completion order) is rethrown on the calling
  /// thread after the join, so callers see ParallelFor itself throw.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body) {
    if (n == 0) return;
    if (workers_.empty() || n == 1) {
      for (size_t i = 0; i < n; ++i) body(i);
      return;
    }
    struct ForState {
      std::mutex mu;
      std::condition_variable done;
      size_t next = 0;       // next unclaimed index
      size_t remaining;      // indexes not yet finished
      size_t total;
      const std::function<void(size_t)>* body;
      std::exception_ptr first_exception;
    };
    auto state = std::make_shared<ForState>();
    state->remaining = n;
    state->total = n;
    state->body = &body;
    auto drain = [state] {
      for (;;) {
        size_t index;
        {
          std::lock_guard<std::mutex> lock(state->mu);
          if (state->next >= state->total) return;
          index = state->next++;
        }
        std::exception_ptr thrown;
        try {
          (*state->body)(index);
        } catch (...) {
          thrown = std::current_exception();
        }
        {
          std::lock_guard<std::mutex> lock(state->mu);
          if (thrown && !state->first_exception) {
            state->first_exception = thrown;
          }
          if (--state->remaining == 0) {
            state->done.notify_all();
            return;
          }
        }
      }
    };
    // The calling thread is one of the pool's width: with W workers,
    // W - 1 helper tasks plus the caller give exactly W concurrent
    // executors. `state` is captured by shared_ptr, so stragglers that
    // start after the loop already finished see next == total and exit.
    size_t helpers = std::min(n, workers_.size()) - 1;
    for (size_t t = 0; t < helpers; ++t) Submit(drain);
    drain();
    std::unique_lock<std::mutex> lock(state->mu);
    state->done.wait(lock, [&] { return state->remaining == 0; });
    if (state->first_exception) {
      std::exception_ptr rethrow = state->first_exception;
      lock.unlock();
      std::rethrow_exception(rethrow);
    }
  }

 private:
  void WorkerLoop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        wake_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
        if (stopping_ && queue_.empty()) return;
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
    }
  }

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mu_;
  std::condition_variable wake_;
  bool stopping_ = false;
};

}  // namespace soda

#endif  // SODA_COMMON_THREAD_POOL_H_
