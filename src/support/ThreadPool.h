//===- ThreadPool.h - Fixed-size worker pool --------------------*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal fixed-size worker pool for the session service (DESIGN.md
/// "Session service"). Threads are created once, pull tasks from a shared
/// queue, and are joined at destruction.
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_SUPPORT_THREADPOOL_H
#define ALPHONSE_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace alphonse {

/// Fixed pool of worker threads draining a shared task queue.
class ThreadPool {
public:
  /// Creates \p Workers worker threads.
  explicit ThreadPool(unsigned Workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Number of live worker threads (0 once stopped).
  unsigned size() const { return static_cast<unsigned>(Threads.size()); }

  /// Enqueues \p Task for execution on some worker. On a pool with no
  /// workers — constructed with 0, or already stop()ped — the task runs
  /// inline on the calling thread instead: it is never silently dropped,
  /// it cannot strand wait() on a queue no worker will ever drain, and an
  /// exception it throws propagates directly to the caller (there is no
  /// later wait() guaranteed to surface it).
  void run(std::function<void()> Task);

  /// Blocks until every enqueued task has finished. If any task escaped
  /// with an exception, the first one is rethrown here (on the caller's
  /// thread) after the queue drains.
  void wait();

  /// Shuts the pool down: workers finish the queued backlog (including
  /// tasks that throw — their exceptions are captured, never propagated
  /// into the joins) and are joined. If any task escaped with an
  /// exception that no wait() consumed, the first one is rethrown here
  /// after the drain — a caller that stops without waiting does not
  /// silently swallow task failures. Idempotent; the destructor performs
  /// the same shutdown but swallows the pending error (destructors must
  /// not throw). After stop() the pool has no threads and run() executes
  /// inline.
  void stop();

private:
  void workerMain();
  /// Joins the workers and drains any queued backlog inline. Returns the
  /// pending first error (cleared from the pool), which stop() rethrows
  /// and the destructor discards.
  std::exception_ptr shutdown() noexcept;
  /// Runs \p Task on the calling thread under the pool's error contract
  /// (first escaped exception lands in FirstError for the next wait()).
  void runInline(std::function<void()> &Task);

  std::vector<std::thread> Threads;
  std::deque<std::function<void()>> Queue;
  mutable std::mutex Mu;
  std::condition_variable WorkCv;  ///< Signals workers: task or shutdown.
  std::condition_variable IdleCv;  ///< Signals wait(): everything drained.
  size_t Active = 0;               ///< Tasks currently executing.
  bool Stop = false;
  std::exception_ptr FirstError;
};

} // namespace alphonse

#endif // ALPHONSE_SUPPORT_THREADPOOL_H
