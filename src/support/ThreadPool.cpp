//===- ThreadPool.cpp - Fixed-size worker pool ----------------------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

namespace alphonse {

ThreadPool::ThreadPool(unsigned Workers) {
  Threads.reserve(Workers);
  for (unsigned I = 0; I < Workers; ++I)
    Threads.emplace_back([this] { workerMain(); });
}

ThreadPool::~ThreadPool() {
  shutdown(); // Pending error (if any) discarded: destructors cannot throw.
}

std::exception_ptr ThreadPool::shutdown() noexcept {
  {
    std::lock_guard<std::mutex> L(Mu);
    Stop = true;
  }
  WorkCv.notify_all();
  // Workers drain the remaining backlog before exiting; a task that
  // throws has its exception captured in FirstError by workerMain, so no
  // exception can cross a join. join() only on joinable threads makes
  // shutdown idempotent (a second call sees an empty thread vector).
  for (std::thread &T : Threads)
    if (T.joinable())
      T.join();
  Threads.clear();
  // A pool that never had workers may still hold queued tasks; run them
  // inline so nothing is leaked or left to deadlock a later wait().
  for (;;) {
    std::function<void()> Task;
    {
      std::lock_guard<std::mutex> L(Mu);
      if (Queue.empty())
        break;
      Task = std::move(Queue.front());
      Queue.pop_front();
    }
    runInline(Task);
  }
  std::lock_guard<std::mutex> L(Mu);
  std::exception_ptr E = FirstError;
  FirstError = nullptr;
  return E;
}

void ThreadPool::stop() {
  // Rethrow the first unconsumed task error after the drain: a caller
  // that stops the pool without a final wait() must still see failures.
  if (std::exception_ptr E = shutdown())
    std::rethrow_exception(E);
}

void ThreadPool::run(std::function<void()> Task) {
  {
    std::lock_guard<std::mutex> L(Mu);
    if (!Stop && !Threads.empty()) {
      Queue.push_back(std::move(Task));
      WorkCv.notify_one();
      return;
    }
  }
  // No worker will ever look at the queue (stopped, or a zero-worker
  // pool): execute on the caller, and let an exception propagate to the
  // caller directly — there is no later wait() guaranteed to surface it.
  Task();
}

void ThreadPool::runInline(std::function<void()> &Task) {
  try {
    Task();
  } catch (...) {
    std::lock_guard<std::mutex> L(Mu);
    if (!FirstError)
      FirstError = std::current_exception();
  }
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> L(Mu);
  IdleCv.wait(L, [this] { return Queue.empty() && Active == 0; });
  if (FirstError) {
    std::exception_ptr E = FirstError;
    FirstError = nullptr;
    std::rethrow_exception(E);
  }
}

void ThreadPool::workerMain() {
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> L(Mu);
      WorkCv.wait(L, [this] { return Stop || !Queue.empty(); });
      if (Queue.empty()) {
        if (Stop)
          break;
        continue;
      }
      Task = std::move(Queue.front());
      Queue.pop_front();
      ++Active;
    }
    try {
      Task();
    } catch (...) {
      std::lock_guard<std::mutex> L(Mu);
      if (!FirstError)
        FirstError = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> L(Mu);
      --Active;
      if (Queue.empty() && Active == 0)
        IdleCv.notify_all();
    }
  }
}

} // namespace alphonse
