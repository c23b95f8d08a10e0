#include "common/thread_pool.h"

#include <algorithm>

#include "common/check.h"

namespace aladdin {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> fut = packaged.get_future();
  {
    MutexLock lock(mutex_);
    // Always-on: a task enqueued after shutdown begins may never run (the
    // workers exit once the queue drains), deadlocking the returned future.
    ALADDIN_CHECK(!stopping_) << "ThreadPool::Submit after shutdown began";
    queue_.push(std::move(packaged));
  }
  cv_.notify_one();
  return fut;
}

void ThreadPool::Wait() {
  CvLock lock(mutex_);
  idle_cv_.wait(lock.native(), [this]() ALADDIN_REQUIRES(mutex_) {
    return queue_.empty() && in_flight_ == 0;
  });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      CvLock lock(mutex_);
      cv_.wait(lock.native(), [this]() ALADDIN_REQUIRES(mutex_) {
        return stopping_ || !queue_.empty();
      });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop();
      // The pop and the in_flight_ increment share one critical section:
      // splitting them opens the classic missed-wakeup race where Wait()
      // observes an empty queue and in_flight_ == 0 while a task is in
      // transit between the two, and returns with work still running.
      ++in_flight_;
    }
    task();  // exceptions surface through the packaged_task's future
    {
      MutexLock lock(mutex_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

void ParallelFor(ThreadPool& pool, std::size_t begin, std::size_t end,
                 const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t workers = pool.thread_count();
  if (workers <= 1 || n == 1) {
    SerialFor(begin, end, fn);
    return;
  }
  // Contiguous chunks, one per worker, so iteration->thread mapping is
  // deterministic (matters only for perf, not results — tasks are
  // independent by contract).
  const std::size_t chunk = (n + workers - 1) / workers;
  // analyze:allow(A102) bounded: one future per chunk, <= thread_count()
  std::vector<std::future<void>> futures;
  for (std::size_t lo = begin; lo < end; lo += chunk) {
    const std::size_t hi = std::min(end, lo + chunk);
    futures.push_back(pool.Submit([lo, hi, &fn] {
      for (std::size_t i = lo; i < hi; ++i) fn(i);
    }));
  }
  for (auto& f : futures) f.get();
}

void SerialFor(std::size_t begin, std::size_t end,
               const std::function<void(std::size_t)>& fn) {
  for (std::size_t i = begin; i < end; ++i) fn(i);
}

}  // namespace aladdin
