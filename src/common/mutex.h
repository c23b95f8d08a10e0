// Annotated mutex: std::mutex wrapped in a clang `capability` type so
// -Wthread-safety can prove lock discipline (libstdc++'s std::mutex carries
// no capability attributes, which silently disables the analysis).
//
//   class Registry {
//     Mutex mutex_;
//     std::map<...> counters_ ALADDIN_GUARDED_BY(mutex_);
//   };
//   MutexLock lock(mutex_);          // scoped acquire, analysis-visible
//
// Condition-variable interop (std::condition_variable insists on
// std::unique_lock<std::mutex>) goes through CvLock, which exposes the
// native unique_lock for wait() while declaring the capability to the
// analysis:
//
//   CvLock lock(mutex_);
//   cv_.wait(lock.native(), [&]() ALADDIN_REQUIRES(mutex_) { ... });
//
// All wrappers are inline forwarding around std::mutex — identical codegen,
// identical TSan instrumentation, zero runtime cost.
#pragma once

#include <mutex>

#include "common/thread_annotations.h"

namespace aladdin {

class ALADDIN_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ALADDIN_ACQUIRE() { m_.lock(); }
  void Unlock() ALADDIN_RELEASE() { m_.unlock(); }
  // Declares (to the analysis only) that the current thread holds the lock.
  void AssertHeld() const ALADDIN_ASSERT_CAPABILITY(this) {}

  // For std::condition_variable interop; use via CvLock.
  [[nodiscard]] std::mutex& native() { return m_; }

 private:
  std::mutex m_;
};

// RAII lock, visible to the thread-safety analysis.
class ALADDIN_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) ALADDIN_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.Lock();
  }
  ~MutexLock() ALADDIN_RELEASE() { mutex_.Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

// RAII lock exposing the underlying std::unique_lock so it can be handed to
// std::condition_variable::wait. The wait's internal unlock/relock is
// invisible to the analysis, which is sound: the capability is held
// whenever user code runs (predicate checks and after wait returns).
class ALADDIN_SCOPED_CAPABILITY CvLock {
 public:
  explicit CvLock(Mutex& mutex) ALADDIN_ACQUIRE(mutex)
      : lock_(mutex.native()) {}
  ~CvLock() ALADDIN_RELEASE() = default;
  CvLock(const CvLock&) = delete;
  CvLock& operator=(const CvLock&) = delete;

  [[nodiscard]] std::unique_lock<std::mutex>& native() { return lock_; }

 private:
  std::unique_lock<std::mutex> lock_;
};

}  // namespace aladdin
