#pragma once
// Annotated mutex primitives for Clang's thread-safety analysis.
//
// The standard library's std::mutex / std::scoped_lock carry no capability
// attributes (libstdc++ never annotates them), so locks taken through them
// are invisible to -Wthread-safety: every MC_GUARDED_BY member access would
// warn even when correctly locked. This thin wrapper pair is the library's
// only locking vocabulary — Mutex is the capability, MutexLock the scoped
// acquisition — and both compile down to exactly std::mutex operations.
//
// MutexLock is BasicLockable (lock()/unlock()) so a
// std::condition_variable_any can wait on it directly; the analysis treats
// the capability as held across the wait, which is sound because wait()
// re-acquires before returning and guarded state is only read after the
// predicate re-check.

#include <mutex>

#include "util/thread_annotations.hpp"

namespace minicost::util {

/// A std::mutex with Clang capability annotations. Non-reentrant.
class MC_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() MC_ACQUIRE() { impl_.lock(); }
  void unlock() MC_RELEASE() { impl_.unlock(); }

 private:
  std::mutex impl_;
};

/// RAII lock over Mutex; the annotated replacement for std::scoped_lock.
/// Also BasicLockable so std::condition_variable_any can drop/re-take it
/// inside wait().
class MC_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) MC_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() MC_RELEASE() { mutex_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  // BasicLockable for condition_variable_any::wait. The analysis sees the
  // unlock/lock pair as releasing and re-acquiring the underlying mutex.
  void lock() MC_ACQUIRE() { mutex_.lock(); }
  void unlock() MC_RELEASE() { mutex_.unlock(); }

 private:
  Mutex& mutex_;
};

}  // namespace minicost::util
