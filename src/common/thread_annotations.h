#ifndef PCDB_COMMON_THREAD_ANNOTATIONS_H_
#define PCDB_COMMON_THREAD_ANNOTATIONS_H_

#include <condition_variable>
#include <mutex>

/// \file
/// Clang Thread Safety Analysis support (-Wthread-safety) for the whole
/// codebase, plus the annotated synchronization primitives every other
/// file must use instead of raw <mutex> types (enforced by
/// pcdb-analyze's `naked-mutex` checker).
///
/// The macros expand to the clang `thread_safety` attributes when the
/// compiler supports them and to nothing otherwise, so GCC builds are
/// unaffected. The `tsa` CMake preset compiles with clang and
/// `-Wthread-safety -Werror`, turning lock-discipline violations
/// (touching a PCDB_GUARDED_BY member without its mutex, releasing a
/// lock twice, ...) into build failures. Conventions are documented in
/// docs/STATIC_ANALYSIS.md.

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define PCDB_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#endif
#endif
#ifndef PCDB_THREAD_ANNOTATION_ATTRIBUTE
#define PCDB_THREAD_ANNOTATION_ATTRIBUTE(x)  // no-op outside clang
#endif

/// Declares a class to be a lockable capability ("mutex" in diagnostics).
#define PCDB_CAPABILITY(x) PCDB_THREAD_ANNOTATION_ATTRIBUTE(capability(x))

/// Declares an RAII class that acquires a capability in its constructor
/// and releases it in its destructor.
#define PCDB_SCOPED_CAPABILITY \
  PCDB_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)

/// The annotated member may only be accessed while holding `x`.
#define PCDB_GUARDED_BY(x) PCDB_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))

/// The pointed-to data (not the pointer itself) is guarded by `x`.
#define PCDB_PT_GUARDED_BY(x) \
  PCDB_THREAD_ANNOTATION_ATTRIBUTE(pt_guarded_by(x))

/// The function may only be called while holding the given capabilities.
#define PCDB_REQUIRES(...) \
  PCDB_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))

/// As PCDB_REQUIRES, but a shared (reader) hold suffices.
#define PCDB_REQUIRES_SHARED(...) \
  PCDB_THREAD_ANNOTATION_ATTRIBUTE(requires_shared_capability(__VA_ARGS__))

/// The function acquires the capability and holds it on return.
#define PCDB_ACQUIRE(...) \
  PCDB_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))

/// The function releases the capability.
#define PCDB_RELEASE(...) \
  PCDB_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))

/// The function acquires the capability iff it returns `result`.
#define PCDB_TRY_ACQUIRE(result, ...) \
  PCDB_THREAD_ANNOTATION_ATTRIBUTE(   \
      try_acquire_capability(result, __VA_ARGS__))

/// The caller must NOT hold the given capabilities (deadlock guard for
/// functions that acquire them internally).
#define PCDB_EXCLUDES(...) \
  PCDB_THREAD_ANNOTATION_ATTRIBUTE(locks_excluded(__VA_ARGS__))

/// Lock-ordering declarations between mutexes.
#define PCDB_ACQUIRED_BEFORE(...) \
  PCDB_THREAD_ANNOTATION_ATTRIBUTE(acquired_before(__VA_ARGS__))
#define PCDB_ACQUIRED_AFTER(...) \
  PCDB_THREAD_ANNOTATION_ATTRIBUTE(acquired_after(__VA_ARGS__))

/// The function returns a reference to the given capability.
#define PCDB_RETURN_CAPABILITY(x) \
  PCDB_THREAD_ANNOTATION_ATTRIBUTE(lock_returned(x))

/// Asserts (at analysis time) that the capability is held.
#define PCDB_ASSERT_CAPABILITY(x) \
  PCDB_THREAD_ANNOTATION_ATTRIBUTE(assert_capability(x))

/// Escape hatch for functions the analysis cannot model; every use must
/// carry a comment explaining why.
#define PCDB_NO_THREAD_SAFETY_ANALYSIS \
  PCDB_THREAD_ANNOTATION_ATTRIBUTE(no_thread_safety_analysis)

namespace pcdb {

/// \brief Annotated exclusive mutex; the only mutex type allowed outside
/// this header.
///
/// A thin wrapper over std::mutex that carries the `capability`
/// attribute so members can be declared PCDB_GUARDED_BY(mu_) and
/// functions PCDB_REQUIRES(mu_) / PCDB_EXCLUDES(mu_). Prefer the scoped
/// MutexLock over manual Lock/Unlock pairs.
class PCDB_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() PCDB_ACQUIRE() { mu_.lock(); }
  void Unlock() PCDB_RELEASE() { mu_.unlock(); }
  bool TryLock() PCDB_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  friend class MutexLock;
  std::mutex mu_;
};

/// \brief RAII lock over a Mutex (scoped capability).
///
/// Holds the mutex from construction to destruction. CondVar::Wait
/// atomically releases and reacquires the underlying mutex through the
/// lock, which the analysis treats as continuously held — the standard
/// condition-variable reading.
class PCDB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) PCDB_ACQUIRE(mu) : lock_(mu->mu_) {}
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;
  ~MutexLock() PCDB_RELEASE() {}

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// \brief Condition variable paired with Mutex/MutexLock.
///
/// Wait takes the active MutexLock so it can only be called with the
/// mutex held; callers re-check their predicate in a while loop (spurious
/// wakeups are allowed through).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(MutexLock& lock) { cv_.wait(lock.lock_); }
  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace pcdb

#endif  // PCDB_COMMON_THREAD_ANNOTATIONS_H_
