// Clang thread-safety annotation macros (the Abseil/LLVM pattern).
//
// Under clang the macros expand to the capability attributes consumed by
// -Wthread-safety, so lock discipline is checked at compile time; under any
// other compiler they expand to nothing and cost nothing. The annotated
// lock type that makes the analysis actually fire (libstdc++'s std::mutex
// carries no capability attributes) lives in common/mutex.h.
//
// Rollout policy (enforced by tools/analyze rule L1): every class on the
// concurrency surface — ThreadPool, obs::Registry, the trace/journal rings,
// the Prometheus listener — declares which mutex guards each mutable field
// with ALADDIN_GUARDED_BY, and functions that expect a lock held say so
// with ALADDIN_REQUIRES. Fields that are deliberately unguarded (confined
// to one thread, or synchronised by a join) carry an
// `analyze:allow(L103) <why>` marker instead, so every exception is a
// documented decision rather than an omission.
#pragma once

#if defined(__clang__)
#define ALADDIN_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define ALADDIN_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

// On a data member: may only be read/written while `x` is held.
#define ALADDIN_GUARDED_BY(x) ALADDIN_THREAD_ANNOTATION(guarded_by(x))
// On a pointer member: the pointed-to data is guarded by `x`.
#define ALADDIN_PT_GUARDED_BY(x) ALADDIN_THREAD_ANNOTATION(pt_guarded_by(x))

// On a function: the caller must hold / must not hold the capabilities.
#define ALADDIN_REQUIRES(...) \
  ALADDIN_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define ALADDIN_EXCLUDES(...) \
  ALADDIN_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// On lock-type methods.
#define ALADDIN_CAPABILITY(name) ALADDIN_THREAD_ANNOTATION(capability(name))
#define ALADDIN_SCOPED_CAPABILITY ALADDIN_THREAD_ANNOTATION(scoped_lockable)
#define ALADDIN_ACQUIRE(...) \
  ALADDIN_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define ALADDIN_RELEASE(...) \
  ALADDIN_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
// Tells the analysis a capability is held here without acquiring it (used
// after condition_variable interop hands the lock back, see common/mutex.h).
#define ALADDIN_ASSERT_CAPABILITY(x) \
  ALADDIN_THREAD_ANNOTATION(assert_capability(x))
// Return-value escape hatch for accessors that expose a guarded reference.
#define ALADDIN_RETURN_CAPABILITY(x) ALADDIN_THREAD_ANNOTATION(lock_returned(x))

// Opts one function out of the analysis; pair with a comment saying why.
#define ALADDIN_NO_THREAD_SAFETY_ANALYSIS \
  ALADDIN_THREAD_ANNOTATION(no_thread_safety_analysis)
