// Clang Thread Safety Analysis annotations.
//
// These macros attach lock-discipline contracts to types, members and
// functions: which mutex guards a field, which lock a function expects
// to hold, which calls acquire or release a capability. Clang's
// -Wthread-safety pass (enabled by the MRCP_THREAD_SAFETY CMake option
// and enforced with -Werror in CI) checks the contracts at compile
// time, so a forgotten lock or a call made with the wrong mutex held is
// a build error, not a latent race for TSan to hopefully catch at
// runtime. Under GCC (or with the analysis off) every macro expands to
// nothing — zero code, zero ABI impact.
//
// The macro set mirrors the attribute names in the clang documentation
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html); only the
// ones this codebase uses are defined. Annotate with the MRCP_ names,
// never the raw attributes, so non-clang builds stay clean.
//
// See src/common/mutex.h for the annotated Mutex/MutexLock/CondVar
// types the annotations attach to (std::mutex itself carries no
// capability attributes under libstdc++), and docs/static_analysis.md
// for how this layer fits next to mrcp-lint and clang-tidy.
#pragma once

#if defined(__clang__) && (!defined(SWIG))
#define MRCP_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define MRCP_THREAD_ANNOTATION(x)  // no-op off clang
#endif

/// Marks a class as a lockable capability (e.g. a mutex wrapper).
#define MRCP_CAPABILITY(x) MRCP_THREAD_ANNOTATION(capability(x))

/// Marks an RAII class whose constructor acquires and destructor
/// releases a capability (std::lock_guard-shaped types).
#define MRCP_SCOPED_CAPABILITY MRCP_THREAD_ANNOTATION(scoped_lockable)

/// Data member may only be read or written while holding `x`.
#define MRCP_GUARDED_BY(x) MRCP_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member: the *pointee* may only be accessed while holding `x`
/// (the pointer itself is unguarded).
#define MRCP_PT_GUARDED_BY(x) MRCP_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function may only be called while already holding the capabilities.
#define MRCP_REQUIRES(...) \
  MRCP_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function may only be called while NOT holding the capabilities
/// (guards against self-deadlock on non-reentrant mutexes).
#define MRCP_EXCLUDES(...) MRCP_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function acquires the capability and holds it on return.
#define MRCP_ACQUIRE(...) \
  MRCP_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases a held capability before returning.
#define MRCP_RELEASE(...) \
  MRCP_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function acquires the capability iff it returns `b`.
#define MRCP_TRY_ACQUIRE(b, ...) \
  MRCP_THREAD_ANNOTATION(try_acquire_capability(b, __VA_ARGS__))

/// Escape hatch: the function's locking is correct for reasons the
/// analysis cannot see. Use sparingly and justify with a comment.
#define MRCP_NO_THREAD_SAFETY_ANALYSIS \
  MRCP_THREAD_ANNOTATION(no_thread_safety_analysis)

/// Runtime assertion that the calling thread holds `x`; teaches the
/// analysis the capability is held from here on.
#define MRCP_ASSERT_CAPABILITY(x) \
  MRCP_THREAD_ANNOTATION(assert_capability(x))

/// Function returns a reference to the mutex guarding its result.
#define MRCP_RETURN_CAPABILITY(x) MRCP_THREAD_ANNOTATION(lock_returned(x))
