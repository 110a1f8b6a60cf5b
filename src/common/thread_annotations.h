#ifndef SWANDB_COMMON_THREAD_ANNOTATIONS_H_
#define SWANDB_COMMON_THREAD_ANNOTATIONS_H_

// Clang Thread Safety Analysis shim. Under clang these macros expand to
// the -Wthread-safety attributes, turning the locking protocol into a
// compile-time contract: a guarded field read without its mutex, a method
// called without its REQUIRES lock, or a lock leaked out of a scope is a
// build error in the thread-safety CI leg (tools/ci.sh tsafety).
// Under gcc (the container default) every macro expands to nothing, so
// annotated code stays portable.
//
// Naming follows the clang capability vocabulary:
//   SWAN_CAPABILITY        - class is a lockable capability (swan::Mutex)
//   SWAN_SCOPED_CAPABILITY - RAII object acquiring/releasing one
//   SWAN_GUARDED_BY(mu)    - field may only be touched with mu held
//   SWAN_PT_GUARDED_BY(mu) - pointee guarded, pointer itself not
//   SWAN_REQUIRES(mu)      - caller must already hold mu
//   SWAN_EXCLUDES(mu)      - caller must NOT hold mu (non-reentrancy)
//   SWAN_ACQUIRE/RELEASE   - function acquires / releases mu
//   SWAN_ACQUIRED_BEFORE/AFTER - declared lock ordering (see LockRank)
//   SWAN_NO_THREAD_SAFETY_ANALYSIS - escape hatch (document why!)

#if defined(__clang__) && defined(__has_attribute)
#define SWAN_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define SWAN_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

#define SWAN_CAPABILITY(x) SWAN_THREAD_ANNOTATION(capability(x))

#define SWAN_SCOPED_CAPABILITY SWAN_THREAD_ANNOTATION(scoped_lockable)

#define SWAN_GUARDED_BY(x) SWAN_THREAD_ANNOTATION(guarded_by(x))

#define SWAN_PT_GUARDED_BY(x) SWAN_THREAD_ANNOTATION(pt_guarded_by(x))

#define SWAN_ACQUIRED_BEFORE(...) \
  SWAN_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))

#define SWAN_ACQUIRED_AFTER(...) \
  SWAN_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

#define SWAN_REQUIRES(...) \
  SWAN_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

#define SWAN_REQUIRES_SHARED(...) \
  SWAN_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

#define SWAN_ACQUIRE(...) \
  SWAN_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

#define SWAN_ACQUIRE_SHARED(...) \
  SWAN_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))

#define SWAN_RELEASE(...) \
  SWAN_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

#define SWAN_RELEASE_SHARED(...) \
  SWAN_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))

#define SWAN_TRY_ACQUIRE(...) \
  SWAN_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

#define SWAN_EXCLUDES(...) SWAN_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

#define SWAN_ASSERT_CAPABILITY(x) \
  SWAN_THREAD_ANNOTATION(assert_capability(x))

#define SWAN_RETURN_CAPABILITY(x) SWAN_THREAD_ANNOTATION(lock_returned(x))

#define SWAN_NO_THREAD_SAFETY_ANALYSIS \
  SWAN_THREAD_ANNOTATION(no_thread_safety_analysis)

#endif  // SWANDB_COMMON_THREAD_ANNOTATIONS_H_
