#include "common/mutex.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/macros.h"

namespace swan {

#ifdef SWAN_LOCK_RANK_CHECKS

namespace {

// The calling thread's currently-held swan::Mutexes, in acquisition
// order. Ranks along the stack are strictly decreasing — that is the
// whole invariant, checked on every push — so it never holds more
// entries than there are ranks. A plain array, not a std::vector: it has
// no thread_local destructor, so the stack stays valid at process exit,
// where the main thread's thread_locals die before the static
// destructors that still lock (the global thread pool's).
constexpr int kMaxHeldLocks = 16;
thread_local const Mutex* t_held_locks[kMaxHeldLocks];
thread_local int t_held_count = 0;

[[noreturn]] void RankAbort(const Mutex* acquiring, const Mutex* held) {
  if (acquiring == held) {
    std::fprintf(stderr,
                 "lock-rank violation: recursive acquisition of mutex '%s' "
                 "(rank %d)\n",
                 acquiring->name(), static_cast<int>(acquiring->rank()));
  } else {
    std::fprintf(stderr,
                 "lock-rank violation: acquiring mutex '%s' (rank %d) while "
                 "holding '%s' (rank %d); locks must be taken in strictly "
                 "decreasing rank order (see LockRank in common/mutex.h)\n",
                 acquiring->name(), static_cast<int>(acquiring->rank()),
                 held->name(), static_cast<int>(held->rank()));
  }
  std::abort();
}

void CheckAcquire(const Mutex* mu) {
  for (int i = 0; i < t_held_count; ++i) {
    const Mutex* held = t_held_locks[i];
    if (held == mu || static_cast<int>(held->rank()) <=
                          static_cast<int>(mu->rank())) {
      RankAbort(mu, held);
    }
  }
  SWAN_CHECK(t_held_count < kMaxHeldLocks);
}

void PopHeld(const Mutex* mu) {
  // Unlock order may differ from reverse-acquisition order (MutexLock
  // supports early Unlock), so erase by search from the top.
  for (int i = t_held_count - 1; i >= 0; --i) {
    if (t_held_locks[i] == mu) {
      std::copy(t_held_locks + i + 1, t_held_locks + t_held_count,
                t_held_locks + i);
      --t_held_count;
      return;
    }
  }
  std::fprintf(stderr,
               "lock-rank violation: unlocking mutex '%s' that this thread "
               "does not hold\n",
               mu->name());
  std::abort();
}

}  // namespace

void Mutex::Lock() {
  CheckAcquire(this);
  mu_.lock();
  t_held_locks[t_held_count++] = this;
}

void Mutex::Unlock() {
  PopHeld(this);
  mu_.unlock();
}

bool LockRankChecksEnabled() { return true; }

int HeldLockCountForTesting() {
  return t_held_count;
}

#else  // !SWAN_LOCK_RANK_CHECKS

void Mutex::Lock() { mu_.lock(); }

void Mutex::Unlock() { mu_.unlock(); }

bool LockRankChecksEnabled() { return false; }

int HeldLockCountForTesting() { return 0; }

#endif  // SWAN_LOCK_RANK_CHECKS

void CondVar::Wait(MutexLock& lock) {
  SWAN_CHECK_MSG(lock.held(), "CondVar::Wait on an unlocked MutexLock");
  // Adopt the already-locked native mutex for the wait, then release the
  // unique_lock's ownership claim so the MutexLock (and the rank
  // checker's held stack, which keeps the mutex listed across the wait)
  // stays the single owner.
  std::unique_lock<std::mutex> native(lock.mutex()->mu_, std::adopt_lock);
  cv_.wait(native);
  native.release();
}

}  // namespace swan
