// Tests for the runtime lock-rank checker (common/mutex.{h,cc}): ordered
// acquisition is silent, out-of-order / recursive / equal-rank
// acquisition aborts with a diagnostic, CondVar::Wait keeps the
// held-lock stack consistent across the block, and the stack stays
// usable by static destructors at process exit.
//
// The violation helpers are marked SWAN_NO_THREAD_SAFETY_ANALYSIS: they
// exist to trip the *runtime* checker, and clang's static analysis would
// (correctly!) reject the recursive one at compile time otherwise.

#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace swan {
namespace {

using LockRankTest = ::testing::Test;

TEST_F(LockRankTest, OrderedAcquisitionPasses) {
  Mutex high(LockRank::kServeService, "test.high");
  Mutex mid(LockRank::kBufferPool, "test.mid");
  Mutex low(LockRank::kMetrics, "test.low");
  {
    MutexLock l1(&high);
    MutexLock l2(&mid);
    MutexLock l3(&low);
    if (LockRankChecksEnabled()) {
      EXPECT_EQ(HeldLockCountForTesting(), 3);
    }
  }
  EXPECT_EQ(HeldLockCountForTesting(), 0);
}

TEST_F(LockRankTest, ReacquireAfterReleaseIsFine) {
  Mutex low(LockRank::kMetrics, "test.low");
  Mutex high(LockRank::kServeService, "test.high");
  {
    MutexLock l(&low);
  }
  // low was released, so taking high afterwards walks "up" the table in
  // wall-clock time but never while holding — legal.
  MutexLock l(&high);
  MutexLock l2(&low);
}

TEST_F(LockRankTest, EarlyUnlockPopsTheStack) {
  Mutex high(LockRank::kServeService, "test.high");
  Mutex low(LockRank::kMetrics, "test.low");
  MutexLock l1(&high);
  l1.Unlock();
  EXPECT_FALSE(l1.held());
  // high is no longer held: acquiring low and then re-acquiring high
  // would invert the order, so re-lock high first.
  l1.Lock();
  EXPECT_TRUE(l1.held());
  MutexLock l2(&low);
  if (LockRankChecksEnabled()) {
    EXPECT_EQ(HeldLockCountForTesting(), 2);
  }
}

// --- violation helpers (runtime checker's job, so TSA is waived) ------

void AcquireOutOfOrder() SWAN_NO_THREAD_SAFETY_ANALYSIS {
  Mutex low(LockRank::kMetrics, "test.low");
  Mutex high(LockRank::kServeService, "test.high");
  low.Lock();
  high.Lock();  // rank 1200 while holding rank 100: must abort
  high.Unlock();
  low.Unlock();
}

void AcquireRecursively() SWAN_NO_THREAD_SAFETY_ANALYSIS {
  Mutex mu(LockRank::kBufferPool, "test.recursive");
  mu.Lock();
  mu.Lock();  // must abort before deadlocking on the std::mutex
}

void AcquireEqualRank() SWAN_NO_THREAD_SAFETY_ANALYSIS {
  Mutex a(LockRank::kExecQueue, "test.queue-a");
  Mutex b(LockRank::kExecQueue, "test.queue-b");
  a.Lock();
  b.Lock();  // equal rank never nests (deadlock-prone by symmetry)
  b.Unlock();
  a.Unlock();
}

void UnlockNotHeld() SWAN_NO_THREAD_SAFETY_ANALYSIS {
  Mutex mu(LockRank::kMetrics, "test.unheld");
  mu.Unlock();
}

TEST_F(LockRankTest, OutOfOrderAcquisitionAborts) {
  if (!LockRankChecksEnabled()) GTEST_SKIP() << "checker compiled out";
  EXPECT_DEATH(AcquireOutOfOrder(),
               "lock-rank violation: acquiring mutex 'test.high'.*while "
               "holding 'test.low'");
}

TEST_F(LockRankTest, RecursiveAcquisitionAborts) {
  if (!LockRankChecksEnabled()) GTEST_SKIP() << "checker compiled out";
  EXPECT_DEATH(AcquireRecursively(),
               "lock-rank violation: recursive acquisition of mutex "
               "'test.recursive'");
}

TEST_F(LockRankTest, EqualRankAcquisitionAborts) {
  if (!LockRankChecksEnabled()) GTEST_SKIP() << "checker compiled out";
  EXPECT_DEATH(AcquireEqualRank(), "lock-rank violation");
}

TEST_F(LockRankTest, UnlockingAMutexNotHeldAborts) {
  if (!LockRankChecksEnabled()) GTEST_SKIP() << "checker compiled out";
  EXPECT_DEATH(UnlockNotHeld(),
               "lock-rank violation: unlocking mutex 'test.unheld'");
}

// At process exit the main thread's thread_locals are destroyed before
// static destructors run, and some of those still lock (the global
// thread pool's joins its workers). The held-lock stack must survive
// that; under a sanitizer a dangling stack aborts the exit.
void LockInStaticDestructorAtExit() {
  static struct LocksOnDestruction {
    Mutex mu{LockRank::kMetrics, "test.at-exit"};
    ~LocksOnDestruction() { MutexLock lock(&mu); }
  } locks_at_exit;
  { MutexLock lock(&locks_at_exit.mu); }  // touch this thread's stack
  std::exit(0);
}

TEST_F(LockRankTest, LockingFromStaticDestructorAtExitIsSafe) {
  EXPECT_EXIT(LockInStaticDestructorAtExit(), ::testing::ExitedWithCode(0),
              "");
}

// --- CondVar interplay ------------------------------------------------

struct Channel {
  Mutex mutex{LockRank::kExecBatch, "test.channel"};
  CondVar cv;
  bool ready SWAN_GUARDED_BY(mutex) = false;
  int observed_depth SWAN_GUARDED_BY(mutex) = -1;
};

TEST_F(LockRankTest, CondVarWaitKeepsMutexOnHeldStack) {
  Channel ch;
  std::thread producer([&ch] {
    MutexLock lock(&ch.mutex);
    ch.ready = true;
    lock.Unlock();
    ch.cv.NotifyOne();
  });
  {
    MutexLock lock(&ch.mutex);
    while (!ch.ready) ch.cv.Wait(lock);
    // Back from the wait the mutex is held again and the rank stack
    // agrees with reality.
    ch.observed_depth = HeldLockCountForTesting();
  }
  producer.join();
  MutexLock lock(&ch.mutex);
  EXPECT_EQ(ch.observed_depth, LockRankChecksEnabled() ? 1 : 0);
}

TEST_F(LockRankTest, CondVarManyWaitersAllWake) {
  Channel ch;
  constexpr int kWaiters = 4;
  std::vector<std::thread> waiters;
  int woke = 0;
  Mutex woke_mutex(LockRank::kMetrics, "test.woke");
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      {
        MutexLock lock(&ch.mutex);
        while (!ch.ready) ch.cv.Wait(lock);
      }
      MutexLock lock(&woke_mutex);
      ++woke;
    });
  }
  {
    MutexLock lock(&ch.mutex);
    ch.ready = true;
  }
  ch.cv.NotifyAll();
  for (auto& t : waiters) t.join();
  MutexLock lock(&woke_mutex);
  EXPECT_EQ(woke, kWaiters);
}

TEST_F(LockRankTest, ChecksEnabledMatchesBuildConfiguration) {
#ifdef SWAN_LOCK_RANK_CHECKS
  EXPECT_TRUE(LockRankChecksEnabled());
#else
  EXPECT_FALSE(LockRankChecksEnabled());
#endif
}

}  // namespace
}  // namespace swan
