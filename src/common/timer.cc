#include "common/timer.h"

#include <ctime>

namespace swan {

namespace {

int64_t NowNs(clockid_t clock) {
  timespec ts;
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

}  // namespace

void WallTimer::Restart() { start_ns_ = NowNs(CLOCK_MONOTONIC); }

double WallTimer::ElapsedSeconds() const {
  return static_cast<double>(NowNs(CLOCK_MONOTONIC) - start_ns_) * 1e-9;
}

int64_t ProcessCpuNanos() { return NowNs(CLOCK_PROCESS_CPUTIME_ID); }

void CpuTimer::Restart() { start_ns_ = ProcessCpuNanos(); }

double CpuTimer::ElapsedSeconds() const {
  return static_cast<double>(ProcessCpuNanos() - start_ns_) * 1e-9;
}

}  // namespace swan
