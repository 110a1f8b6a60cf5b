#ifndef SWANDB_COMMON_TIMER_H_
#define SWANDB_COMMON_TIMER_H_

#include <cstdint>

namespace swan {

// Wall-clock stopwatch (CLOCK_MONOTONIC).
class WallTimer {
 public:
  WallTimer() { Restart(); }

  void Restart();
  double ElapsedSeconds() const;

 private:
  int64_t start_ns_;
};

// Process CPU-time stopwatch (CLOCK_PROCESS_CPUTIME_ID). This is the
// paper's "user time": CPU spent by the DBMS, excluding I/O stalls. The
// simulated disk contributes to "real time" only, via its VirtualClock.
class CpuTimer {
 public:
  CpuTimer() { Restart(); }

  void Restart();
  double ElapsedSeconds() const;

 private:
  int64_t start_ns_;
};

// The process CPU clock CpuTimer reads, in nanoseconds, for a bracket that
// keeps its start as a plain number.
int64_t ProcessCpuNanos();

// Accumulates virtual seconds charged by the simulated disk. Query
// "real time" = CpuTimer elapsed + VirtualClock delta, reproducing the
// paper's cold/hot real-vs-user split without needing RAID hardware.
class VirtualClock {
 public:
  VirtualClock() = default;

  void Advance(double seconds) { now_seconds_ += seconds; }
  double now() const { return now_seconds_; }
  void Reset() { now_seconds_ = 0.0; }

 private:
  double now_seconds_ = 0.0;
};

}  // namespace swan

#endif  // SWANDB_COMMON_TIMER_H_
