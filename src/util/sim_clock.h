// Simulated time source for the benchmarking substrate.
//
// The paper's evaluation plots search progress against wall-clock seconds of
// kernel builds, VM boots, and benchmark runs. Our substitute substrate does
// no real builds, so every pipeline phase advances a SimClock by the duration
// that phase would have cost. All "Time (s)" axes in the reproduced figures
// are SimClock seconds.
#ifndef WAYFINDER_SRC_UTIL_SIM_CLOCK_H_
#define WAYFINDER_SRC_UTIL_SIM_CLOCK_H_

#include <cstdint>

namespace wayfinder {

class SimClock {
 public:
  SimClock() = default;

  // Current simulated time in seconds since the experiment started.
  double Now() const { return now_seconds_; }

  // Advances the clock; negative durations are ignored.
  void Advance(double seconds) {
    if (seconds > 0.0) {
      now_seconds_ += seconds;
    }
  }

 private:
  double now_seconds_ = 0.0;
};

// Wall-clock stopwatch (real time), used to measure the optimizer's own
// update cost for the Figure 8 loop breakdown.
class WallTimer {
 public:
  WallTimer();
  // Seconds elapsed since construction or the last Restart().
  double ElapsedSeconds() const;
  // Same read, in integer nanoseconds — trace spans reuse this stamp so a
  // traced trial pays no clock reads beyond the ones the searcher-seconds
  // bookkeeping already takes.
  int64_t ElapsedNs() const;
  // TraceClock stamp taken at construction or the last Restart().
  int64_t start_ns() const { return start_ns_; }
  void Restart();

 private:
  int64_t start_ns_ = 0;
};

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_UTIL_SIM_CLOCK_H_
