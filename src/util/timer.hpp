// Wall-clock timing for benchmarks, the CP/Tucker decompositions in apps/
// and the measured seconds of the distributed runtime's collectives.
#pragma once

#include <chrono>

namespace spttn {

/// Monotonic wall-clock stopwatch.
class Timer {
 public:
  Timer() : start_(clock::now()) {}

  /// Restart the stopwatch.
  void reset() { start_ = clock::now(); }

  /// Seconds elapsed since construction or last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  /// Milliseconds elapsed.
  double millis() const { return seconds() * 1e3; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace spttn
