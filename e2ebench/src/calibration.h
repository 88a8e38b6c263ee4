// Host-speed calibration.  Host times on a shared, steal-prone machine do
// not repeat from one minute to the next, so every host time is reported in
// reference-host units: the measured time x (the calibration job's time on
// the reference host / its time measured beside the operation).  The job
// calls nothing in swcodegen, so a change to the program cannot move it.
#pragma once

#include <cstddef>
#include <vector>

#include "bench.h"

namespace e2e {

/// One calibration sample: std::map inserts and a 64^3 naive dgemm on the
/// calling thread, the minimum of three repetitions (one preemption is not
/// a slow host).
double takeCalibrationSample();

/// The job's median time on the reference host (README, "Host times").
inline constexpr double kReferenceCalibrationSeconds = 0.62e-3;

/// Calibration beside the cold set-up: samples taken before it, between
/// its compile steps and after it, and the CPU time they cost, which
/// set-up time leaves out.  A cold process runs slower than a warm one by
/// an amount that differs from run to run; samples taken in the same cold
/// phase track it, samples taken later do not.
class SetupCalibration {
 public:
  void sample();
  [[nodiscard]] double cpuSeconds() const { return cpuSeconds_; }
  /// Reference-host scale: reference / the median sample.
  [[nodiscard]] double scale() const;

 private:
  std::vector<double> samples_;
  double cpuSeconds_ = 0.0;
};

/// The process's set-up calibration; workloads sample it after each
/// compile of their set-up.
SetupCalibration& setupCalibration();

/// Calibration samples taken between operations, each with the time it
/// was taken.
class CalibrationTrack {
 public:
  /// Take one sample now.
  void sample() { samples_.push_back({Clock::now(), takeCalibrationSample()}); }
  /// Reference-host scale for an operation that ran from `start` to `end`:
  /// reference / local, local being the median of the samples taken from
  /// 0.1 s before it to 0.1 s after it, and at least of the last sample
  /// before it and the first after it.  A long operation is so judged by
  /// the host speed around it, not by that of operations seconds away.
  [[nodiscard]] double scale(Clock::time_point start,
                             Clock::time_point end) const;
  [[nodiscard]] std::size_t size() const { return samples_.size(); }
  [[nodiscard]] double median() const;

 private:
  struct Entry {
    Clock::time_point at;
    double seconds;
  };
  std::vector<Entry> samples_;
};

}  // namespace e2e
