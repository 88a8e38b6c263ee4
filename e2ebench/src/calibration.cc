#include "calibration.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>

#include "bench.h"

namespace e2e {
double takeCalibrationSample() {
  static std::vector<double> a(64 * 64), b(64 * 64), c(64 * 64);
  static const bool filled = [] {
    Rng rng(1);
    for (std::size_t i = 0; i < a.size(); ++i) {
      a[i] = rng.uniform(-1, 1);
      b[i] = rng.uniform(-1, 1);
    }
    return true;
  }();
  (void)filled;
  double best = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point t0 = Clock::now();
    std::map<std::uint64_t, std::uint64_t> map;
    Rng rng(static_cast<std::uint64_t>(rep) + 2);
    for (int i = 0; i < 2000; ++i) map.emplace(rng.next(), i);
    for (int i = 0; i < 64; ++i)
      for (int j = 0; j < 64; ++j) {
        double s = 0.0;
        for (int k = 0; k < 64; ++k) s += a[i * 64 + k] * b[k * 64 + j];
        c[i * 64 + j] = s + static_cast<double>(map.size());
      }
    best = std::min(best, secondsBetween(t0, Clock::now()));
  }
  if (!std::isfinite(c[0])) std::abort();
  return best;
}

void SetupCalibration::sample() {
  const double cpu0 = processCpuSeconds();
  samples_.push_back(takeCalibrationSample());
  cpuSeconds_ += processCpuSeconds() - cpu0;
}

double SetupCalibration::scale() const {
  return samples_.empty() ? 1.0
                          : kReferenceCalibrationSeconds / medianOf(samples_);
}

SetupCalibration& setupCalibration() {
  static SetupCalibration calibration;
  return calibration;
}

double CalibrationTrack::scale(Clock::time_point start,
                              Clock::time_point end) const {
  const auto window = std::chrono::milliseconds(100);
  std::vector<double> near;
  const Entry* before = nullptr;
  const Entry* after = nullptr;
  for (const Entry& e : samples_) {
    if (e.at < start) before = &e;
    if (e.at > end && after == nullptr) after = &e;
    if (e.at >= start - window && e.at <= end + window)
      near.push_back(e.seconds);
  }
  // The samples bracketing the op count even when they lie outside the
  // window (a long op has none inside it).
  if (before != nullptr && before->at < start - window)
    near.push_back(before->seconds);
  if (after != nullptr && after->at > end + window)
    near.push_back(after->seconds);
  return near.empty() ? 1.0 : kReferenceCalibrationSeconds / medianOf(near);
}

double CalibrationTrack::median() const {
  std::vector<double> all;
  for (const Entry& e : samples_) all.push_back(e.seconds);
  return medianOf(all);
}

}  // namespace e2e
