// Shared pieces of the end-to-end benchmark: clocks, the seeded generator,
// the per-layer sample sink and the workload interface.  The benchmark
// drives swcodegen only through its public entry points; every check of a
// result is computed here, independently of the library.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/compiler.h"
#include "core/gemm_runner.h"
#include "core/options.h"
#include "sunway/arch.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Median of `v` (mean of the middle two for an even count); 0 when empty.
inline double medianOf(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 != 0 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// CPU seconds the whole process has consumed since it started.
double processCpuSeconds();

/// A result failed one of the benchmark's independent checks.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// splitmix64: a fixed, library-independent stream, so one seed gives the
/// same inputs with every standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Uniform integer in [lo, hi].
  std::int64_t intIn(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  bool coin() { return (next() & 1u) != 0; }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(next() % i);
      T held = v[i - 1];  // by value: vector<bool> hands out proxies
      v[i - 1] = v[j];
      v[j] = held;
    }
  }

 private:
  std::uint64_t state_;
};

/// Entries uniform in [-1, 1].
std::vector<double> randomMatrix(std::size_t count, Rng& rng);

/// FNV-1a over the bytes of a result, to compare later rounds of an
/// operation bit-for-bit with its checked first result.
std::uint64_t hashDoubles(std::span<const double> values);

/// One GEMM as the benchmark's checks see it.
struct GemmCase {
  std::int64_t m = 0, n = 0, k = 0, batch = 1;
  double alpha = 1.0, beta = 0.0;
  bool transposeA = false, transposeB = false;
  sw::core::FusionKind fusion = sw::core::FusionKind::kNone;

  [[nodiscard]] sw::core::GemmProblem problem() const {
    return sw::core::GemmProblem{m, n, k, batch, alpha, beta};
  }
  [[nodiscard]] double flops() const {
    return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
           static_cast<double>(k) * static_cast<double>(batch);
  }
  [[nodiscard]] std::size_t sizeA() const {
    return static_cast<std::size_t>(batch * m * k);
  }
  [[nodiscard]] std::size_t sizeB() const {
    return static_cast<std::size_t>(batch * k * n);
  }
  [[nodiscard]] std::size_t sizeC() const {
    return static_cast<std::size_t>(batch * m * n);
  }
  /// DDR bytes any schedule must move: A and B once, C written once and
  /// read once when beta != 0.
  [[nodiscard]] double compulsoryBytes() const {
    const double c = static_cast<double>(sizeC());
    return 8.0 * (static_cast<double>(sizeA()) +
                  static_cast<double>(sizeB()) + c + (beta != 0.0 ? c : 0.0));
  }
};

/// The naive C loop nest the frontend accepts for `gemm`'s pattern
/// (plain, batched, quantize prologue or ReLU epilogue, transposed
/// operands).  `rng` picks the function and loop-index names, so the
/// parser sees different text for the same pattern on each seed.
std::string naiveSource(const GemmCase& gemm, bool batched, Rng& rng);

/// Per-layer samples of a traced run: times (reported as medians, in ms)
/// and per-operation quantities (reported as means).
class LayerSink {
 public:
  void time(const std::string& name, double seconds) {
    times_[name].push_back(seconds * 1e3);
  }
  void value(const std::string& name, double v) { values_[name].push_back(v); }
  /// A ratio of sums over operations (reported as sum(num) / sum(den)).
  void ratio(const std::string& name, double num, double den) {
    ratios_[name].first += num;
    ratios_[name].second += den;
  }
  [[nodiscard]] bool has(const std::string& name) const {
    return times_.count(name) != 0 || values_.count(name) != 0 ||
           ratios_.count(name) != 0;
  }
  /// Median of a time series, mean of a value series or the ratio of
  /// sums; 0 when absent.
  [[nodiscard]] double result(const std::string& name) const;

 private:
  std::map<std::string, std::vector<double>> times_;
  std::map<std::string, std::vector<double>> values_;
  std::map<std::string, std::pair<double, double>> ratios_;
};

/// One workload: a seeded round of operations, replayed until the run's
/// time is spent.  The run loop times `run`; everything else (input reset,
/// checks, the traced replay) happens outside the timed region.
class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual std::size_t roundSize() const = 0;
  /// Restore op i's inputs (outside the timed region).
  virtual void prepare(std::size_t i) { (void)i; }
  /// The timed operation.  Throws sw::Error when the program fails it.
  virtual void run(std::size_t i) = 0;
  /// Independent checks of op i's last output.  `first` is true the first
  /// time op i completes in this process (the full check); later rounds
  /// compare bit-for-bit with that checked result.
  virtual void check(std::size_t i, bool first) = 0;
  /// Simulated flops and seconds of op i's kernels (host-invariant).
  [[nodiscard]] virtual double simFlops(std::size_t i) const = 0;
  [[nodiscard]] virtual double simSeconds(std::size_t i) const = 0;
  /// The per-layer metric the whole untraced operation is (its public entry
  /// point is itself a layer), or nullptr.
  [[nodiscard]] virtual const char* opLayerMetric() const { return nullptr; }
  /// Replay op i as separately timed calls into the layers it passes
  /// through; returns the sum of those layer times (seconds).
  virtual double traced(std::size_t i, LayerSink& sink) = 0;
  /// Record layer numbers that do not need a replay (counts, simulated
  /// attribution, per-kernel compile layers) after the traced phase.
  virtual void layerSummary(LayerSink& sink) = 0;
};

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed);
const std::vector<std::string>& workloadNames();

/// Fill every per-layer metric the workload's own operations did not
/// provide, from small probes seeded by `seed`.
void probeMissingLayers(LayerSink& sink, std::uint64_t seed);

/// Run the compile layers of one naive C source one call at a time
/// (frontend, poly+schedule pipeline, printer, plan lowering), recording
/// each; returns the assembled kernel and the layers' summed seconds.
struct TracedCompile {
  sw::core::CompiledKernel kernel;
  double seconds = 0.0;
};
TracedCompile tracedCompileSource(const std::string& source,
                                  const sw::core::CodegenOptions& base,
                                  LayerSink& sink);
/// The same for canonical options (no frontend).
TracedCompile tracedCompile(const sw::core::CodegenOptions& options,
                            LayerSink& sink);

/// Seconds of one 64x64x32 call of the vendor-contract micro-kernel,
/// timed here (median of repeated calls).
double microKernelCallSeconds();

/// Record the simulated attribution and DMA/RMA/sync counts of one run.
/// `scale` turns symmetric single-CPE estimator counters into mesh totals.
void recordSimulated(LayerSink& sink, const sw::sunway::CpeCounters& counters,
                     const sw::perf::PerfReport::Attribution& attribution,
                     double scale);

/// The per-layer metric names with their units, in output order.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& layerMetrics();

}  // namespace e2e
