// e2ebench: one workload, one process, one client in a closed loop.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//   e2ebench --self-test
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics (the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1).  See README.md for what each metric
// measures and which form host times take.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench.h"
#include "calibration.h"
#include "checks.h"

namespace e2e {
namespace {

/// Taken during static initialisation, as close to process start as the
/// program itself can observe (for the raw wall-clock set-up on stderr).
const Clock::time_point kProcessStart = Clock::now();

/// Confine the process (and every thread it will start) to the last CPU
/// it may run on.  On a shared host the other CPUs' steal and co-tenant
/// load then never enter an operation's time, and one CPU's speed is what
/// the calibration job measures beside it (README, "Host times").
void pinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0)
      std::fprintf(stderr, "e2ebench: could not pin to CPU %d\n", cpu);
    return;
  }
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selfTest = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload NAME --seed N "
               "--seconds S --trace 0|1\n       e2ebench --self-test\n",
               why);
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args.selfTest = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0)) usage("--seconds takes a positive number");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        usage("--trace takes 0 or 1");
      args.trace = value[0] == '1';
    } else {
      usage(("unknown option " + flag).c_str());
    }
  }
  if (!args.selfTest &&
      std::find(workloadNames().begin(), workloadNames().end(),
                args.workload) == workloadNames().end())
    usage(("unknown workload '" + args.workload + "'").c_str());
  return args;
}

/// One timed operation.
struct Sample {
  Clock::time_point start, end;
  double wall = 0.0;
  double cpu = 0.0;
};

class Runner {
 public:
  explicit Runner(Workload& workload) : workload_(workload) {}

  /// Run op i once, timed, then check it.  With `trim`, the freed heap is
  /// handed back to the system once the op's inputs are made.  Returns
  /// false when the program failed the operation.
  bool timedOp(std::size_t i, Sample* sample, bool trim = false) {
    workload_.prepare(i);
    if (trim) malloc_trim(0);
    ++attempted_;
    const double cpu0 = processCpuSeconds();
    const Clock::time_point t0 = Clock::now();
    try {
      workload_.run(i);
    } catch (const CheckFailure&) {
      throw;
    } catch (const std::exception& e) {
      ++failed_;
      std::fprintf(stderr, "e2ebench: op %zu failed: %s\n", i, e.what());
      return false;
    }
    sample->start = t0;
    sample->end = Clock::now();
    sample->wall = secondsBetween(t0, sample->end);
    sample->cpu = processCpuSeconds() - cpu0;
    const bool first = !checked_[i];
    workload_.check(i, first);
    checked_[i] = true;
    return true;
  }

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  void resize(std::size_t n) { checked_.assign(n, false); }

 private:
  Workload& workload_;
  std::vector<bool> checked_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

void printResult(bool correct, std::size_t attempted, std::size_t failed,
                 const std::vector<std::pair<MetricSpec, double>>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool firstMetric = true;
  for (const auto& [spec, value] : metrics) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  firstMetric ? "" : ", ", spec.name,
                  std::isfinite(value) ? value : 0.0, spec.unit);
    out += buf;
    firstMetric = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int runEndToEnd(const Args& args) {
  setupCalibration().sample();
  std::unique_ptr<Workload> workload = makeWorkload(args.workload, args.seed);
  const double setupWall = secondsBetween(kProcessStart, Clock::now());
  const double setupSeconds =
      processCpuSeconds() - setupCalibration().cpuSeconds();
  setupCalibration().sample();
  Runner runner(*workload);
  const std::size_t n = workload->roundSize();
  runner.resize(n);

  bool correct = true;
  double peakRss = 0.0;
  try {
    // The check round: every op once, untimed, fully checked, with the
    // freed heap returned to the system before each op.  Its peak RSS is
    // the set-up's memory plus the largest op's, not the heap earlier ops
    // happened to leave behind (README, "Memory").
    for (std::size_t i = 0; i < n; ++i) {
      Sample s;
      runner.timedOp(i, &s, /*trim=*/true);
    }
    peakRss = peakRssMb();
  } catch (const CheckFailure& e) {
    std::fprintf(stderr, "e2ebench: check failed: %s\n", e.what());
    correct = false;
  }
  std::vector<Sample> samples;
  CalibrationTrack calibration;
  calibration.sample();
  Clock::time_point lastCalibration = Clock::now();
  const Clock::time_point start = Clock::now();
  try {
    while (correct) {
      for (std::size_t i = 0; i < n; ++i) {
        Sample s;
        if (runner.timedOp(i, &s)) samples.push_back(s);
        if (secondsBetween(lastCalibration, Clock::now()) >= 0.05) {
          calibration.sample();
          lastCalibration = Clock::now();
        }
      }
      if (secondsBetween(start, Clock::now()) >= args.seconds) break;
    }
  } catch (const CheckFailure& e) {
    std::fprintf(stderr, "e2ebench: check failed: %s\n", e.what());
    correct = false;
  }
  calibration.sample();

  std::vector<double> wall, rawWall;
  double wallSum = 0.0, cpuSum = 0.0;
  for (std::size_t j = 0; j < samples.size(); ++j) {
    const double scale = calibration.scale(samples[j].start, samples[j].end);
    const double scaled = samples[j].wall * scale;
    wall.push_back(scaled);
    rawWall.push_back(samples[j].wall);
    wallSum += scaled;
    cpuSum += samples[j].cpu * scale;
  }
  double flops = 0.0, simSeconds = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    flops += workload->simFlops(i);
    simSeconds += workload->simSeconds(i);
  }
  const double count = static_cast<double>(samples.size());
  const std::vector<std::pair<MetricSpec, double>> metrics = {
      {{"setup_s", "s"}, setupSeconds * setupCalibration().scale()},
      {{"op_p50_ms", "ms"}, samples.empty() ? 0.0 : 1e3 * medianOf(wall)},
      {{"ops_per_s", "1/s"}, wallSum > 0 ? count / wallSum : 0.0},
      {{"cpu_ms_per_op", "ms"}, count > 0 ? 1e3 * cpuSum / count : 0.0},
      {{"sim_gflops", "GFLOPS"},
       simSeconds > 0 ? flops / simSeconds / 1e9 : 0.0},
      {{"peak_rss_mb", "MB"}, peakRss},
  };
  // Reference figures for the README: raw host times, tail percentiles
  // with their sample counts, and the calibration seen.
  std::vector<double> sorted = wall;
  std::sort(sorted.begin(), sorted.end());
  auto pct = [&](double p) {
    return sorted.empty() ? 0.0
                          : sorted[std::min(sorted.size() - 1,
                                            static_cast<std::size_t>(
                                                p * static_cast<double>(sorted.size())))];
  };
  std::fprintf(stderr,
               "e2ebench: %s seed %llu: %zu ops (%zu rounds), p50/p90/p99 "
               "%.4g/%.4g/%.4g ref-ms; raw setup %.4g s (wall %.4g s), raw p50 %.4g ms; "
               "calibration %.4g ms over %zu samples\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), samples.size(),
               samples.size() / std::max<std::size_t>(n, 1), 1e3 * pct(0.5),
               1e3 * pct(0.9), 1e3 * pct(0.99), setupSeconds, setupWall,
               samples.empty() ? 0.0 : 1e3 * medianOf(rawWall),
               1e3 * calibration.median(), calibration.size());
  printResult(correct, runner.attempted(), runner.failed(), metrics);
  return correct ? 0 : 1;
}

int runTraced(const Args& args) {
  std::unique_ptr<Workload> workload = makeWorkload(args.workload, args.seed);
  Runner runner(*workload);
  const std::size_t n = workload->roundSize();
  runner.resize(n);
  LayerSink sink;
  // Every operation runs untraced and then traced, back to back, so both
  // totals see the same host conditions.
  double untraced = 0.0, traced = 0.0, layers = 0.0;
  const Clock::time_point start = Clock::now();
  bool correct = true;
  try {
    do {
      for (std::size_t i = 0; i < n; ++i) {
        Sample s;
        if (!runner.timedOp(i, &s)) continue;
        workload->prepare(i);
        const Clock::time_point t0 = Clock::now();
        const double layerSum = workload->traced(i, sink);
        traced += secondsBetween(t0, Clock::now());
        untraced += s.wall;
        if (const char* name = workload->opLayerMetric())
          sink.time(name, s.wall);
        layers += layerSum;
      }
    } while (secondsBetween(start, Clock::now()) < 0.7 * args.seconds);
    workload->layerSummary(sink);
    probeMissingLayers(sink, args.seed);
  } catch (const CheckFailure& e) {
    std::fprintf(stderr, "e2ebench: check failed: %s\n", e.what());
    correct = false;
  }
  sink.value("workload.unattributed_pct",
             untraced > 0 ? 100.0 * (untraced - layers) / untraced : 0.0);
  sink.value("workload.trace_overhead_pct",
             untraced > 0 ? 100.0 * (traced - untraced) / untraced : 0.0);
  std::vector<std::pair<MetricSpec, double>> metrics;
  for (const MetricSpec& spec : layerMetrics())
    metrics.emplace_back(spec, sink.result(spec.name));
  printResult(correct, runner.attempted(), runner.failed(), metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  const e2e::Args args = e2e::parseArgs(argc, argv);
  if (args.selfTest) return e2e::selfTest();
  e2e::pinToOneCpu();
  try {
    return args.trace ? e2e::runTraced(args) : e2e::runEndToEnd(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
}
