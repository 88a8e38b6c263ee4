// The traced side of the benchmark: each layer's public functions called
// one at a time from here and timed from outside, plus the small probes
// that give every per-layer metric a value on every workload.
#include <algorithm>
#include <cmath>

#include "bench.h"
#include "codegen/athread_printer.h"
#include "core/pipeline.h"
#include "core/sharded_gemm.h"
#include "frontend/parser.h"
#include "frontend/pattern.h"
#include "kernel/microkernel.h"
#include "runtime/plan.h"
#include "service/kernel_service.h"
#include "tuning/tuner.h"

namespace e2e {
namespace {

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

sw::core::CodegenOptions applyPattern(const sw::frontend::GemmPatternInfo& p,
                                      sw::core::CodegenOptions base) {
  base.batched = p.batched;
  base.transposeA = p.transposeA;
  base.transposeB = p.transposeB;
  switch (p.fusion) {
    case sw::frontend::FusionPattern::kNone:
      base.fusion = sw::core::FusionKind::kNone;
      break;
    case sw::frontend::FusionPattern::kPrologueQuantize:
      base.fusion = sw::core::FusionKind::kPrologueQuantize;
      break;
    case sw::frontend::FusionPattern::kEpilogueRelu:
      base.fusion = sw::core::FusionKind::kEpilogueRelu;
      break;
  }
  return base;
}

TracedCompile compileLayers(const sw::core::CodegenOptions& options,
                            const std::string& name, LayerSink& sink) {
  const sw::sunway::ArchConfig arch;
  TracedCompile out;
  sw::core::CompiledKernel& kernel = out.kernel;
  kernel.options = options;
  Clock::time_point t0 = Clock::now();
  sw::core::PipelineResult pipeline = sw::core::runGemmPipeline(options, arch);
  Clock::time_point t1 = Clock::now();
  kernel.program = std::move(pipeline.program);
  if (!name.empty()) kernel.program.name = name;
  const sw::codegen::GeneratedSources sources =
      sw::codegen::printAthreadSources(kernel.program);
  Clock::time_point t2 = Clock::now();
  kernel.plan = sw::rt::lowerToPlan(kernel.program);
  Clock::time_point t3 = Clock::now();
  kernel.cpeSource = sources.cpe;
  kernel.mpeSource = sources.mpe;
  sink.time("core.pipeline_ms", secondsBetween(t0, t1));
  sink.time("codegen.print_ms", secondsBetween(t1, t2));
  sink.time("runtime.lower_ms", secondsBetween(t2, t3));
  sink.value("codegen.program_ops",
             static_cast<double>(sw::codegen::countOps(kernel.program.body)));
  sink.value("codegen.cpe_source_kb",
             static_cast<double>(kernel.cpeSource.size()) / 1024.0);
  out.seconds = secondsBetween(t0, t3);
  return out;
}

}  // namespace

double LayerSink::result(const std::string& name) const {
  if (auto it = ratios_.find(name); it != ratios_.end())
    return it->second.second > 0 ? it->second.first / it->second.second : 0.0;
  if (auto it = times_.find(name); it != times_.end()) return medianOf(it->second);
  if (auto it = values_.find(name); it != values_.end()) return mean(it->second);
  return 0.0;
}

TracedCompile tracedCompileSource(const std::string& source,
                                  const sw::core::CodegenOptions& base,
                                  LayerSink& sink) {
  const Clock::time_point t0 = Clock::now();
  const sw::frontend::GemmPatternInfo pattern =
      sw::frontend::analyzeGemmFunction(sw::frontend::parseFunction(source));
  const double parse = secondsBetween(t0, Clock::now());
  sink.time("frontend.parse_ms", parse);
  TracedCompile out =
      compileLayers(applyPattern(pattern, base), pattern.functionName, sink);
  out.seconds += parse;
  return out;
}

TracedCompile tracedCompile(const sw::core::CodegenOptions& options,
                            LayerSink& sink) {
  return compileLayers(options, "", sink);
}

double microKernelCallSeconds() {
  using sw::kernel::kMicroK;
  using sw::kernel::kMicroM;
  using sw::kernel::kMicroN;
  Rng rng(3);
  const std::vector<double> a = randomMatrix(kMicroM * kMicroK, rng);
  const std::vector<double> b = randomMatrix(kMicroK * kMicroN, rng);
  std::vector<double> c(kMicroM * kMicroN, 0.0);
  std::vector<double> samples;
  for (int rep = 0; rep < 15; ++rep) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < 64; ++i)
      sw::kernel::dgemmMicroKernel(c.data(), a.data(), b.data(), kMicroM,
                                   kMicroN, kMicroK);
    samples.push_back(secondsBetween(t0, Clock::now()) / 64.0);
  }
  // Keep the result observable so the calls cannot be dropped.
  if (!std::isfinite(c[0])) samples.push_back(0.0);
  return medianOf(samples);
}

void recordSimulated(LayerSink& sink, const sw::sunway::CpeCounters& counters,
                     const sw::perf::PerfReport::Attribution& attribution,
                     double scale) {
  sink.value("sunway.sim_dma_mb", 1e-6 * scale * double(counters.dmaBytes));
  sink.value("sunway.sim_rma_mb", 1e-6 * scale * double(counters.rmaBytesSent));
  sink.value("sunway.syncs", scale * double(counters.syncs));
  sink.value("sunway.sim_compute_pct", attribution.computePct);
  sink.value("sunway.sim_exposed_dma_pct", attribution.exposedDmaPct);
  sink.value("sunway.sim_exposed_rma_pct", attribution.exposedRmaPct);
  sink.value("sunway.sim_sync_pct", attribution.syncPct);
}

void probeMissingLayers(LayerSink& sink, std::uint64_t seed) {
  const sw::sunway::ArchConfig arch;
  Rng rng(seed ^ 0x9e0be5ull);
  auto missing = [&](std::initializer_list<const char*> names) {
    for (const char* n : names)
      if (!sink.has(n)) return true;
    return false;
  };

  // The orchestration floor: a 1x1x1 edge-tile GEMM on the 64-CPE mesh.
  {
    sw::core::CodegenOptions options;
    options.edgeTiles = true;
    const sw::core::CompiledKernel kernel =
        sw::core::SwGemmCompiler(arch).compile(options);
    const sw::core::GemmProblem one{1, 1, 1, 1, 1.0, 0.0};
    std::vector<double> a{0.5}, b{0.25}, c{0.0};
    for (int rep = 0; rep < 15; ++rep) {
      const Clock::time_point t0 = Clock::now();
      (void)sw::core::runGemmFunctional(kernel, arch, one, a, b, c);
      sink.time("sunway.mesh_floor_ms", secondsBetween(t0, Clock::now()));
    }
  }

  // Served functional runs on one seeded small GEMM.
  if (missing({"service.lookup_ms", "service.run_resilient_ms",
               "core.run_functional_ms", "core.host_copy_mb",
               "core.padded_flop_ratio", "kernel.microkernel_calls",
               "kernel.microkernel_ms"})) {
    sw::service::KernelService service(arch);
    GemmCase g;
    g.m = rng.intIn(96, 160);
    g.n = rng.intIn(96, 160);
    g.k = rng.intIn(96, 160);
    g.beta = 1.0;
    sw::core::CodegenOptions options;  // padded: shows the host copies
    const auto kernel = service.compile(options);
    Rng data(rng.next());
    const std::vector<double> a = randomMatrix(g.sizeA(), data);
    const std::vector<double> b = randomMatrix(g.sizeB(), data);
    const std::vector<double> c0 = randomMatrix(g.sizeC(), data);
    std::vector<double> c;
    const double callSeconds = microKernelCallSeconds();
    for (int rep = 0; rep < 5; ++rep) {
      Clock::time_point t0 = Clock::now();
      (void)service.compile(options);
      sink.time("service.lookup_ms", secondsBetween(t0, Clock::now()));
      c = c0;
      t0 = Clock::now();
      const sw::rt::RunOutcome o =
          sw::core::runGemmFunctional(*kernel, arch, g.problem(), a, b, c);
      sink.time("core.run_functional_ms", secondsBetween(t0, Clock::now()));
      c = c0;
      t0 = Clock::now();
      (void)service.runResilient(options, g.problem(), a, b, c);
      sink.time("service.run_resilient_ms", secondsBetween(t0, Clock::now()));
      if (rep == 0) {
        sink.value("core.host_copy_mb", 1e-6 * double(o.hostCopyBytes));
        sink.ratio("core.padded_flop_ratio", o.counters.flops, g.flops());
        sink.value("kernel.microkernel_calls",
                   double(o.counters.microKernelCalls));
        sink.value("kernel.microkernel_ms",
                   1e3 * callSeconds * double(o.counters.microKernelCalls));
      }
    }
  }

  // One sharded run across two groups with a K split.
  if (missing({"core.sharded_run_ms", "core.shards", "core.sim_comm_pct",
               "core.contention_derate"})) {
    GemmCase g;
    g.m = rng.intIn(256, 384);
    g.n = rng.intIn(256, 384);
    g.k = rng.intIn(256, 384);
    sw::core::CodegenOptions options;
    options.edgeTiles = true;
    const sw::core::CompiledKernel kernel =
        sw::core::SwGemmCompiler(arch).compile(options);
    sw::core::ShardedConfig config;
    config.groups = 2;
    config.kSplit = 2;
    Rng data(rng.next());
    const std::vector<double> a = randomMatrix(g.sizeA(), data);
    const std::vector<double> b = randomMatrix(g.sizeB(), data);
    std::vector<double> c(g.sizeC(), 0.0);
    for (int rep = 0; rep < 3; ++rep) {
      const Clock::time_point t0 = Clock::now();
      const sw::core::ShardedOutcome o = sw::core::runShardedFunctional(
          kernel, arch, config, g.problem(), a, b, c);
      sink.time("core.sharded_run_ms", secondsBetween(t0, Clock::now()));
      if (rep == 0) {
        sink.value("core.shards", double(o.shardsRun));
        sink.value("core.sim_comm_pct",
                   100.0 * o.communicationSeconds / o.seconds);
        sink.value("core.contention_derate", o.contentionDerate);
      }
    }
  }

  // One schedule search on a small edge-shaped GEMM.
  if (missing({"tuning.candidates_feasible", "tuning.candidates_validated",
               "tuning.compile_ms", "tuning.validate_ms",
               "tuning.model_err_pct"})) {
    GemmCase g;
    g.m = rng.intIn(80, 120);
    g.n = rng.intIn(80, 120);
    g.k = rng.intIn(64, 96);
    g.beta = 1.0;
    const sw::core::CodegenOptions base;
    const sw::tuning::ScheduleSearchResult result =
        sw::tuning::searchSchedules(base, arch, g.problem());
    double compile = 0.0;
    for (const sw::tuning::CandidateResult& c : result.candidates()) {
      if (!c.feasible) continue;
      compile += tracedCompile(c.candidate.apply(base), sink).seconds;
    }
    sink.time("tuning.compile_ms", compile);
    sink.value("tuning.candidates_feasible", result.feasibleCount());
    sink.value("tuning.candidates_validated", result.validatedCount());
    double validate = 0.0;
    const sw::core::GemmProblem shape = result.validationShape;
    for (const sw::tuning::CandidateResult& c : result.candidates()) {
      if (!c.validated) continue;
      const sw::core::CompiledKernel kernel =
          sw::core::SwGemmCompiler(arch).compile(c.candidate.apply(base));
      GemmCase v;
      v.m = shape.m;
      v.n = shape.n;
      v.k = shape.k;
      v.batch = shape.batch;
      Rng data(13);
      const std::vector<double> a = randomMatrix(v.sizeA(), data);
      const std::vector<double> b = randomMatrix(v.sizeB(), data);
      std::vector<double> cc = randomMatrix(v.sizeC(), data);
      const Clock::time_point t0 = Clock::now();
      const sw::rt::RunOutcome o =
          sw::core::runGemmFunctional(kernel, arch, shape, a, b, cc);
      validate += secondsBetween(t0, Clock::now());
      sink.value("tuning.model_err_pct",
                 100.0 * std::fabs(c.estimatedGflops - o.gflops) / o.gflops);
    }
    sink.time("tuning.validate_ms", validate);
  }
}

const std::vector<MetricSpec>& layerMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"frontend.parse_ms", "ms"},
      {"core.pipeline_ms", "ms"},
      {"codegen.print_ms", "ms"},
      {"runtime.lower_ms", "ms"},
      {"codegen.program_ops", "count"},
      {"codegen.cpe_source_kb", "KiB"},
      {"sunway.estimate_ms", "ms"},
      {"service.run_resilient_ms", "ms"},
      {"core.run_functional_ms", "ms"},
      {"service.lookup_ms", "ms"},
      {"sunway.mesh_floor_ms", "ms"},
      {"core.host_copy_mb", "MB"},
      {"core.padded_flop_ratio", "ratio"},
      {"kernel.microkernel_calls", "count"},
      {"kernel.microkernel_ms", "ms"},
      {"core.sharded_run_ms", "ms"},
      {"core.shards", "count"},
      {"core.sim_comm_pct", "%"},
      {"core.contention_derate", "ratio"},
      {"sunway.sim_dma_mb", "MB"},
      {"sunway.sim_rma_mb", "MB"},
      {"sunway.syncs", "count"},
      {"sunway.sim_compute_pct", "%"},
      {"sunway.sim_exposed_dma_pct", "%"},
      {"sunway.sim_exposed_rma_pct", "%"},
      {"sunway.sim_sync_pct", "%"},
      {"tuning.candidates_feasible", "count"},
      {"tuning.candidates_validated", "count"},
      {"tuning.compile_ms", "ms"},
      {"tuning.validate_ms", "ms"},
      {"tuning.model_err_pct", "%"},
      {"workload.unattributed_pct", "%"},
      {"workload.trace_overhead_pct", "%"},
  };
  return specs;
}

}  // namespace e2e
