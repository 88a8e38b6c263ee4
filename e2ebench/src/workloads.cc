// The four workloads.  Each is a round of seeded operations built in the
// constructor (the set-up timed as setup_s) and replayed by the run loop
// until the run's time is spent.
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.h"
#include "calibration.h"
#include "checks.h"
#include "codegen/program.h"
#include "core/compiler.h"
#include "core/gemm_runner.h"
#include "core/sharded_gemm.h"
#include "service/kernel_service.h"
#include "support/error.h"
#include "tuning/search_space.h"
#include "tuning/tuner.h"

namespace e2e {

double processCpuSeconds() {
  // Process CPU time since exec: precise, and blind to time the host takes
  // from the process.
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + 1e-9 * static_cast<double>(t.tv_nsec);
}

std::vector<double> randomMatrix(std::size_t count, Rng& rng) {
  std::vector<double> m(count);
  for (double& v : m) v = rng.uniform(-1.0, 1.0);
  return m;
}

std::uint64_t hashDoubles(std::span<const double> values) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < values.size_bytes(); ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::string naiveSource(const GemmCase& g, bool batched, Rng& rng) {
  static const char* const kNames[] = {"gemm", "dgemm_kernel", "matmul",
                                       "mm",   "layer_fwd",    "contract"};
  static const char* const kIdx[][3] = {
      {"i", "j", "k"}, {"ii", "jj", "kk"}, {"r", "c", "p"}, {"x", "y", "z"}};
  const std::string name =
      std::string(kNames[rng.next() % 6]) + "_" +
      std::to_string(rng.next() % 1000);
  const auto& idx = kIdx[rng.next() % 4];
  const std::string i = idx[0], j = idx[1], k = idx[2];
  const std::string bt = batched ? "[T]" : "";
  const std::string bi = batched ? "[t]" : "";
  const std::string aDecl = g.transposeA ? "[K][M]" : "[M][K]";
  const std::string bDecl = g.transposeB ? "[N][K]" : "[K][N]";
  const bool quant = g.fusion == sw::core::FusionKind::kPrologueQuantize;
  const bool relu = g.fusion == sw::core::FusionKind::kEpilogueRelu;
  const std::string aArr = quant ? "AQ" : "A";
  const std::string aUse = g.transposeA ? "[" + k + "][" + i + "]"
                                        : "[" + i + "][" + k + "]";
  const std::string bUse = g.transposeB ? "[" + j + "][" + k + "]"
                                        : "[" + k + "][" + j + "]";
  const std::string open = batched ? "  for (long t = 0; t < T; t++)\n" : "";
  const std::string pad = batched ? "  " : "";
  auto loop = [&](const std::string& v, const std::string& bound,
                  int depth) {
    return pad + std::string(2 * depth, ' ') + "for (long " + v + " = 0; " +
           v + " < " + bound + "; " + v + "++)\n";
  };
  std::string s = "void " + name + "(" + (batched ? "long T, " : "") +
                  "long M, long N, long K, double A" + bt + aDecl;
  if (quant) s += ", double AQ" + bt + aDecl;
  s += ", double B" + bt + bDecl + ", double C" + bt + "[M][N]) {\n";
  if (quant) {
    const std::string r = g.transposeA ? k : i, c = g.transposeA ? i : k;
    s += open + loop(r, g.transposeA ? "K" : "M", 1) +
         loop(c, g.transposeA ? "M" : "K", 2) + pad + "      AQ" + bi + "[" +
         r + "][" + c + "] = quantize(A" + bi + "[" + r + "][" + c + "]);\n";
  }
  s += open + loop(i, "M", 1) + loop(j, "N", 2) + loop(k, "K", 3) + pad +
       "        C" + bi + "[" + i + "][" + j + "] += " + aArr + bi + aUse +
       " * B" + bi + bUse + ";\n";
  if (relu)
    s += open + loop(i, "M", 1) + loop(j, "N", 2) + pad + "      C" + bi +
         "[" + i + "][" + j + "] = relu(C" + bi + "[" + i + "][" + j +
         "]);\n";
  return s + "}\n";
}

namespace {

using sw::core::CodegenOptions;
using sw::core::CompiledKernel;
using sw::core::FusionKind;

/// Stratified draw: slot i of n gets a value from the i-th of n equal
/// strata of [lo, hi], strata permuted by the caller's shuffle.
std::int64_t stratum(std::int64_t lo, std::int64_t hi, std::size_t slot,
                     std::size_t n, Rng& rng) {
  const double width = static_cast<double>(hi - lo + 1) /
                       static_cast<double>(n);
  const double v = static_cast<double>(lo) +
                   width * (static_cast<double>(slot) + rng.uniform());
  return std::clamp<std::int64_t>(static_cast<std::int64_t>(v), lo, hi);
}

/// A slot's base extent moved by up to +-`spread` of itself, so a seed
/// changes every shape without changing the mix the slot stands for.
std::int64_t jitter(std::int64_t base, double spread, std::int64_t lo,
                    std::int64_t hi, Rng& rng) {
  const double v = static_cast<double>(base) * (1.0 + rng.uniform(-spread, spread));
  return std::clamp<std::int64_t>(std::llround(v), lo, hi);
}

/// The fixed layout every seed shares: which features each slot has and
/// its base extents.  Drawn once from a constant, not from --seed.
constexpr std::uint64_t kLayoutSeed = 0x1c9b2022;

std::vector<std::size_t> permutation(std::size_t n, Rng& rng) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  rng.shuffle(p);
  return p;
}

/// A balanced label list: each label repeated by its weight, shuffled.
template <typename T>
std::vector<T> balanced(const std::vector<std::pair<T, int>>& weights,
                        Rng& rng) {
  std::vector<T> out;
  for (const auto& [v, w] : weights)
    for (int i = 0; i < w; ++i) out.push_back(v);
  rng.shuffle(out);
  return out;
}

/// Operand buffers of one GEMM, regenerated from the op's seed so only the
/// current operation's data is resident.
struct GemmData {
  std::vector<double> a, b, c0, c;
  void fill(const GemmCase& g, std::uint64_t seed) {
    *this = GemmData{};  // free the last op's buffers before making these
    Rng rng(seed);
    a = randomMatrix(g.sizeA(), rng);
    b = randomMatrix(g.sizeB(), rng);
    c0 = randomMatrix(g.sizeC(), rng);
    c = c0;
  }
};

/// What the first completion of an operation established; later rounds
/// must reproduce it exactly.
struct FirstResult {
  bool done = false;
  std::uint64_t hash = 0;
  double simSeconds = 0.0;
};

void requireRepeat(const FirstResult& first, std::uint64_t hash,
                   double simSeconds, const std::string& what) {
  if (hash != first.hash)
    throw CheckFailure(what + ": output differs from its checked first run");
  if (simSeconds != first.simSeconds)
    throw CheckFailure(what + ": simulated time differs from its first run");
}

std::string label(const GemmCase& g) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%ldx%ldx%ld b%ld", long(g.m), long(g.n),
                long(g.k), long(g.batch));
  return buf;
}

double attributionScale(bool estimated, const sw::sunway::ArchConfig& arch) {
  return estimated ? static_cast<double>(arch.meshSize()) : 1.0;
}

// ---------------------------------------------------------------------------
// gemm-small: served functional GEMMs through KernelService::runResilient.
class GemmSmall final : public Workload {
 public:
  explicit GemmSmall(std::uint64_t seed) {
    constexpr std::size_t kOps = 32;
    Rng layout(kLayoutSeed);
    const auto edge = balanced<bool>({{true, 16}, {false, 16}}, layout);
    const auto trans = balanced<int>({{0, 8}, {1, 8}, {2, 8}, {3, 8}}, layout);
    const auto batch = balanced<int>({{1, 14}, {2, 6}, {3, 6}, {4, 6}}, layout);
    const auto fusion = balanced<FusionKind>(
        {{FusionKind::kNone, 16},
         {FusionKind::kEpilogueRelu, 8},
         {FusionKind::kPrologueQuantize, 8}},
        layout);
    const auto betaZero = balanced<bool>({{true, 16}, {false, 16}}, layout);
    const auto pm = permutation(kOps, layout), pn = permutation(kOps, layout),
               pk = permutation(kOps, layout);
    Rng rng(seed);
    for (std::size_t i = 0; i < kOps; ++i) {
      Op op;
      GemmCase& g = op.gemm;
      g.m = jitter(stratum(16, 320, pm[i], kOps, layout), 0.02, 16, 320, rng);
      g.n = jitter(stratum(16, 320, pn[i], kOps, layout), 0.02, 16, 320, rng);
      g.k = jitter(stratum(16, 320, pk[i], kOps, layout), 0.02, 16, 320, rng);
      g.batch = batch[i];
      g.alpha = rng.uniform(0.5, 2.0);
      g.beta = betaZero[i] ? 0.0 : rng.uniform(-1.5, 1.5);
      g.transposeA = (trans[i] & 1) != 0;
      g.transposeB = (trans[i] & 2) != 0;
      g.fusion = fusion[i];
      op.options.edgeTiles = edge[i];
      op.options.batched = g.batch > 1;
      op.options.transposeA = g.transposeA;
      op.options.transposeB = g.transposeB;
      op.options.fusion = g.fusion;
      op.dataSeed = rng.next();
      op.source = naiveSource(g, op.options.batched, rng);
      ops_.push_back(op);
    }
    rng.shuffle(ops_);
    // Every distinct kernel is compiled here, so timed operations are
    // memory-tier cache hits.
    for (const Op& op : ops_) {
      (void)service_.compile(op.options);
      setupCalibration().sample();
    }
  }

  std::size_t roundSize() const override { return ops_.size(); }
  const char* opLayerMetric() const override {
    return "service.run_resilient_ms";
  }
  void prepare(std::size_t i) override {
    data_.fill(ops_[i].gemm, ops_[i].dataSeed);
  }
  void run(std::size_t i) override {
    const Op& op = ops_[i];
    last_ = service_.runResilient(op.options, op.gemm.problem(), data_.a,
                                  data_.b, data_.c);
    if (last_.usedEstimator || !last_.degradations.empty())
      throw sw::Error("runResilient degraded: " +
                      (last_.degradations.empty()
                           ? std::string("estimator")
                           : last_.degradations.front().error));
  }
  void check(std::size_t i, bool first) override {
    Op& op = ops_[i];
    const std::uint64_t h = hashDoubles(data_.c);
    const double sim = last_.outcome.seconds;
    if (!first) return requireRepeat(op.first, h, sim, label(op.gemm));
    checkGemmReference(op.gemm, data_.a, data_.b, data_.c0, data_.c);
    checkRoofline("gemm-small " + label(op.gemm), op.gemm.flops(), sim,
                  op.gemm.compulsoryBytes(), 1, service_.arch());
    op.first = FirstResult{true, h, sim};
    op.counters = last_.outcome.counters;
    op.attribution = last_.outcome.report.attribution;
    op.hostCopyBytes = last_.outcome.hostCopyBytes;
  }
  double simFlops(std::size_t i) const override { return ops_[i].gemm.flops(); }
  double simSeconds(std::size_t i) const override {
    return ops_[i].first.simSeconds;
  }
  double traced(std::size_t i, LayerSink& sink) override {
    const Op& op = ops_[i];
    const sw::core::GemmProblem problem = op.gemm.problem();
    Clock::time_point t0 = Clock::now();
    const auto kernel = service_.compile(op.options);
    Clock::time_point t1 = Clock::now();
    const sw::rt::RunOutcome outcome = sw::core::runGemmFunctional(
        *kernel, service_.arch(), problem, data_.a, data_.b, data_.c);
    Clock::time_point t2 = Clock::now();
    const double lookup = secondsBetween(t0, t1);
    const double functional = secondsBetween(t1, t2);
    sink.time("service.lookup_ms", lookup);
    sink.time("core.run_functional_ms", functional);
    if (op.first.done)
      requireRepeat(op.first, hashDoubles(data_.c), outcome.seconds,
                    "traced " + label(op.gemm));
    return lookup + functional;
  }
  void layerSummary(LayerSink& sink) override {
    const double callSeconds = microKernelCallSeconds();
    for (const Op& op : ops_) {
      sink.value("core.host_copy_mb", 1e-6 * double(op.hostCopyBytes));
      sink.ratio("core.padded_flop_ratio", op.counters.flops, op.gemm.flops());
      sink.value("kernel.microkernel_calls", double(op.counters.microKernelCalls));
      sink.value("kernel.microkernel_ms",
                 1e3 * callSeconds * double(op.counters.microKernelCalls));
      recordSimulated(sink, op.counters, op.attribution, 1.0);
      const TracedCompile compiled =
          tracedCompileSource(op.source, compileBase(op.options), sink);
      const Clock::time_point t0 = Clock::now();
      (void)sw::core::estimateGemm(compiled.kernel, service_.arch(),
                                   op.gemm.problem());
      sink.time("sunway.estimate_ms", secondsBetween(t0, Clock::now()));
    }
  }

 private:
  struct Op {
    GemmCase gemm;
    CodegenOptions options;
    std::uint64_t dataSeed = 0;
    std::string source;
    FirstResult first;
    sw::sunway::CpeCounters counters;
    sw::perf::PerfReport::Attribution attribution;
    std::int64_t hostCopyBytes = 0;
  };
  /// The options a naive source leaves to its caller (everything the
  /// frontend does not derive from the pattern).
  static CodegenOptions compileBase(const CodegenOptions& options) {
    CodegenOptions base = options;
    base.batched = false;
    base.transposeA = base.transposeB = false;
    base.fusion = FusionKind::kNone;
    return base;
  }

  sw::service::KernelService service_;
  std::vector<Op> ops_;
  GemmData data_;
  sw::service::KernelService::ResilientRunResult last_;
};

// ---------------------------------------------------------------------------
// gemm-sharded: large GEMMs across core groups.
class GemmSharded final : public Workload {
 public:
  explicit GemmSharded(std::uint64_t seed) {
    constexpr std::size_t kOps = 8;
    Rng layout(kLayoutSeed);
    const auto groups = balanced<int>({{1, 2}, {2, 2}, {3, 2}, {6, 2}}, layout);
    const auto split = balanced<int>({{1, 4}, {2, 4}}, layout);
    const auto edge = balanced<bool>({{true, 4}, {false, 4}}, layout);
    const auto betaZero = balanced<bool>({{true, 4}, {false, 4}}, layout);
    const auto pm = permutation(kOps, layout), pn = permutation(kOps, layout),
               pk = permutation(kOps, layout);
    Rng rng(seed);
    for (std::size_t i = 0; i < kOps; ++i) {
      Op op;
      GemmCase& g = op.gemm;
      g.m = jitter(stratum(384, 1100, pm[i], kOps, layout), 0.02, 384, 1100, rng);
      g.n = jitter(stratum(384, 1100, pn[i], kOps, layout), 0.02, 384, 1100, rng);
      g.k = jitter(stratum(384, 1100, pk[i], kOps, layout), 0.02, 384, 1100, rng);
      g.alpha = rng.uniform(0.5, 2.0);
      g.beta = betaZero[i] ? 0.0 : rng.uniform(-1.5, 1.5);
      op.options.edgeTiles = edge[i];
      op.config.groups = groups[i];
      op.config.kSplit = split[i];
      op.dataSeed = rng.next();
      op.source = naiveSource(g, false, rng);
      ops_.push_back(op);
    }
    rng.shuffle(ops_);
    // The seeded sample re-run on one group for the bit-identity check.
    for (std::size_t pick : permutation(kOps, rng))
      if (ops_[pick].config.groups > 1 && bitSample_.size() < 2)
        bitSample_.push_back(pick);
    // The caller's set-up: each op's naive source compiled once.
    for (Op& op : ops_) {
      op.kernel = std::make_shared<const CompiledKernel>(
          compiler_.compileSource(op.source, op.options));
      setupCalibration().sample();
    }
  }

  std::size_t roundSize() const override { return ops_.size(); }
  void prepare(std::size_t i) override {
    data_.fill(ops_[i].gemm, ops_[i].dataSeed);
  }
  void run(std::size_t i) override {
    const Op& op = ops_[i];
    last_ = sw::core::runShardedFunctional(*op.kernel, arch_, op.config,
                                           op.gemm.problem(), data_.a,
                                           data_.b, data_.c);
  }
  void check(std::size_t i, bool first) override {
    Op& op = ops_[i];
    const std::uint64_t h = hashDoubles(data_.c);
    if (!first) return requireRepeat(op.first, h, last_.seconds, label(op.gemm));
    checkGemmFreivalds(op.gemm, data_.a, data_.b, data_.c0, data_.c,
                       op.dataSeed ^ 0x5eed);
    checkRoofline("gemm-sharded " + label(op.gemm), op.gemm.flops(),
                  last_.seconds, op.gemm.compulsoryBytes(),
                  last_.concurrentGroups, arch_);
    if (!last_.failures.empty())
      throw CheckFailure("gemm-sharded " + label(op.gemm) +
                         ": a group failed without injected faults: " +
                         last_.failures.front().error);
    op.first = FirstResult{true, h, last_.seconds};
    op.outcome = last_;
    if (std::find(bitSample_.begin(), bitSample_.end(), i) !=
        bitSample_.end()) {
      // Bit-identity with one group, outside the timed region.
      std::vector<double> single = data_.c0;
      sw::core::ShardedConfig one;
      (void)sw::core::runShardedFunctional(*op.kernel, arch_, one,
                                           op.gemm.problem(), data_.a,
                                           data_.b, single);
      if (hashDoubles(single) != h)
        throw CheckFailure("gemm-sharded " + label(op.gemm) +
                           ": sharded C is not bit-identical to one group");
    }
  }
  double simFlops(std::size_t i) const override { return ops_[i].gemm.flops(); }
  double simSeconds(std::size_t i) const override {
    return ops_[i].first.simSeconds;
  }
  const char* opLayerMetric() const override { return "core.sharded_run_ms"; }
  /// Replay op i as its shards, one after another: gather the shard's
  /// operands, run it on one group's mesh with runGemmFunctional, chain K
  /// chunks through the block's partial C and scatter the finished block.
  /// The process runs on one CPU, so the groups take turns in the real
  /// call too, and the unattributed rest is the sharding layer's own
  /// threading and bookkeeping.  The ops here are neither transposed nor
  /// batched, so every block is a plain row-major sub-matrix.
  double traced(std::size_t i, LayerSink& sink) override {
    const Op& op = ops_[i];
    const GemmCase& g = op.gemm;
    const sw::core::ShardPlan plan = sw::core::planShards(
        *op.kernel, arch_, g.problem(), op.config.groups, op.config.kSplit);
    const sw::sunway::ArchConfig groupArch =
        arch_.forConcurrentGroups(plan.concurrency(op.config.groups));
    auto gather = [](const std::vector<double>& from, std::int64_t cols,
                     std::int64_t r0, std::int64_t rows, std::int64_t c0,
                     std::int64_t width) {
      std::vector<double> block(static_cast<std::size_t>(rows * width));
      for (std::int64_t r = 0; r < rows; ++r)
        std::copy_n(from.begin() + (r0 + r) * cols + c0, width,
                    block.begin() + r * width);
      return block;
    };
    double layers = 0.0;
    std::vector<double> partial;
    for (const sw::core::Shard& s : plan.shards) {  // chunks of a block in order
      const Clock::time_point t0 = Clock::now();
      const std::vector<double> a = gather(data_.a, g.k, s.m0, s.bm, s.k0, s.bk);
      const std::vector<double> b = gather(data_.b, g.n, s.k0, s.bk, s.n0, s.bn);
      if (s.chunk == 0)
        partial = g.beta != 0.0
                      ? gather(data_.c, g.n, s.m0, s.bm, s.n0, s.bn)
                      : std::vector<double>(static_cast<std::size_t>(s.bm * s.bn));
      const sw::core::GemmProblem sub{s.bm, s.bn, s.bk, 1, g.alpha,
                                      s.chunk == 0 ? g.beta : 1.0};
      const Clock::time_point t1 = Clock::now();
      (void)sw::core::runGemmFunctional(*op.kernel, groupArch, sub, a, b,
                                        partial);
      const Clock::time_point t2 = Clock::now();
      if (s.chunk == plan.kChunks - 1)
        for (std::int64_t r = 0; r < s.bm; ++r)
          std::copy_n(partial.begin() + r * s.bn, s.bn,
                      data_.c.begin() + (s.m0 + r) * g.n + s.n0);
      sink.time("core.run_functional_ms", secondsBetween(t1, t2));
      layers += secondsBetween(t0, Clock::now());
    }
    if (op.first.done && hashDoubles(data_.c) != op.first.hash)
      throw CheckFailure("traced " + label(g) +
                         ": shard replay is not bit-identical to the sharded run");
    return layers;
  }
  void layerSummary(LayerSink& sink) override {
    const double callSeconds = microKernelCallSeconds();
    for (const Op& op : ops_) {
      const sw::core::ShardedOutcome& o = op.outcome;
      sink.value("core.shards", double(o.shardsRun));
      sink.value("core.sim_comm_pct",
                 100.0 * o.communicationSeconds / o.seconds);
      sink.value("core.contention_derate", o.contentionDerate);
      sink.value("core.host_copy_mb", 1e-6 * double(o.hostCopyBytes));
      sink.ratio("core.padded_flop_ratio", o.counters.flops, op.gemm.flops());
      sink.value("kernel.microkernel_calls", double(o.counters.microKernelCalls));
      sink.value("kernel.microkernel_ms",
                 1e3 * callSeconds * double(o.counters.microKernelCalls));
      recordSimulated(sink, o.counters, o.report.attribution, 1.0);
      const TracedCompile compiled =
          tracedCompileSource(op.source, op.options, sink);
      const Clock::time_point t0 = Clock::now();
      (void)sw::core::estimateSharded(compiled.kernel, arch_, op.config,
                                      op.gemm.problem());
      sink.time("sunway.estimate_ms", secondsBetween(t0, Clock::now()));
    }
  }

 private:
  struct Op {
    GemmCase gemm;
    CodegenOptions options;
    sw::core::ShardedConfig config;
    std::uint64_t dataSeed = 0;
    std::string source;
    std::shared_ptr<const CompiledKernel> kernel;
    FirstResult first;
    sw::core::ShardedOutcome outcome;
  };
  sw::sunway::ArchConfig arch_;
  sw::core::SwGemmCompiler compiler_{arch_};
  std::vector<Op> ops_;
  std::vector<std::size_t> bitSample_;
  GemmData data_;
  sw::core::ShardedOutcome last_;
};

// ---------------------------------------------------------------------------
// paper-figures: cold compile of a naive source + estimate at the figure's
// shape, one row of Figs. 13-16 per operation.
class PaperFigures final : public Workload {
 public:
  explicit PaperFigures(std::uint64_t seed) {
    Rng rng(seed);
    auto add = [&](const char* fig, std::int64_t m, std::int64_t n,
                   std::int64_t k, std::int64_t batch, bool asmK, bool rma,
                   bool hide, FusionKind fusion) {
      Row row;
      row.figure = fig;
      row.gemm.m = m;
      row.gemm.n = n;
      row.gemm.k = k;
      row.gemm.batch = batch;
      row.gemm.beta = 1.0;
      row.gemm.fusion = fusion;
      row.base.useAsm = asmK;
      row.base.useRma = rma;
      row.base.hideLatency = hide;
      rows_.push_back(row);
    };
    const std::int64_t squares[] = {1024, 1536, 2048, 2560, 3072, 3584, 4096,
                                    5120, 6144, 7168, 7680, 8192, 10240,
                                    15360};
    for (std::int64_t d : squares) {
      // Fig. 13 breakdown: DMA-only, +asm, +RMA, +hiding; and the no-asm
      // variant of the full schedule.
      add("fig13", d, d, d, 1, false, false, false, FusionKind::kNone);
      add("fig13", d, d, d, 1, true, false, false, FusionKind::kNone);
      add("fig13", d, d, d, 1, true, true, false, FusionKind::kNone);
      add("fig13", d, d, d, 1, true, true, true, FusionKind::kNone);
      add("no-asm", d, d, d, 1, false, true, true, FusionKind::kNone);
    }
    for (std::int64_t m : {2048, 4096, 8192})
      for (std::int64_t n : {4096, 8192, 16384})
        for (std::int64_t k : {4096, 8192, 15360, 16384})
          add("fig14", m, n, k, 1, true, true, true, FusionKind::kNone);
    const std::int64_t batched[][3] = {{1024, 1024, 2048}, {2048, 2048, 6144},
                                       {2048, 2048, 8192}, {8192, 8192, 12288},
                                       {4096, 4096, 15360}, {4096, 4096, 16384}};
    for (std::int64_t b : {2, 4, 8, 16})
      for (const auto& s : batched)
        add("fig15", s[0], s[1], s[2], b, true, true, true, FusionKind::kNone);
    const std::int64_t fused[][3] = {{2048, 8192, 4096},   {4096, 8192, 4096},
                                     {4096, 16384, 4096},  {4096, 16384, 8192},
                                     {8192, 16384, 8192},  {8192, 8192, 4096},
                                     {10752, 10752, 10752}, {4096, 16384, 16384}};
    for (FusionKind f : {FusionKind::kPrologueQuantize, FusionKind::kEpilogueRelu})
      for (const auto& s : fused)
        add("fig16", s[0], s[1], s[2], 1, true, true, true, f);
    rng.shuffle(rows_);
    for (Row& row : rows_)
      row.source = naiveSource(row.gemm, row.gemm.batch > 1, rng);
    // Set-up: the canonical-options kernel of every distinct row pattern,
    // which each row's compileSource result must reproduce.
    for (Row& row : rows_) {
      const CodegenOptions want = expectedOptions(row);
      auto it = std::find_if(
          references_.begin(), references_.end(),
          [&](const CompiledKernel& k) { return sameOptions(k.options, want); });
      if (it == references_.end()) {
        it = references_.insert(references_.end(), compiler_.compile(want));
        setupCalibration().sample();
      }
      row.reference = static_cast<std::size_t>(it - references_.begin());
    }
  }

  std::size_t roundSize() const override { return rows_.size(); }
  void run(std::size_t i) override {
    const Row& row = rows_[i];
    kernel_ = compiler_.compileSource(row.source, row.base);
    last_ = sw::core::estimateGemm(kernel_, arch_, row.gemm.problem());
  }
  void check(std::size_t i, bool first) override {
    Row& row = rows_[i];
    const std::string what = std::string(row.figure) + " " + label(row.gemm);
    const CompiledKernel& ref = references_[row.reference];
    if (!sameOptions(kernel_.options, ref.options) ||
        sw::codegen::countOps(kernel_.program.body) !=
            sw::codegen::countOps(ref.program.body))
      throw CheckFailure(what + ": compiled kernel does not match the source");
    if (!first) return requireRepeat(row.first, 0, last_.seconds, what);
    checkRoofline(what, row.gemm.flops(), last_.seconds,
                  row.gemm.compulsoryBytes(), 1, arch_);
    row.first = FirstResult{true, 0, last_.seconds};
    row.counters = last_.counters;
    row.attribution = last_.report.attribution;
  }
  double simFlops(std::size_t i) const override { return rows_[i].gemm.flops(); }
  double simSeconds(std::size_t i) const override {
    return rows_[i].first.simSeconds;
  }
  double traced(std::size_t i, LayerSink& sink) override {
    const Row& row = rows_[i];
    TracedCompile compiled = tracedCompileSource(row.source, row.base, sink);
    const Clock::time_point t0 = Clock::now();
    const sw::rt::RunOutcome outcome =
        sw::core::estimateGemm(compiled.kernel, arch_, row.gemm.problem());
    const double estimate = secondsBetween(t0, Clock::now());
    sink.time("sunway.estimate_ms", estimate);
    if (row.first.done && outcome.seconds != row.first.simSeconds)
      throw CheckFailure("traced " + label(row.gemm) +
                         ": estimate differs from the compiled kernel's");
    return compiled.seconds + estimate;
  }
  void layerSummary(LayerSink& sink) override {
    for (const Row& row : rows_)
      recordSimulated(sink, row.counters, row.attribution,
                      attributionScale(true, arch_));
  }

 private:
  struct Row {
    const char* figure = "";
    GemmCase gemm;
    CodegenOptions base;
    std::string source;
    std::size_t reference = 0;  // index into references_
    FirstResult first;
    sw::sunway::CpeCounters counters;
    sw::perf::PerfReport::Attribution attribution;
  };
  /// The options a row's source must compile to: its base plus the
  /// pattern the source was written with.
  static CodegenOptions expectedOptions(const Row& row) {
    CodegenOptions o = row.base;
    o.batched = row.gemm.batch > 1;
    o.fusion = row.gemm.fusion;
    return o;
  }
  static bool sameOptions(const CodegenOptions& a, const CodegenOptions& b) {
    return a.useAsm == b.useAsm && a.useRma == b.useRma &&
           a.hideLatency == b.hideLatency && a.batched == b.batched &&
           a.fusion == b.fusion && a.transposeA == b.transposeA &&
           a.transposeB == b.transposeB && a.tileM == b.tileM &&
           a.tileN == b.tileN && a.tileK == b.tileK &&
           a.stripFactor == b.stripFactor && a.microMr == b.microMr &&
           a.microNr == b.microNr && a.edgeTiles == b.edgeTiles;
  }

  sw::sunway::ArchConfig arch_;
  sw::core::SwGemmCompiler compiler_{arch_};
  std::vector<Row> rows_;
  std::vector<CompiledKernel> references_;
  CompiledKernel kernel_;
  sw::rt::RunOutcome last_;
};

// ---------------------------------------------------------------------------
// tune: the two-stage schedule search on seeded small shapes.
class Tune final : public Workload {
 public:
  explicit Tune(std::uint64_t seed) {
    Rng rng(seed);
    auto opFor = [](const GemmCase& gemm) {
      Op op;
      op.gemm = gemm;
      return op;
    };
    // Three of each class: edge-shaped cubes, batched, skinny.  The seed
    // moves each extent within its class; edge shapes stay off the tile
    // grid, so every seed searches the same kind of space.
    const std::int64_t edgeBase[3][3] = {
        {300, 236, 212}, {420, 388, 340}, {180, 340, 276}};
    const std::int64_t batchedBase[3][4] = {
        {160, 128, 96, 2}, {208, 176, 160, 3}, {120, 200, 136, 4}};
    const std::int64_t skinnyBase[3][3] = {
        {24, 384, 320}, {448, 40, 416}, {36, 480, 288}};
    auto offGrid = [&](std::int64_t base) {
      const std::int64_t v = jitter(base, 0.02, 16, 512, rng);
      return v % 16 == 0 ? v + 3 : v;
    };
    for (int rep = 0; rep < 3; ++rep) {
      GemmCase edge;
      edge.m = offGrid(edgeBase[rep][0]);
      edge.n = offGrid(edgeBase[rep][1]);
      edge.k = offGrid(edgeBase[rep][2]);
      ops_.push_back(opFor(edge));
      GemmCase batched;
      batched.m = jitter(batchedBase[rep][0], 0.02, 16, 512, rng);
      batched.n = jitter(batchedBase[rep][1], 0.02, 16, 512, rng);
      batched.k = jitter(batchedBase[rep][2], 0.02, 16, 512, rng);
      batched.batch = batchedBase[rep][3];
      ops_.push_back(opFor(batched));
      GemmCase skinny;
      skinny.m = jitter(skinnyBase[rep][0], 0.02, 16, 512, rng);
      skinny.n = jitter(skinnyBase[rep][1], 0.02, 16, 512, rng);
      skinny.k = jitter(skinnyBase[rep][2], 0.02, 16, 512, rng);
      ops_.push_back(opFor(skinny));
    }
    rng.shuffle(ops_);
    // Set-up: each naive source compiled as the caller would, and the
    // search started from the options the frontend derived from it.
    for (Op& op : ops_) {
      op.gemm.beta = 1.0;
      op.source = naiveSource(op.gemm, op.gemm.batch > 1, rng);
      op.base = compiler_.compileSource(op.source, CodegenOptions{}).options;
      setupCalibration().sample();
      if (op.base.batched != (op.gemm.batch > 1))
        throw CheckFailure("tune " + label(op.gemm) +
                           ": the frontend missed the source's batch loop");
    }
  }

  std::size_t roundSize() const override { return ops_.size(); }
  void run(std::size_t i) override {
    last_ = sw::tuning::searchSchedules(ops_[i].base, arch_,
                                        ops_[i].gemm.problem());
  }
  void check(std::size_t i, bool first) override {
    Op& op = ops_[i];
    const sw::tuning::CandidateResult* best = last_.bestOrNull();
    if (best == nullptr || last_.candidates().empty())
      throw CheckFailure("tune " + label(op.gemm) + ": no winner");
    checkTunerWinner(*best, last_.candidates().front(),
                     last_.validationAtFullShape);
    const double sim = op.gemm.flops() / (best->estimatedGflops * 1e9);
    const double scores[] = {best->estimatedGflops, best->measuredGflops};
    const std::uint64_t h = hashDoubles(scores);
    if (!first) return requireRepeat(op.first, h, sim, "tune " + label(op.gemm));
    checkRoofline("tune " + label(op.gemm) + " winner " + best->label(),
                  op.gemm.flops(), sim, op.gemm.compulsoryBytes(), 1, arch_);
    op.first = FirstResult{true, h, sim};
    op.result = last_;
  }
  double simFlops(std::size_t i) const override { return ops_[i].gemm.flops(); }
  double simSeconds(std::size_t i) const override {
    return ops_[i].first.simSeconds;
  }
  double traced(std::size_t i, LayerSink& sink) override {
    const Op& op = ops_[i];
    const sw::core::GemmProblem problem = op.gemm.problem();
    const sw::tuning::TunerConfig config;
    Clock::time_point t0 = Clock::now();
    const std::vector<sw::tuning::EnumeratedCandidate> space =
        sw::tuning::enumerateCandidates(op.base, arch_, problem, config.space);
    double total = secondsBetween(t0, Clock::now());
    double compile = 0.0;
    int feasible = 0;
    for (const sw::tuning::EnumeratedCandidate& entry : space) {
      if (!entry.feasible) continue;
      TracedCompile compiled;
      try {
        compiled = tracedCompile(entry.candidate.apply(op.base), sink);
      } catch (const sw::Error&) {
        continue;  // the search records these as notes, not winners
      }
      ++feasible;
      compile += compiled.seconds;
      t0 = Clock::now();
      (void)sw::core::estimateGemm(compiled.kernel, arch_, problem);
      const double estimate = secondsBetween(t0, Clock::now());
      sink.time("sunway.estimate_ms", estimate);
      total += compiled.seconds + estimate;
    }
    sink.time("tuning.compile_ms", compile);
    sink.value("tuning.candidates_feasible", feasible);
    // Stage 2: the candidates the search validated, on its shape.
    double validate = 0.0;
    int validated = 0;
    const sw::core::GemmProblem shape = op.result.validationShape;
    for (const sw::tuning::CandidateResult& c : op.result.candidates()) {
      if (!c.validated) continue;
      const CompiledKernel kernel =
          compiler_.compile(c.candidate.apply(op.base));
      GemmCase g;
      g.m = shape.m;
      g.n = shape.n;
      g.k = shape.k;
      g.batch = shape.batch;
      g.transposeA = kernel.options.transposeA;
      g.transposeB = kernel.options.transposeB;
      GemmData data;
      data.fill(g, 13);
      t0 = Clock::now();
      const sw::rt::RunOutcome o = sw::core::runGemmFunctional(
          kernel, arch_, shape, data.a, data.b, data.c);
      validate += secondsBetween(t0, Clock::now());
      ++validated;
      sink.value("tuning.model_err_pct",
                 100.0 * std::fabs(c.estimatedGflops - o.gflops) / o.gflops);
    }
    sink.time("tuning.validate_ms", validate);
    sink.value("tuning.candidates_validated", validated);
    return total + validate;
  }
  void layerSummary(LayerSink& sink) override {
    for (const Op& op : ops_) {
      const sw::tuning::CandidateResult& best = op.result.best();
      recordSimulated(sink, counterEvidence(best.report), best.report.attribution,
                      attributionScale(!best.validated, arch_));
      (void)tracedCompileSource(op.source, op.base, sink);
    }
  }

 private:
  struct Op {
    GemmCase gemm;
    CodegenOptions base;
    std::string source;
    FirstResult first;
    sw::tuning::ScheduleSearchResult result;
  };
  static sw::sunway::CpeCounters counterEvidence(const sw::perf::PerfReport& r) {
    sw::sunway::CpeCounters c;
    c.dmaBytes = r.dmaBytes;
    c.rmaBytesSent = r.rmaBytesSent;
    c.syncs = r.syncs;
    c.microKernelCalls = r.microKernelCalls;
    return c;
  }
  sw::sunway::ArchConfig arch_;
  sw::core::SwGemmCompiler compiler_{arch_};
  std::vector<Op> ops_;
  sw::tuning::ScheduleSearchResult last_;
};

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {"gemm-small", "gemm-sharded",
                                                 "paper-figures", "tune"};
  return names;
}

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed) {
  if (name == "gemm-small") return std::make_unique<GemmSmall>(seed);
  if (name == "gemm-sharded") return std::make_unique<GemmSharded>(seed);
  if (name == "paper-figures") return std::make_unique<PaperFigures>(seed);
  if (name == "tune") return std::make_unique<Tune>(seed);
  return nullptr;
}

}  // namespace e2e
