// --self-test: show that every independent check rejects a corrupted
// result.  Each check first accepts an honest result (one computed here and
// one produced by swcodegen itself), then rejects the same result with one
// output element or one simulated time corrupted.
#include <cstdio>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "core/compiler.h"
#include "core/gemm_runner.h"

namespace e2e {
namespace {

template <typename F>
bool rejects(const char* name, F&& f) {
  try {
    f();
  } catch (const CheckFailure& e) {
    std::printf("self-test: %-34s rejected: %s\n", name, e.what());
    return true;
  }
  std::printf("self-test: %-34s NOT rejected\n", name);
  return false;
}

template <typename F>
bool accepts(const char* name, F&& f) {
  try {
    f();
  } catch (const CheckFailure& e) {
    std::printf("self-test: %-34s wrongly rejected: %s\n", name, e.what());
    return false;
  }
  std::printf("self-test: %-34s accepted\n", name);
  return true;
}

/// The output checks against one honest C and the same C with one element
/// moved by 1e-6.
bool outputChecks(const char* what, const GemmCase& g,
                  const std::vector<double>& a, const std::vector<double>& b,
                  const std::vector<double>& c0,
                  const std::vector<double>& c) {
  std::vector<double> bad = c;
  bad[bad.size() / 3] += 1e-6;
  const std::string tag = what;
  bool ok = true;
  ok &= accepts((tag + ": reference").c_str(),
                [&] { checkGemmReference(g, a, b, c0, c); });
  ok &= rejects((tag + ": reference, 1 elem off").c_str(),
                [&] { checkGemmReference(g, a, b, c0, bad); });
  if (g.fusion != sw::core::FusionKind::kEpilogueRelu) {
    ok &= accepts((tag + ": projection").c_str(),
                  [&] { checkGemmFreivalds(g, a, b, c0, c, 11); });
    ok &= rejects((tag + ": projection, 1 elem off").c_str(),
                  [&] { checkGemmFreivalds(g, a, b, c0, bad, 11); });
  }
  ok &= rejects((tag + ": bit-identity, 1 elem off").c_str(), [&] {
    if (hashDoubles(bad) != hashDoubles(c))
      throw CheckFailure("C differs from the run it must equal bit-for-bit");
  });
  return ok;
}

}  // namespace

int selfTest() {
  bool ok = true;

  // A result computed here, in another summation order.
  {
    Rng rng(7);
    GemmCase g;
    g.m = 37;
    g.n = 29;
    g.k = 41;
    g.batch = 2;
    g.alpha = 0.75;
    g.beta = -1.25;
    g.transposeA = true;
    const std::vector<double> a = randomMatrix(g.sizeA(), rng);
    const std::vector<double> b = randomMatrix(g.sizeB(), rng);
    const std::vector<double> c0 = randomMatrix(g.sizeC(), rng);
    std::vector<double> c(g.sizeC());
    for (std::int64_t t = 0; t < g.batch; ++t)
      for (std::int64_t i = 0; i < g.m; ++i)
        for (std::int64_t j = 0; j < g.n; ++j) {
          double s = 0.0;
          for (std::int64_t p = g.k - 1; p >= 0; --p)
            s += a[static_cast<std::size_t>(t * g.m * g.k + p * g.m + i)] *
                 b[static_cast<std::size_t>(t * g.k * g.n + p * g.n + j)];
          const auto at = static_cast<std::size_t>(t * g.m * g.n + i * g.n + j);
          c[at] = g.alpha * s + g.beta * c0[at];
        }
    ok &= outputChecks("local C", g, a, b, c0, c);
  }

  // Results produced by the program: a ReLU edge-tile GEMM on the mesh and
  // a paper-scale estimate.
  const sw::sunway::ArchConfig arch;
  const sw::core::SwGemmCompiler compiler(arch);
  {
    Rng rng(8);
    GemmCase g;
    g.m = 70;
    g.n = 50;
    g.k = 90;
    g.alpha = 1.5;
    g.beta = 0.5;
    g.transposeB = true;
    g.fusion = sw::core::FusionKind::kEpilogueRelu;
    sw::core::CodegenOptions options;
    options.edgeTiles = true;
    options.transposeB = true;
    options.fusion = g.fusion;
    const sw::core::CompiledKernel kernel = compiler.compile(options);
    const std::vector<double> a = randomMatrix(g.sizeA(), rng);
    const std::vector<double> b = randomMatrix(g.sizeB(), rng);
    const std::vector<double> c0 = randomMatrix(g.sizeC(), rng);
    std::vector<double> c = c0;
    const sw::rt::RunOutcome run =
        sw::core::runGemmFunctional(kernel, arch, g.problem(), a, b, c);
    ok &= outputChecks("mesh C", g, a, b, c0, c);
    ok &= accepts("mesh C: roofline", [&] {
      checkRoofline("mesh run", g.flops(), run.seconds, g.compulsoryBytes(),
                    1, arch);
    });
  }
  {
    GemmCase g;
    g.m = g.n = g.k = 4096;
    g.beta = 1.0;
    const sw::rt::RunOutcome est = sw::core::estimateGemm(
        compiler.compile(sw::core::CodegenOptions{}), arch, g.problem());
    ok &= accepts("estimate 4096^3: roofline", [&] {
      checkRoofline("estimate", g.flops(), est.seconds, g.compulsoryBytes(),
                    1, arch);
    });
    ok &= rejects("estimate 4096^3: time / 3", [&] {
      checkRoofline("estimate", g.flops(), est.seconds / 3,
                    g.compulsoryBytes(), 1, arch);
    });
  }
  ok &= rejects("gemv time under the DDR floor", [&] {
    checkRoofline("gemv", 2.0 * 4096, 1e-6, 8.0 * 4096 * 4096, 6, arch);
  });

  sw::tuning::CandidateResult analytic;
  analytic.feasible = true;
  analytic.estimatedGflops = 1200.0;
  sw::tuning::CandidateResult winner = analytic;
  winner.candidate.tileM = 32;
  winner.estimatedGflops = 1250.0;
  ok &= accepts("tuner: honest winner",
                [&] { checkTunerWinner(winner, analytic, false); });
  // The winner's simulated time doubled: its rate halves below the default.
  sw::tuning::CandidateResult slowed = winner;
  slowed.estimatedGflops /= 2.0;
  ok &= rejects("tuner: winner time x 2",
                [&] { checkTunerWinner(slowed, analytic, false); });

  std::printf("self-test: %s\n", ok ? "every check fired" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace e2e
