#include "checks.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

namespace e2e {
namespace {

constexpr double kUnitRoundoff = std::numeric_limits<double>::epsilon() / 2;

double quantize(double x) {
  // The §8.4 prologue: round(x * 16) / 16, round-half-even.
  return std::nearbyint(x * 16.0) / 16.0;
}

/// op(A)[i][p] of batch element `t`, with the prologue applied.
struct OperandA {
  const GemmCase& g;
  const double* base;
  double operator()(std::int64_t i, std::int64_t p) const {
    const double v = g.transposeA ? base[p * g.m + i] : base[i * g.k + p];
    return g.fusion == sw::core::FusionKind::kPrologueQuantize ? quantize(v)
                                                               : v;
  }
};

struct OperandB {
  const GemmCase& g;
  const double* base;
  double operator()(std::int64_t p, std::int64_t j) const {
    return g.transposeB ? base[j * g.k + p] : base[p * g.n + j];
  }
};

std::string describe(const GemmCase& g) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%ldx%ldx%ld b%ld%s%s%s", long(g.m),
                long(g.n), long(g.k), long(g.batch), g.transposeA ? " tA" : "",
                g.transposeB ? " tB" : "",
                g.fusion == sw::core::FusionKind::kEpilogueRelu ? " relu"
                : g.fusion == sw::core::FusionKind::kPrologueQuantize
                    ? " quantize"
                    : "");
  return buf;
}

void requireSizes(const GemmCase& g, std::span<const double> a,
                  std::span<const double> b, std::span<const double> c0,
                  std::span<const double> c) {
  if (a.size() != g.sizeA() || b.size() != g.sizeB() ||
      c0.size() != g.sizeC() || c.size() != g.sizeC())
    throw CheckFailure("gemm " + describe(g) + ": operand sizes do not match");
}

}  // namespace

void checkGemmReference(const GemmCase& g, std::span<const double> a,
                        std::span<const double> b,
                        std::span<const double> c0,
                        std::span<const double> c) {
  requireSizes(g, a, b, c0, c);
  const double gamma = 2.0 * static_cast<double>(g.k + 3) * kUnitRoundoff;
  const bool relu = g.fusion == sw::core::FusionKind::kEpilogueRelu;
  std::vector<double> acc(static_cast<std::size_t>(g.n));
  std::vector<double> mag(static_cast<std::size_t>(g.n));
  for (std::int64_t t = 0; t < g.batch; ++t) {
    const OperandA opA{g, a.data() + t * g.m * g.k};
    const OperandB opB{g, b.data() + t * g.k * g.n};
    const double* c0t = c0.data() + t * g.m * g.n;
    const double* ct = c.data() + t * g.m * g.n;
    for (std::int64_t i = 0; i < g.m; ++i) {
      std::fill(acc.begin(), acc.end(), 0.0);
      std::fill(mag.begin(), mag.end(), 0.0);
      for (std::int64_t p = 0; p < g.k; ++p) {
        const double av = opA(i, p);
        const double aa = std::fabs(av);
        for (std::int64_t j = 0; j < g.n; ++j) {
          const double bv = opB(p, j);
          acc[static_cast<std::size_t>(j)] += av * bv;
          mag[static_cast<std::size_t>(j)] += aa * std::fabs(bv);
        }
      }
      for (std::int64_t j = 0; j < g.n; ++j) {
        const double old = g.beta == 0.0 ? 0.0 : c0t[i * g.n + j];
        double want = g.alpha * acc[static_cast<std::size_t>(j)] +
                      g.beta * old;
        const double tol =
            gamma * (std::fabs(g.alpha) * mag[static_cast<std::size_t>(j)] +
                     std::fabs(g.beta) * std::fabs(old));
        if (relu) want = want > 0.0 ? want : 0.0;
        const double got = ct[i * g.n + j];
        if (!(std::fabs(got - want) <= tol)) {
          char buf[200];
          std::snprintf(buf, sizeof(buf),
                        " batch %ld C[%ld][%ld] = %.17g, reference %.17g, "
                        "bound %.3g",
                        long(t), long(i), long(j), got, want, tol);
          throw CheckFailure("gemm " + describe(g) + buf);
        }
      }
    }
  }
}

void checkGemmFreivalds(const GemmCase& g, std::span<const double> a,
                        std::span<const double> b,
                        std::span<const double> c0,
                        std::span<const double> c, std::uint64_t seed) {
  requireSizes(g, a, b, c0, c);
  if (g.fusion == sw::core::FusionKind::kEpilogueRelu)
    throw CheckFailure("gemm " + describe(g) +
                       ": a projection check cannot see through ReLU");
  const double gamma =
      2.0 * static_cast<double>(g.k + g.n + 4) * kUnitRoundoff;
  Rng rng(seed);
  std::vector<double> x(static_cast<std::size_t>(g.n));
  std::vector<double> y(static_cast<std::size_t>(g.k));
  std::vector<double> yAbs(static_cast<std::size_t>(g.k));
  for (std::int64_t t = 0; t < g.batch; ++t) {
    for (double& v : x) v = rng.coin() ? 1.0 : -1.0;
    const OperandA opA{g, a.data() + t * g.m * g.k};
    const OperandB opB{g, b.data() + t * g.k * g.n};
    const double* c0t = c0.data() + t * g.m * g.n;
    const double* ct = c.data() + t * g.m * g.n;
    // y = op(B) x and |op(B)| |x|.
    for (std::int64_t p = 0; p < g.k; ++p) {
      double s = 0.0, sa = 0.0;
      for (std::int64_t j = 0; j < g.n; ++j) {
        const double bv = opB(p, j);
        s += bv * x[static_cast<std::size_t>(j)];
        sa += std::fabs(bv);
      }
      y[static_cast<std::size_t>(p)] = s;
      yAbs[static_cast<std::size_t>(p)] = sa;
    }
    for (std::int64_t i = 0; i < g.m; ++i) {
      double ay = 0.0, ayAbs = 0.0;
      for (std::int64_t p = 0; p < g.k; ++p) {
        const double av = opA(i, p);
        ay += av * y[static_cast<std::size_t>(p)];
        ayAbs += std::fabs(av) * yAbs[static_cast<std::size_t>(p)];
      }
      double cx = 0.0, cAbs = 0.0, c0x = 0.0, c0Abs = 0.0;
      for (std::int64_t j = 0; j < g.n; ++j) {
        const double xj = x[static_cast<std::size_t>(j)];
        cx += ct[i * g.n + j] * xj;
        cAbs += std::fabs(ct[i * g.n + j]);
        if (g.beta != 0.0) {
          c0x += c0t[i * g.n + j] * xj;
          c0Abs += std::fabs(c0t[i * g.n + j]);
        }
      }
      const double residual = cx - (g.alpha * ay + g.beta * c0x);
      const double tol =
          gamma * (std::fabs(g.alpha) * ayAbs + std::fabs(g.beta) * c0Abs +
                   cAbs);
      if (!(std::fabs(residual) <= tol)) {
        char buf[200];
        std::snprintf(buf, sizeof(buf),
                      " batch %ld row %ld: projection residual %.3g exceeds "
                      "bound %.3g",
                      long(t), long(i), residual, tol);
        throw CheckFailure("gemm " + describe(g) + buf);
      }
    }
  }
}

void checkRoofline(const std::string& what, double flops, double seconds,
                   double compulsoryBytes, int groups,
                   const sw::sunway::ArchConfig& arch) {
  const int g = groups < 1 ? 1 : groups;
  char buf[256];
  if (!(seconds > 0.0) || !std::isfinite(seconds)) {
    std::snprintf(buf, sizeof(buf), ": simulated time %.17g s", seconds);
    throw CheckFailure(what + buf);
  }
  const double peak = static_cast<double>(g) * arch.peakFlops();
  const double rate = flops / seconds;
  if (rate > peak * (1.0 + 1e-9)) {
    std::snprintf(buf, sizeof(buf),
                  ": %.6g GFLOPS above the %d-group peak %.6g GFLOPS",
                  rate / 1e9, g, peak / 1e9);
    throw CheckFailure(what + buf);
  }
  const double bandwidth =
      static_cast<double>(g) * arch.groupDdrBandwidth(g);
  const double floorSeconds = compulsoryBytes / bandwidth;
  if (seconds < floorSeconds * (1.0 - 1e-9)) {
    std::snprintf(buf, sizeof(buf),
                  ": simulated %.6g s below the DDR floor %.6g s "
                  "(%.6g compulsory bytes at %.6g GB/s)",
                  seconds, floorSeconds, compulsoryBytes, bandwidth / 1e9);
    throw CheckFailure(what + buf);
  }
}

void checkTunerWinner(const sw::tuning::CandidateResult& winner,
                      const sw::tuning::CandidateResult& analytic,
                      bool validatedAtFullShape) {
  if (!winner.feasible) throw CheckFailure("tuner: winner is not feasible");
  if (!analytic.feasible) return;  // nothing to compare against
  const bool measured =
      validatedAtFullShape && winner.validated && analytic.validated;
  const double won = measured ? winner.measuredGflops : winner.estimatedGflops;
  const double base =
      measured ? analytic.measuredGflops : analytic.estimatedGflops;
  if (!(won >= base)) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "tuner: winner %s at %.6g GFLOPS (%s) is slower than the "
                  "analytic default at %.6g",
                  winner.label().c_str(), won,
                  measured ? "measured" : "estimated", base);
    throw CheckFailure(buf);
  }
}

}  // namespace e2e
