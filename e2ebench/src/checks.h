// Independent output checks: nothing here calls into swcodegen, so a
// fault in the library cannot hide itself by also breaking its oracle.
#pragma once

#include <span>
#include <string>

#include "bench.h"
#include "tuning/tuner.h"

namespace e2e {

/// Full naive reference of `gemm` on (a, b, c0) and an element-wise
/// forward-error bound 2(k+3)u(|alpha||A||B| + |beta||C0|), with the
/// quantize prologue and ReLU epilogue applied as the paper defines them
/// (ReLU is 1-Lipschitz, so the bound carries through it).  Throws
/// CheckFailure naming the first offending element.
void checkGemmReference(const GemmCase& gemm, std::span<const double> a,
                        std::span<const double> b,
                        std::span<const double> c0,
                        std::span<const double> c);

/// Random-projection (Freivalds) check for GEMMs without an epilogue:
/// C x against alpha op(A) (op(B) x) + beta C0 x for a seeded +-1 vector,
/// within the propagated forward-error bound.  O(n^2) per batch.
void checkGemmFreivalds(const GemmCase& gemm, std::span<const double> a,
                        std::span<const double> b,
                        std::span<const double> c0,
                        std::span<const double> c, std::uint64_t seed);

/// Simulated results inside their roofline: `flops / seconds` at most
/// `groups` x the ArchConfig peak, and `seconds` at least the compulsory
/// DDR bytes over the aggregate bandwidth `groups` groups can draw.
void checkRoofline(const std::string& what, double flops, double seconds,
                   double compulsoryBytes, int groups,
                   const sw::sunway::ArchConfig& arch);

/// The tuner's winner is no slower than the analytic default (candidate
/// 0) by the score the search ranks with: the measured simulated GFLOPS
/// when validation ran at the full shape and both were validated, the
/// estimate otherwise.
void checkTunerWinner(const sw::tuning::CandidateResult& winner,
                      const sw::tuning::CandidateResult& analytic,
                      bool validatedAtFullShape);

/// Corrupt one output element and one simulated time and show that each
/// check above rejects it (selftest.cc).  Returns 0 when every check fired.
int selfTest();

}  // namespace e2e
