// Native JIT execution engine (--engine native): compiles a KernelProgram's
// host translation unit (codegen::printNativeHostSource) into a shared
// object with the system C compiler, caches it on disk keyed by a content
// digest, dlopens it and dispatches functional runs through the resolved
// sw_native_run symbol.
//
// The engine is an accelerator, not a second semantics: the emitted TU
// mirrors the simulator runtimes op for op, so C results and the discrete
// counters are bit-identical to the tree-walk and plan engines (pinned by
// tests/plan_equivalence_test.cc).  Anything environmental — compiler
// missing, cache directory unwritable, corrupt artifact, dlopen failure —
// throws TransientError so callers degrade to the plan engine instead of
// failing the run.
#pragma once

#include <string>
#include <vector>

#include "codegen/program.h"
#include "sunway/services.h"

namespace sw::jit {

/// Knobs for locating the toolchain and the on-disk artifact cache.
struct NativeEngineConfig {
  /// Root of the .so cache.  Artifacts live under
  /// `<cacheDir>/v<abi-version>/<digest>.so`, written atomically
  /// (tmp + rename) so concurrent processes never observe torn objects.
  /// Empty resolves $SWCODEGEN_JIT_CACHE_DIR, then a per-user directory
  /// under the system temp dir.
  std::string cacheDir;
  /// C compiler driver.  Empty resolves $SWCODEGEN_CC, then $CC, then "cc".
  std::string compiler;
};

/// Inputs of one native run, in program declaration order.
struct NativeRunInput {
  std::vector<long long> params;  // one per KernelProgram::params entry
  std::vector<double*> arrays;    // one per KernelProgram::arrays entry
  double alpha = 1.0;
  double beta = 1.0;
};

struct NativeRunResult {
  /// Discrete counters only (messages/bytes/syncs/kernel calls/flops);
  /// the timing fields stay zero — simulated seconds are a model quantity
  /// the native engine does not produce.
  sunway::CpeCounters counters;
  /// Whether the shared object was reused from the persistent cache (no
  /// compiler invocation this run).
  bool cacheHit = false;
  std::string soPath;
};

/// Compile (or fetch from cache) and execute the native engine for
/// `program`.  Throws TransientError on any environmental failure; throws
/// InputError only for malformed inputs (wrong params/arrays arity).
NativeRunResult runNative(const codegen::KernelProgram& program,
                          const NativeEngineConfig& config,
                          const NativeRunInput& input);

/// Content digest of the shared object runNative would use (hex, stable
/// across processes): fnv1a64 over the emitted host source and the ABI
/// version.
[[nodiscard]] std::string nativeObjectDigest(
    const codegen::KernelProgram& program);

/// Resolved cache directory (the version-stamped subdirectory included).
[[nodiscard]] std::string resolveNativeCacheDir(
    const NativeEngineConfig& config);

/// Full path of the cached artifact for `digest` under `config`'s cache.
[[nodiscard]] std::string nativeObjectPath(const NativeEngineConfig& config,
                                           const std::string& digest);

/// Resolved compiler driver (config override, then $SWCODEGEN_CC, $CC,
/// "cc").
[[nodiscard]] std::string resolveNativeCompiler(
    const NativeEngineConfig& config);

/// Drop the in-process dlopen handle table (handles themselves are never
/// dlclosed — compiled code may still be executing).  Tests use this to
/// force a fresh disk-cache probe.
void resetNativeEngineForTest();

}  // namespace sw::jit
