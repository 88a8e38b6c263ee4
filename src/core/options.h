// Compiler options, mirroring the tool's command line (§8): --batch,
// --no-use-asm, plus the ablation toggles the performance-breakdown
// experiment (Fig.13) needs.
#pragma once

#include <cstdint>
#include <string>

#include "sunway/arch.h"

namespace sw::core {

/// Fusion patterns of §7.3.
enum class FusionKind {
  kNone,
  kPrologueQuantize,  // element-wise quantization of A fused before GEMM
  kEpilogueRelu,      // activation of C fused after GEMM
};

struct CodegenOptions {
  /// Invoke the vendor-style assembly micro-kernel (§7.2); false emits the
  /// naive loop nest (--no-use-asm).
  bool useAsm = true;

  /// Share input tiles across mesh rows/columns with RMA broadcasts (§5);
  /// false re-fetches every tile with DMA (the baseline of Fig.13).
  bool useRma = true;

  /// Two-level software pipelining + double buffering (§6); false issues
  /// and waits back-to-back.
  bool hideLatency = true;

  /// Batched GEMM (--batch): isolate the batch dimension (§3, Fig.3).
  bool batched = false;

  FusionKind fusion = FusionKind::kNone;

  /// GEMM operand variants (§2: "other GEMM variants share the same
  /// structure with DGEMM").  A transposed operand is DMA-staged into a
  /// scratch SPM tile and transposed on-CPE before the micro-kernel.
  bool transposeA = false;  // C = alpha * A^T * B + beta * C
  bool transposeB = false;  // C = alpha * A * B^T + beta * C

  /// Micro-kernel shape contract (§7.2); the analytical tile-size model
  /// simply adopts it (§3.1).
  std::int64_t tileM = 64;
  std::int64_t tileN = 64;
  std::int64_t tileK = 32;

  /// Strip-mining factor of the reduced dimension = mesh width (§3.2).
  std::int64_t stripFactor = 8;

  /// Register-block shape of the generated micro-kernel family (Exo-style
  /// MR x NR variants; kernel::microKernelFamily() is the feasible set).
  /// The default (4, 8) matches the vendor routine's block and keeps the
  /// historical timing calibration exactly.
  int microMr = 4;
  int microNr = 8;

  /// Edge-tile codegen (--pad-mode=edge): emit runtime clamps on DMA
  /// extents and micro-kernel shapes so arbitrary (non-tile-multiple)
  /// M/N/K run directly on unpadded host arrays, retiring the §8.1
  /// zero-padding convention.  Padded shapes bind none of the clamps, so
  /// an edge-tile kernel on padded inputs behaves exactly like a plain one.
  bool edgeTiles = false;

  friend bool operator==(const CodegenOptions&,
                         const CodegenOptions&) = default;
};

/// Format version of canonicalRequestKey.  Bump it only when the key's
/// layout changes: tuning-DB records are addressed by keys that embed it,
/// so a bump re-tunes every stored shape.
inline constexpr int kRequestKeyVersion = 3;

/// Canonical, byte-stable rendering of everything a compile's output
/// depends on: every CodegenOptions field plus every ArchConfig field.
/// Two requests with equal keys produce byte-identical kernels (see
/// tests/compile_determinism_test.cc), so the kernel service's LRU and the
/// tuning database both address their entries by this key.
[[nodiscard]] std::string canonicalRequestKey(const CodegenOptions& options,
                                              const sunway::ArchConfig& arch);

}  // namespace sw::core
