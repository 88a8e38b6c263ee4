// Determinism guard for the kernel cache (the correctness precondition of
// cache keying): compiling identical CodegenOptions must yield
// byte-identical generated sources, tree dumps and executable programs,
// regardless of what else the process compiled in between.
//
// Audit notes (PR 2): the pipeline keeps all keyed collections ordered
// (std::map/std::set over strings), never iterates pointer-keyed
// containers, and embeds no timestamps or addresses in its output, so
// determinism holds by construction; this test pins it down.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "codegen/athread_printer.h"
#include "core/compiler.h"

namespace sw::core {
namespace {

std::vector<CodegenOptions> interestingVariants() {
  std::vector<CodegenOptions> variants;
  variants.emplace_back();  // defaults
  CodegenOptions noAsm;
  noAsm.useAsm = false;
  variants.push_back(noAsm);
  CodegenOptions dmaOnly;
  dmaOnly.useRma = false;
  dmaOnly.hideLatency = false;
  variants.push_back(dmaOnly);
  CodegenOptions batched;
  batched.batched = true;
  variants.push_back(batched);
  CodegenOptions fused;
  fused.fusion = FusionKind::kEpilogueRelu;
  variants.push_back(fused);
  CodegenOptions transposed;
  transposed.transposeA = true;
  variants.push_back(transposed);
  CodegenOptions smallTiles;
  smallTiles.tileM = 32;
  smallTiles.tileN = 32;
  smallTiles.tileK = 32;
  variants.push_back(smallTiles);
  return variants;
}

TEST(CompileDeterminismTest, RepeatedCompilesAreByteIdentical) {
  SwGemmCompiler compiler;
  const std::vector<CodegenOptions> variants = interestingVariants();

  // First sweep, in order.
  std::vector<CompiledKernel> first;
  first.reserve(variants.size());
  for (const CodegenOptions& options : variants)
    first.push_back(compiler.compile(options));

  // Second sweep in reverse order, with a fresh compiler instance, so any
  // hidden state carried across compiles (allocator layout, iteration
  // order, memoization) would surface as a diff.
  SwGemmCompiler other;
  for (std::size_t i = variants.size(); i-- > 0;) {
    const CompiledKernel again = other.compile(variants[i]);
    const CompiledKernel& reference = first[i];
    EXPECT_EQ(again.cpeSource, reference.cpeSource) << "variant " << i;
    EXPECT_EQ(again.mpeSource, reference.mpeSource) << "variant " << i;
    EXPECT_EQ(again.initialTreeDump, reference.initialTreeDump)
        << "variant " << i;
    EXPECT_EQ(again.tiledTreeDump, reference.tiledTreeDump) << "variant " << i;
    EXPECT_EQ(again.finalTreeDump, reference.finalTreeDump) << "variant " << i;
    // The native host TU renders the executable program op for op.
    EXPECT_EQ(codegen::printNativeHostSource(again.program),
              codegen::printNativeHostSource(reference.program))
        << "variant " << i;
    EXPECT_EQ(again.options, reference.options) << "variant " << i;
  }
}

TEST(CompileDeterminismTest, CanonicalKeyIsStableAndDiscriminating) {
  const sunway::ArchConfig arch;
  const std::vector<CodegenOptions> variants = interestingVariants();

  std::vector<std::string> keys;
  for (const CodegenOptions& options : variants) {
    keys.push_back(canonicalRequestKey(options, arch));
    // Stable: recomputing yields the same bytes.
    EXPECT_EQ(keys.back(), canonicalRequestKey(options, arch));
  }
  // Discriminating: distinct variants get distinct keys.
  for (std::size_t i = 0; i < keys.size(); ++i)
    for (std::size_t j = i + 1; j < keys.size(); ++j)
      EXPECT_NE(keys[i], keys[j]) << "variants " << i << " and " << j;

  // Every field counts.  One mutator per CodegenOptions and ArchConfig
  // field: each must move the key off the default and away from every
  // other single-field change.
  using Mutator = std::function<void(CodegenOptions&, sunway::ArchConfig&)>;
  const std::vector<Mutator> mutators = {
      [](CodegenOptions& o, sunway::ArchConfig&) { o.useAsm = false; },
      [](CodegenOptions& o, sunway::ArchConfig&) { o.useRma = false; },
      [](CodegenOptions& o, sunway::ArchConfig&) { o.hideLatency = false; },
      [](CodegenOptions& o, sunway::ArchConfig&) { o.batched = true; },
      [](CodegenOptions& o, sunway::ArchConfig&) {
        o.fusion = FusionKind::kPrologueQuantize;
      },
      [](CodegenOptions& o, sunway::ArchConfig&) {
        o.fusion = FusionKind::kEpilogueRelu;
      },
      [](CodegenOptions& o, sunway::ArchConfig&) { o.transposeA = true; },
      [](CodegenOptions& o, sunway::ArchConfig&) { o.transposeB = true; },
      [](CodegenOptions& o, sunway::ArchConfig&) { o.tileM = 32; },
      [](CodegenOptions& o, sunway::ArchConfig&) { o.tileN = 32; },
      [](CodegenOptions& o, sunway::ArchConfig&) { o.tileK = 16; },
      [](CodegenOptions& o, sunway::ArchConfig&) { o.stripFactor = 4; },
      [](CodegenOptions& o, sunway::ArchConfig&) { o.microMr = 8; },
      [](CodegenOptions& o, sunway::ArchConfig&) { o.microNr = 4; },
      [](CodegenOptions& o, sunway::ArchConfig&) { o.edgeTiles = true; },
      [](CodegenOptions&, sunway::ArchConfig& a) { a.meshRows = 4; },
      [](CodegenOptions&, sunway::ArchConfig& a) { a.meshCols = 4; },
      [](CodegenOptions&, sunway::ArchConfig& a) { a.spmBytes = 128 * 1024; },
      [](CodegenOptions&, sunway::ArchConfig& a) { a.cpeFrequencyHz = 2.2e9; },
      [](CodegenOptions&, sunway::ArchConfig& a) { a.cpeFlopsPerCycle = 8.0; },
      [](CodegenOptions&, sunway::ArchConfig& a) {
        a.asmKernelEfficiency = 0.9;
      },
      [](CodegenOptions&, sunway::ArchConfig& a) {
        a.naiveFlopsPerCycle = 0.5;
      },
      [](CodegenOptions&, sunway::ArchConfig& a) {
        a.elementwiseFlopsPerCycle = 4.0;
      },
      [](CodegenOptions&, sunway::ArchConfig& a) {
        a.ddrBandwidthBytesPerSec = 30e9;
      },
      [](CodegenOptions&, sunway::ArchConfig& a) {
        a.dmaStartupSeconds = 2e-6;
      },
      [](CodegenOptions&, sunway::ArchConfig& a) {
        a.dmaStridePenaltySecondsPerRow = 20e-9;
      },
      [](CodegenOptions&, sunway::ArchConfig& a) {
        a.rmaBandwidthBytesPerSec = 40e9;
      },
      [](CodegenOptions&, sunway::ArchConfig& a) {
        a.rmaStartupSeconds = 0.2e-6;
      },
      [](CodegenOptions&, sunway::ArchConfig& a) { a.syncSeconds = 0.1e-6; },
      [](CodegenOptions&, sunway::ArchConfig& a) {
        a.spawnOverheadSeconds = 30e-6;
      },
      [](CodegenOptions&, sunway::ArchConfig& a) { a.mpeFlopsPerCycle = 2.0; },
      [](CodegenOptions&, sunway::ArchConfig& a) { a.mpeFrequencyHz = 2.0e9; },
      [](CodegenOptions&, sunway::ArchConfig& a) {
        a.mpeMemBandwidthBytesPerSec = 3e9;
      },
      [](CodegenOptions&, sunway::ArchConfig& a) { a.coreGroups = 4; },
      [](CodegenOptions&, sunway::ArchConfig& a) {
        a.nodeDdrBandwidthBytesPerSec = 100e9;
      },
      [](CodegenOptions&, sunway::ArchConfig& a) {
        a.nocBandwidthBytesPerSec = 20e9;
      },
      [](CodegenOptions&, sunway::ArchConfig& a) {
        a.nocLatencySeconds = 3e-6;
      },
  };

  std::vector<std::string> fieldKeys{
      canonicalRequestKey(CodegenOptions{}, sunway::ArchConfig{})};
  for (const Mutator& mutate : mutators) {
    CodegenOptions mutatedOptions;
    sunway::ArchConfig mutatedArch;
    mutate(mutatedOptions, mutatedArch);
    fieldKeys.push_back(canonicalRequestKey(mutatedOptions, mutatedArch));
  }
  for (std::size_t i = 0; i < fieldKeys.size(); ++i)
    for (std::size_t j = i + 1; j < fieldKeys.size(); ++j)
      EXPECT_NE(fieldKeys[i], fieldKeys[j])
          << "mutators " << i << " and " << j << " (0 = defaults)";
}

TEST(CompileDeterminismTest, CanonicalKeyBytesArePinned) {
  // Tuning-DB records are addressed by this key: changing its bytes
  // silently re-tunes every stored shape, so the default key is pinned.
  EXPECT_EQ(canonicalRequestKey(CodegenOptions{}, sunway::ArchConfig{}),
            "swkey 3 1 1 1 0 0 0 0 64 64 32 8 4 8 0 8 8 262144 2100000000 16 "
            "0.98999999999999999 0.88 8 36000000000 1.5e-06 1e-08 "
            "80000000000 9.9999999999999995e-08 4.9999999999999998e-08 "
            "2.5000000000000001e-05 4 2100000000 2500000000 6 144000000000 "
            "25000000000 1.9999999999999999e-06 ");
}

}  // namespace
}  // namespace sw::core
