#include "core/options.h"

#include <cstdio>
#include <string_view>

namespace sw::core {

namespace {

/// Space-separated decimal tokens; doubles render with %.17g (exact for
/// IEEE doubles) so the key never depends on locale or rounding.
class KeyWriter {
 public:
  explicit KeyWriter(std::string_view tag) {
    out_ += tag;
    out_ += ' ';
  }
  void num(std::int64_t v) {
    out_ += std::to_string(v);
    out_ += ' ';
  }
  void boolean(bool v) { num(v ? 1 : 0); }
  void real(double v) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
    out_ += ' ';
  }
  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

}  // namespace

std::string canonicalRequestKey(const CodegenOptions& options,
                                const sunway::ArchConfig& arch) {
  KeyWriter w("swkey");
  w.num(kRequestKeyVersion);
  w.boolean(options.useAsm);
  w.boolean(options.useRma);
  w.boolean(options.hideLatency);
  w.boolean(options.batched);
  w.num(static_cast<std::int64_t>(options.fusion));
  w.boolean(options.transposeA);
  w.boolean(options.transposeB);
  w.num(options.tileM);
  w.num(options.tileN);
  w.num(options.tileK);
  w.num(options.stripFactor);
  w.num(options.microMr);
  w.num(options.microNr);
  w.boolean(options.edgeTiles);
  w.num(arch.meshRows);
  w.num(arch.meshCols);
  w.num(arch.spmBytes);
  w.real(arch.cpeFrequencyHz);
  w.real(arch.cpeFlopsPerCycle);
  w.real(arch.asmKernelEfficiency);
  w.real(arch.naiveFlopsPerCycle);
  w.real(arch.elementwiseFlopsPerCycle);
  w.real(arch.ddrBandwidthBytesPerSec);
  w.real(arch.dmaStartupSeconds);
  w.real(arch.dmaStridePenaltySecondsPerRow);
  w.real(arch.rmaBandwidthBytesPerSec);
  w.real(arch.rmaStartupSeconds);
  w.real(arch.syncSeconds);
  w.real(arch.spawnOverheadSeconds);
  w.real(arch.mpeFlopsPerCycle);
  w.real(arch.mpeFrequencyHz);
  w.real(arch.mpeMemBandwidthBytesPerSec);
  w.num(arch.coreGroups);
  w.real(arch.nodeDdrBandwidthBytesPerSec);
  w.real(arch.nocBandwidthBytesPerSec);
  w.real(arch.nocLatencySeconds);
  return w.take();
}

}  // namespace sw::core
