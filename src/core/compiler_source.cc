#include "codegen/athread_printer.h"
#include "core/compiler.h"
#include "frontend/pattern.h"
#include "support/trace.h"

namespace sw::core {

SourceRequest analyzeSourceRequest(const std::string& source,
                                   CodegenOptions base) {
  frontend::GemmPatternInfo pattern;
  {
    trace::Span span("frontend.parse",
                     {trace::arg("sourceBytes",
                                 static_cast<std::int64_t>(source.size()))});
    pattern = frontend::analyzeGemmSource(source);
    span.addArg(trace::arg("function", pattern.functionName));
    span.addArg(trace::arg("batched", pattern.batched ? "true" : "false"));
  }
  base.batched = pattern.batched;
  base.transposeA = pattern.transposeA;
  base.transposeB = pattern.transposeB;
  switch (pattern.fusion) {
    case frontend::FusionPattern::kNone:
      base.fusion = FusionKind::kNone;
      break;
    case frontend::FusionPattern::kPrologueQuantize:
      base.fusion = FusionKind::kPrologueQuantize;
      break;
    case frontend::FusionPattern::kEpilogueRelu:
      base.fusion = FusionKind::kEpilogueRelu;
      break;
  }
  return SourceRequest{std::move(pattern.functionName), base};
}

void renameKernel(CompiledKernel& kernel, const std::string& name) {
  kernel.program.name = name;
  codegen::GeneratedSources sources =
      codegen::printAthreadSources(kernel.program);
  kernel.cpeSource = std::move(sources.cpe);
  kernel.mpeSource = std::move(sources.mpe);
}

CompiledKernel SwGemmCompiler::compileSource(const std::string& source,
                                             CodegenOptions base) const {
  const SourceRequest request = analyzeSourceRequest(source, base);
  // Name the kernel after the user's function before its one print.
  return compileNamed(request.options, request.functionName);
}

}  // namespace sw::core
