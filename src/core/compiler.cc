#include "core/compiler.h"

#include "codegen/athread_printer.h"
#include "runtime/plan.h"
#include "support/logging.h"
#include "support/trace.h"

namespace sw::core {

CompiledKernel SwGemmCompiler::compile(const CodegenOptions& options) const {
  return compileNamed(options, {});
}

CompiledKernel SwGemmCompiler::compileNamed(const CodegenOptions& options,
                                            const std::string& name) const {
  trace::Span span("compile",
                   {trace::arg("tileM", options.tileM),
                    trace::arg("tileN", options.tileN),
                    trace::arg("tileK", options.tileK),
                    trace::arg("useAsm", options.useAsm ? "true" : "false"),
                    trace::arg("useRma", options.useRma ? "true" : "false"),
                    trace::arg("hideLatency",
                               options.hideLatency ? "true" : "false")});
  PipelineResult pipeline = runGemmPipeline(options, arch_);
  CompiledKernel kernel;
  kernel.options = options;
  kernel.program = std::move(pipeline.program);
  if (!name.empty()) kernel.program.name = name;
  kernel.initialTreeDump = std::move(pipeline.initialTreeDump);
  kernel.tiledTreeDump = std::move(pipeline.tiledTreeDump);
  kernel.finalTreeDump = std::move(pipeline.finalTreeDump);
  {
    trace::Span printSpan("codegen.print");
    codegen::GeneratedSources sources =
        codegen::printAthreadSources(kernel.program);
    kernel.cpeSource = std::move(sources.cpe);
    kernel.mpeSource = std::move(sources.mpe);
    printSpan.addArg(trace::arg(
        "cpeBytes", static_cast<std::int64_t>(kernel.cpeSource.size())));
  }
  {
    trace::Span lowerSpan("lower.plan");
    kernel.plan = rt::lowerToPlan(kernel.program);
    lowerSpan.addArg(trace::arg(
        "instructions", static_cast<std::int64_t>(kernel.plan->code.size())));
  }
  SW_DEBUG("compiler", "event=compile_done kernel=", kernel.program.name,
           " spm_bytes=", kernel.program.spmBytesUsed());
  return kernel;
}

}  // namespace sw::core
