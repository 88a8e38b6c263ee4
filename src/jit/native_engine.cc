#include "jit/native_engine.h"

#include <dlfcn.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>

#include "codegen/athread_printer.h"
#include "support/digest.h"
#include "support/error.h"
#include "support/format.h"
#include "support/logging.h"
#include "support/trace.h"

namespace sw::jit {

namespace fs = std::filesystem;

namespace {

/// C-layout mirror of the sw_counters struct every generated host TU
/// defines; printNativeHostSource and this struct must change together
/// (guarded by kNativeHostAbiVersion).
struct RawCounters {
  long long dmaMessages;
  long long dmaBytes;
  long long rmaBroadcastsSent;
  long long rmaBytesSent;
  long long syncs;
  long long microKernelCalls;
  double flops;
};

using NativeRunFn = int (*)(const long long* params, double* const* arrays,
                            double alpha, double beta, RawCounters* totals);
using NativeAbiFn = long (*)(void);

struct LoadedObject {
  NativeRunFn run = nullptr;
  std::string path;
};

/// In-process object table plus the single-flight lock: the first caller
/// for a digest compiles/loads while later callers block, then reuse the
/// handle.  Handles are never dlclosed — generated code may be mid-run on
/// another thread, and the objects are small.
std::mutex& engineMutex() {
  static std::mutex mutex;
  return mutex;
}

std::map<std::string, LoadedObject>& objectTable() {
  static std::map<std::string, LoadedObject> table;
  return table;
}

std::string envOr(const char* name, const std::string& fallback) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0' ? value : fallback;
}

[[noreturn]] void unavailable(const std::string& why) {
  throw TransientError(strCat("native engine unavailable: ", why));
}

std::string readTail(const fs::path& path, std::size_t maxChars = 800) {
  std::ifstream in(path);
  if (!in) return {};
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  if (text.size() > maxChars) text = "..." + text.substr(text.size() - maxChars);
  for (char& c : text)
    if (c == '\n') c = ' ';
  return text;
}

/// Compile `source` into `finalPath` atomically: unique tmp names, rename
/// over the destination, best-effort cleanup.  Throws TransientError with
/// the compiler's stderr tail on failure.
void compileObject(const std::string& compiler, const std::string& source,
                   const fs::path& finalPath) {
  trace::Span span("jit.compile", {trace::arg("so", finalPath.string())});
  std::error_code ec;
  fs::create_directories(finalPath.parent_path(), ec);
  const std::string unique =
      strCat(static_cast<long long>(::getpid()), ".",
             static_cast<const void*>(&source));
  const fs::path srcPath =
      finalPath.parent_path() / strCat(finalPath.stem().string(), ".", unique, ".c");
  const fs::path tmpSo = fs::path(strCat(finalPath.string(), ".", unique, ".tmp"));
  const fs::path errPath = fs::path(strCat(finalPath.string(), ".", unique, ".err"));
  {
    std::ofstream out(srcPath, std::ios::binary | std::ios::trunc);
    if (!out) unavailable(strCat("cannot write JIT source under '",
                                 finalPath.parent_path().string(),
                                 "' (directory not writable?)"));
    out << source;
    out.flush();
    if (!out) unavailable(strCat("short write of JIT source '",
                                 srcPath.string(), "'"));
  }
  const std::string command =
      strCat("'", compiler, "' -O2 -fPIC -shared -pthread -x c '",
             srcPath.string(), "' -o '", tmpSo.string(), "' -lm > '",
             errPath.string(), "' 2>&1");
  const int rc = std::system(command.c_str());
  const std::string errTail = readTail(errPath);
  fs::remove(srcPath, ec);
  fs::remove(errPath, ec);
  if (rc != 0 || !fs::exists(tmpSo)) {
    fs::remove(tmpSo, ec);
    unavailable(strCat("compiler '", compiler, "' failed (exit status ", rc,
                       "): ", errTail.empty() ? "no diagnostics" : errTail));
  }
  fs::rename(tmpSo, finalPath, ec);
  if (ec) {
    fs::remove(tmpSo, ec);
    unavailable(strCat("cannot publish JIT object '", finalPath.string(),
                       "': ", ec.message()));
  }
}

/// dlopen `path` and resolve the entry points, verifying the embedded ABI
/// version.  Returns nullopt-style failure via the `why` out-param so the
/// caller can decide between recompiling and giving up.
bool tryLoad(const fs::path& path, LoadedObject& out, std::string& why) {
  void* handle = ::dlopen(path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) {
    const char* err = ::dlerror();
    why = strCat("dlopen failed: ", err != nullptr ? err : "unknown error");
    return false;
  }
  auto abi = reinterpret_cast<NativeAbiFn>(::dlsym(handle, "sw_native_abi"));
  auto run = reinterpret_cast<NativeRunFn>(::dlsym(handle, "sw_native_run"));
  if (abi == nullptr || run == nullptr) {
    why = "missing sw_native_abi/sw_native_run symbols";
    return false;
  }
  if (abi() != codegen::kNativeHostAbiVersion) {
    why = strCat("ABI version ", abi(), " != expected ",
                 codegen::kNativeHostAbiVersion);
    return false;
  }
  out.run = run;
  out.path = path.string();
  return true;
}

/// Get-or-create the loaded object for `program`.  Caller holds no lock.
LoadedObject obtainObject(const codegen::KernelProgram& program,
                          const NativeEngineConfig& config, bool& cacheHit) {
  const std::string digest = nativeObjectDigest(program);
  std::lock_guard<std::mutex> lock(engineMutex());
  auto it = objectTable().find(digest);
  if (it != objectTable().end()) {
    cacheHit = true;
    return it->second;
  }
  const fs::path soPath(nativeObjectPath(config, digest));
  const std::string compiler = resolveNativeCompiler(config);
  const std::string source = codegen::printNativeHostSource(program);
  LoadedObject loaded;
  std::string why;
  cacheHit = fs::exists(soPath);
  if (cacheHit && tryLoad(soPath, loaded, why)) {
    objectTable().emplace(digest, loaded);
    SW_INFO("jit", "event=cache_hit digest=", digest, " so=", soPath.string());
    return loaded;
  }
  if (cacheHit) {
    // Corrupt, truncated or stale artifact: evict and recompile once.
    SW_WARN("jit", "event=evict_bad_object digest=", digest, " reason=\"",
            why, "\"");
    std::error_code ec;
    fs::remove(soPath, ec);
    cacheHit = false;
  }
  compileObject(compiler, source, soPath);
  if (!tryLoad(soPath, loaded, why))
    unavailable(strCat("freshly compiled object '", soPath.string(),
                       "' rejected: ", why));
  objectTable().emplace(digest, loaded);
  SW_INFO("jit", "event=compiled digest=", digest, " so=", soPath.string(),
          " compiler=", compiler);
  return loaded;
}

}  // namespace

std::string resolveNativeCompiler(const NativeEngineConfig& config) {
  if (!config.compiler.empty()) return config.compiler;
  return envOr("SWCODEGEN_CC", envOr("CC", "cc"));
}

std::string resolveNativeCacheDir(const NativeEngineConfig& config) {
  std::string root = config.cacheDir;
  if (root.empty()) root = envOr("SWCODEGEN_JIT_CACHE_DIR", "");
  if (root.empty()) {
    std::error_code ec;
    fs::path tmp = fs::temp_directory_path(ec);
    if (ec) tmp = "/tmp";
    root = (tmp / strCat("swcodegen-jit-", static_cast<long long>(::getuid())))
               .string();
  }
  return (fs::path(root) / strCat("v", codegen::kNativeHostAbiVersion))
      .string();
}

std::string nativeObjectDigest(const codegen::KernelProgram& program) {
  const std::string source = codegen::printNativeHostSource(program);
  return digestHex(
      fnv1a64(strCat(source, "|abi=", codegen::kNativeHostAbiVersion)));
}

std::string nativeObjectPath(const NativeEngineConfig& config,
                             const std::string& digest) {
  return (fs::path(resolveNativeCacheDir(config)) / (digest + ".so"))
      .string();
}

void resetNativeEngineForTest() {
  std::lock_guard<std::mutex> lock(engineMutex());
  objectTable().clear();
}

NativeRunResult runNative(const codegen::KernelProgram& program,
                          const NativeEngineConfig& config,
                          const NativeRunInput& input) {
  if (input.params.size() != program.params.size())
    throw InputError(strCat("native run expects ", program.params.size(),
                            " params, got ", input.params.size()));
  if (input.arrays.size() != program.arrays.size())
    throw InputError(strCat("native run expects ", program.arrays.size(),
                            " arrays, got ", input.arrays.size()));
  for (double* array : input.arrays)
    if (array == nullptr) throw InputError("native run given a null array");

  NativeRunResult result;
  const LoadedObject loaded = obtainObject(program, config, result.cacheHit);
  result.soPath = loaded.path;

  trace::Span span("jit.run", {trace::arg("kernel", program.name),
                               trace::arg("so", loaded.path)});
  RawCounters raw{};
  const int rc = loaded.run(input.params.data(), input.arrays.data(),
                            input.alpha, input.beta, &raw);
  if (rc != 0)
    unavailable(strCat("sw_native_run returned ", rc, " for '", loaded.path,
                       "'"));
  result.counters.dmaMessages = raw.dmaMessages;
  result.counters.dmaBytes = raw.dmaBytes;
  result.counters.rmaBroadcastsSent = raw.rmaBroadcastsSent;
  result.counters.rmaBytesSent = raw.rmaBytesSent;
  result.counters.syncs = raw.syncs;
  result.counters.microKernelCalls = raw.microKernelCalls;
  result.counters.flops = raw.flops;
  return result;
}

}  // namespace sw::jit
