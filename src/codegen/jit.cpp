#include "codegen/jit.hpp"

#include <dlfcn.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "codegen/artifact_cache.hpp"
#include "codegen/codegen.hpp"

namespace dace::cg {

namespace {
std::atomic<uint64_t> g_jit_compiles{0};
}  // namespace

uint64_t jit_compile_count() {
  return g_jit_compiles.load(std::memory_order_relaxed);
}

namespace detail {

namespace {

// dlopen `so` and resolve `symbol` into `out`.  True when both succeed.
bool load_object(const std::string& so, const std::string& symbol,
                 LoadedObject* out) {
  out->handle = dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!out->handle) return false;
  out->sym = dlsym(out->handle, symbol.c_str());
  if (!out->sym) {
    dlclose(out->handle);
    out->handle = nullptr;
    return false;
  }
  return true;
}

}  // namespace

LoadedObject build_and_load(const std::string& source,
                            const std::string& name,
                            const std::string& symbol,
                            const std::string& compiler,
                            const std::string& opt,
                            uint64_t program_hash,
                            const std::string& dtypes) {
  LoadedObject out;
  auto& cache = cache::ArtifactCache::instance();
  cache::ArtifactCache::KeyInfo ki;
  ki.program_hash = program_hash;
  ki.compiler = compiler;
  ki.flags = opt;
  ki.dtypes = dtypes;
  std::string key;
  if (cache.enabled()) {
    key = cache::ArtifactCache::key_for(source, ki);
    auto h0 = std::chrono::steady_clock::now();
    std::string hit = cache.lookup(key);
    if (!hit.empty()) {
      if (load_object(hit, symbol, &out)) {
        out.cache_hit = true;
        // On a hit, "compile time" is the verify+dlopen latency -- the
        // real cost of making the entry point callable.
        out.compile_seconds = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - h0)
                                  .count();
        return out;
      }
      // Verified bytes that still fail to dlopen/dlsym (e.g. built by an
      // incompatible toolchain, or a renamed entry symbol): drop the
      // entry and rebuild from source.
      cache.invalidate(key);
    }
  }

  // Miss: build in cache-managed scratch space.  make_build_dir() falls
  // back to /tmp when the cache is disabled, and every scratch dir is
  // registered for removal at process exit -- nothing leaks either way.
  std::string dir = cache.make_build_dir();
  if (dir.empty()) return out;
  std::string base = dir + "/" + name;
  std::string cpp = base + ".cpp";
  std::string so = base + ".so";
  {
    std::ofstream f(cpp);
    f << source;
  }
  std::string cmd = compiler + " " + opt + " -fPIC -shared -std=c++17 -o " +
                    so + " " + cpp + " 2>" + base + ".log";
  auto t0 = std::chrono::steady_clock::now();
  g_jit_compiles.fetch_add(1, std::memory_order_relaxed);
  int rc = std::system(cmd.c_str());
  auto t1 = std::chrono::steady_clock::now();
  out.compile_seconds = std::chrono::duration<double>(t1 - t0).count();
  if (rc != 0) {
    cache.release_build_dir(dir);
    return out;
  }

  if (cache.enabled()) {
    // Publish for future processes; failure (ENOSPC, lock timeout,
    // injected fault) only means the cache stays cold.  This process
    // always dlopens the scratch object it just built: the committed
    // copy is *not* trusted here -- a torn write can leave a truncated
    // artifact whose commit looked successful, and mapping it would
    // SIGBUS.  Readers that start from the store (lookup) verify the
    // checksum first; we already hold verified bytes.
    cache.commit(key, so, ki);
  }
  load_object(so, symbol, &out);
  // Linux keeps the mapping alive after unlink, so the scratch dir can
  // go as soon as dlopen returned.
  cache.release_build_dir(dir);
  return out;
}

}  // namespace detail

CompiledProgram::~CompiledProgram() {
  if (handle_) dlclose(handle_);
}

CompiledProgram::CompiledProgram(CompiledProgram&& o) noexcept
    : handle_(o.handle_), fn_(o.fn_), compile_seconds_(o.compile_seconds_) {
  o.handle_ = nullptr;
  o.fn_ = nullptr;
}

CompiledProgram& CompiledProgram::operator=(CompiledProgram&& o) noexcept {
  if (this != &o) {
    if (handle_) dlclose(handle_);
    handle_ = o.handle_;
    fn_ = o.fn_;
    compile_seconds_ = o.compile_seconds_;
    o.handle_ = nullptr;
    o.fn_ = nullptr;
  }
  return *this;
}

CompiledProgram compile(const ir::SDFG& sdfg, const std::string& compiler) {
  CompiledProgram out;
  std::string src = generate(sdfg, Flavor::CPU);
  // Whole-SDFG programs have no bytecode Program; fingerprint the
  // generated source so cache metadata still identifies the build.
  detail::LoadedObject obj =
      detail::build_and_load(src, sdfg.name(), sdfg.name(), compiler, "-O2",
                             cache::fnv1a(src.data(), src.size()));
  out.compile_seconds_ = obj.compile_seconds;
  out.handle_ = obj.handle;
  out.fn_ = reinterpret_cast<CompiledFn>(obj.sym);
  return out;
}

CompiledMapNative::~CompiledMapNative() {
  if (handle_) dlclose(handle_);
}

CompiledMapNative::CompiledMapNative(CompiledMapNative&& o) noexcept
    : handle_(o.handle_), fn_(o.fn_), compile_seconds_(o.compile_seconds_) {
  o.handle_ = nullptr;
  o.fn_ = nullptr;
}

CompiledMapNative& CompiledMapNative::operator=(
    CompiledMapNative&& o) noexcept {
  if (this != &o) {
    if (handle_) dlclose(handle_);
    handle_ = o.handle_;
    fn_ = o.fn_;
    compile_seconds_ = o.compile_seconds_;
    o.handle_ = nullptr;
    o.fn_ = nullptr;
  }
  return *this;
}

CompiledMapNative compile_map_native(const rt::Program& prog,
                                     const std::vector<ir::DType>& dtypes,
                                     const std::string& fn_name,
                                     const std::string& compiler) {
  CompiledMapNative out;
  std::string src = generate_map_source(prog, dtypes, fn_name);
  // Planned kernels carry structured loops, __restrict__ and ivdep
  // annotations the vectorizer can act on -- compile them at -O3 with
  // the host ISA (the same level as hand-written reference kernels).
  // -ffp-contract=off forbids FMA contraction so native results stay
  // bit-identical to the VM's separate multiply/add.  A compiler that
  // rejects the flags just pins the program to Tier 0 (failure is never
  // fatal).
  std::string dtype_list;
  for (size_t i = 0; i < dtypes.size(); ++i) {
    if (i) dtype_list += ',';
    dtype_list += ir::dtype_name(dtypes[i]);
  }
  detail::LoadedObject obj = detail::build_and_load(
      src, fn_name, fn_name, compiler, "-O3 -march=native -ffp-contract=off",
      prog.hash(), dtype_list);
  out.compile_seconds_ = obj.compile_seconds;
  out.handle_ = obj.handle;
  out.fn_ = reinterpret_cast<MapNativeFn>(obj.sym);
  return out;
}

}  // namespace dace::cg
