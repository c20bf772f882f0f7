// Execution-backend subsystem tests: the C++ printer's lowering contract,
// the JIT's bit-exactness and on-disk artifact reuse, the full executor
// bit-identity matrix (5 apps x 4 patterns x 3 variants, native vs
// run_app_reference), the backend.compile fault -> interpreted fallback
// path, and the KernelCache native-module lifecycle (single-flight,
// refcounted eviction, artifact GC, variant canonicalization).
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "codegen/cpp_printer.hpp"
#include "exec/backend.hpp"
#include "exec/jit.hpp"
#include "filters/filters.hpp"
#include "image/generators.hpp"
#include "pipeline/executor.hpp"
#include "pipeline/kernel_cache.hpp"
#include "pipeline/kernel_graph.hpp"
#include "resilience/circuit_breaker.hpp"
#include "resilience/fault_injector.hpp"

namespace ispb {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test JIT artifact directory, removed on scope exit so tests
/// observe real compiles (and leave nothing behind in the system tmp).
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    static std::atomic<int> counter{0};
    path = fs::temp_directory_path() /
           ("ispb-test-exec-" + std::to_string(::getpid()) + "-" + tag + "-" +
            std::to_string(counter.fetch_add(1)));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// -O0 keeps the bilateral TU's compile seconds, not tens of seconds; the
/// emitted float sequence (and thus bit-exactness) is optimization-level
/// independent because contraction is off.
exec::JitConfig fast_jit(const TempDir& dir) {
  return {dir.path.string(), "", "-O0", true};
}

/// Exact bit equality — the native backend's promise, stronger than any
/// tolerance compare (0.0f vs -0.0f included).
bool bit_identical(const Image<f32>& a, const Image<f32>& b) {
  if (a.size() != b.size()) return false;
  for (i32 y = 0; y < a.height(); ++y) {
    for (i32 x = 0; x < a.width(); ++x) {
      if (std::bit_cast<u32>(a(x, y)) != std::bit_cast<u32>(b(x, y))) {
        return false;
      }
    }
  }
  return true;
}

std::vector<const Image<f32>*> bind_inputs(const codegen::StencilSpec& spec,
                                           const Image<f32>& source) {
  return std::vector<const Image<f32>*>(
      static_cast<std::size_t>(spec.num_inputs), &source);
}

TEST(CppPrinter, EmitsExternCEntryAndCanonicalSymbol) {
  const filters::MultiKernelApp app = filters::make_gaussian_app();
  const codegen::StencilSpec& spec = app.stages.front().spec;
  codegen::CodegenOptions isp;
  isp.variant = codegen::Variant::kIsp;
  const std::string sym = codegen::cpp_kernel_symbol(spec, isp);
  const std::string src = codegen::emit_cpp(spec, isp);
  EXPECT_NE(src.find("extern \"C\" void " + sym), std::string::npos) << src;

  // kIspWarp lowers identically to kIsp: same symbol, same TU.
  codegen::CodegenOptions warp = isp;
  warp.variant = codegen::Variant::kIspWarp;
  EXPECT_EQ(codegen::cpp_kernel_symbol(spec, warp), sym);
  EXPECT_EQ(codegen::emit_cpp(spec, warp), src);

  // kNaive is a different function (all-checks loop, own symbol).
  codegen::CodegenOptions naive = isp;
  naive.variant = codegen::Variant::kNaive;
  EXPECT_NE(codegen::cpp_kernel_symbol(spec, naive), sym);
  EXPECT_NE(codegen::emit_cpp(spec, naive), src);

  // kIspTiled stages the Body through a local tile buffer: own symbol, own
  // TU, and the staging loop is visible in the emitted source.
  codegen::CodegenOptions tiled = isp;
  tiled.variant = codegen::Variant::kIspTiled;
  const std::string tiled_sym = codegen::cpp_kernel_symbol(spec, tiled);
  const std::string tiled_src = codegen::emit_cpp(spec, tiled);
  EXPECT_NE(tiled_sym, sym);
  EXPECT_NE(tiled_src, src);
  EXPECT_NE(tiled_src.find("extern \"C\" void " + tiled_sym), std::string::npos)
      << tiled_src;
  EXPECT_NE(tiled_src.find("tile["), std::string::npos) << tiled_src;
}

TEST(Jit, CompilesBitExactKernelAndReusesDiskArtifact) {
  const TempDir dir("jit");
  const filters::MultiKernelApp app = filters::make_gaussian_app();
  const codegen::StencilSpec& spec = app.stages.front().spec;
  codegen::CodegenOptions opt;
  opt.variant = codegen::Variant::kIsp;
  const Image<f32> source = make_noise_image({40, 40}, 7);
  const auto inputs = bind_inputs(spec, source);

  const exec::NativeModulePtr module = exec::jit_compile(spec, opt, fast_jit(dir));
  Image<f32> out(source.size());
  (void)exec::run_native_module(*module, inputs, out);
  const Image<f32> reference =
      dsl::run_reference(spec, opt.pattern, opt.border_constant, inputs);
  EXPECT_TRUE(bit_identical(out, reference));

  // Same source hash in the same directory: the second compile dlopens the
  // existing .so instead of re-running the toolchain (mtime unchanged).
  const fs::path artifact = module->artifact_path();
  ASSERT_TRUE(fs::exists(artifact));
  const auto mtime = fs::last_write_time(artifact);
  const exec::NativeModulePtr again = exec::jit_compile(spec, opt, fast_jit(dir));
  EXPECT_EQ(again->artifact_path(), module->artifact_path());
  EXPECT_EQ(fs::last_write_time(artifact), mtime);
}

// The acceptance matrix: every app, every border pattern, every variant —
// the native executor output is bit-identical to run_app_reference, no
// stage falls back to the interpreter. One shared cache (and artifact dir)
// keeps this to one JIT compile per (stage, pattern, canonical variant).
TEST(ExecutorNative, BitIdenticalToReferenceAcrossAppsPatternsVariants) {
  const TempDir dir("matrix");
  pipeline::KernelCache cache(256);
  cache.set_jit(fast_jit(dir));
  const Image<f32> source = make_noise_image({40, 40}, 42);

  for (const filters::MultiKernelApp& app : filters::all_apps()) {
    const pipeline::KernelGraph graph = pipeline::build_graph(app);
    for (BorderPattern pattern : kAllBorderPatterns) {
      const Image<f32> reference =
          filters::run_app_reference(app, source, pattern);
      for (codegen::Variant variant :
           {codegen::Variant::kNaive, codegen::Variant::kIsp,
            codegen::Variant::kIspWarp, codegen::Variant::kIspTiled}) {
        pipeline::ExecutorConfig cfg;
        cfg.sim.pattern = pattern;
        cfg.sim.variant = variant;
        cfg.cache = &cache;
        cfg.backend = exec::Backend::kNative;
        const pipeline::PipelineExecutor executor(cfg);
        const pipeline::ExecutorResult result = executor.run(graph, source);
        const std::string combo = app.name + "/" +
                                  std::string(to_string(pattern)) + "/" +
                                  std::string(codegen::to_string(variant));
        EXPECT_TRUE(bit_identical(result.output, reference)) << combo;
        for (const auto& stage : result.stages) {
          EXPECT_EQ(stage.backend_used, exec::Backend::kNative)
              << combo << " stage " << stage.kernel;
          EXPECT_FALSE(stage.backend_fallback)
              << combo << " stage " << stage.kernel;
        }
      }
    }
  }
  // Nothing in the matrix ever fell back, so every native lookup resolved.
  const pipeline::KernelCacheStats stats = cache.stats();
  EXPECT_GT(stats.native_misses, 0u);
  EXPECT_GT(stats.native_hits, 0u);
}

// The interpreted side of the tiled acceptance matrix: the simulator runs
// the staged smem program (ld.shared/st.shared/bar.sync) for every app and
// border pattern and still lands bit-identical on the reference. Together
// with the native matrix above this covers kIspTiled on both backends.
TEST(ExecutorInterpreted, TiledBitIdenticalToReferenceAcrossAppsPatterns) {
  pipeline::KernelCache cache(256);
  const Image<f32> source = make_noise_image({40, 40}, 42);

  for (const filters::MultiKernelApp& app : filters::all_apps()) {
    const pipeline::KernelGraph graph = pipeline::build_graph(app);
    for (BorderPattern pattern : kAllBorderPatterns) {
      const Image<f32> reference =
          filters::run_app_reference(app, source, pattern);
      pipeline::ExecutorConfig cfg;
      cfg.sim.pattern = pattern;
      cfg.sim.variant = codegen::Variant::kIspTiled;
      cfg.cache = &cache;
      cfg.backend = exec::Backend::kInterpreted;
      const pipeline::PipelineExecutor executor(cfg);
      const pipeline::ExecutorResult result = executor.run(graph, source);
      const std::string combo =
          app.name + "/" + std::string(to_string(pattern));
      EXPECT_TRUE(bit_identical(result.output, reference)) << combo;
      for (const auto& stage : result.stages) {
        EXPECT_EQ(stage.backend_used, exec::Backend::kInterpreted)
            << combo << " stage " << stage.kernel;
        EXPECT_EQ(stage.variant_used, codegen::Variant::kIspTiled)
            << combo << " stage " << stage.kernel;
      }
    }
  }
}

TEST(ExecutorNative, DegenerateGeometryServesAllChecksNaive) {
  const TempDir dir("degen");
  pipeline::KernelCache cache;
  cache.set_jit(fast_jit(dir));
  // bilateral13 has radius 6: an 8x8 image is smaller than twice the radius,
  // the partition would overlap, and the emitted degenerate branch serves
  // the all-checks loop — same contract as launch_on_sim's naive fallback.
  const filters::MultiKernelApp app = filters::make_bilateral_app();
  const pipeline::KernelGraph graph = pipeline::build_graph(app);
  const Image<f32> source = make_noise_image({8, 8}, 3);

  pipeline::ExecutorConfig cfg;
  cfg.sim.variant = codegen::Variant::kIsp;
  cfg.cache = &cache;
  cfg.backend = exec::Backend::kNative;
  const pipeline::PipelineExecutor executor(cfg);
  const pipeline::ExecutorResult result = executor.run(graph, source);

  const Image<f32> reference =
      filters::run_app_reference(app, source, BorderPattern::kClamp);
  EXPECT_TRUE(bit_identical(result.output, reference));
  ASSERT_EQ(result.stages.size(), 1u);
  EXPECT_EQ(result.stages[0].variant_used, codegen::Variant::kNaive);
  EXPECT_EQ(result.stages[0].backend_used, exec::Backend::kNative);
  EXPECT_FALSE(result.stages[0].backend_fallback);
}

// Satellite: a failing native toolchain (backend.compile kThrow, p=1) must
// circuit-break to the interpreted engine with bit-identical output and
// leave no temp files in the artifact directory.
TEST(ExecutorNative, CompileFaultFallsBackToInterpreted) {
  const TempDir dir("fault");
  pipeline::KernelCache cache;
  cache.set_jit(fast_jit(dir));
  resilience::FaultPlan plan;
  plan.rules.push_back(
      {"backend.compile", resilience::FaultKind::kThrow, "", 1.0, 0, 0});
  resilience::FaultInjector injector(plan);
  const resilience::FaultInjector::ScopedInstall install(injector);
  resilience::BreakerRegistry breakers;

  const filters::MultiKernelApp app = filters::make_gaussian_app();
  const pipeline::KernelGraph graph = pipeline::build_graph(app);
  const Image<f32> source = make_noise_image({24, 24}, 9);

  pipeline::ExecutorConfig cfg;
  cfg.sim.variant = codegen::Variant::kIsp;
  cfg.cache = &cache;
  cfg.backend = exec::Backend::kNative;
  cfg.breakers = &breakers;
  const pipeline::PipelineExecutor executor(cfg);
  const pipeline::ExecutorResult result = executor.run(graph, source);

  const Image<f32> reference =
      filters::run_app_reference(app, source, BorderPattern::kClamp);
  EXPECT_TRUE(bit_identical(result.output, reference));
  ASSERT_EQ(result.stages.size(), 1u);
  EXPECT_TRUE(result.stages[0].backend_fallback);
  EXPECT_EQ(result.stages[0].backend_used, exec::Backend::kInterpreted);

  // The fault fires before the JIT touches the filesystem and real failures
  // unlink their temporaries — the artifact directory stays empty.
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    ADD_FAILURE() << "orphaned JIT file: " << entry.path();
  }

  // Every native attempt of the run went through the fault point.
  u64 thrown = 0;
  for (const auto& c : injector.counters()) {
    if (c.point == "backend.compile") thrown = c.thrown;
  }
  EXPECT_GT(thrown, 0u);
}

// Satellite: single-flight under an 8-thread hammer — exactly one JIT
// compile, everyone else waits on (or hits) the same shared module.
TEST(KernelCacheNative, SingleFlightUnderThreadHammer) {
  const TempDir dir("flight");
  pipeline::KernelCache cache;
  cache.set_jit(fast_jit(dir));
  const filters::MultiKernelApp app = filters::make_gaussian_app();
  const codegen::StencilSpec& spec = app.stages.front().spec;
  codegen::CodegenOptions opt;
  opt.variant = codegen::Variant::kIsp;

  constexpr int kThreads = 8;
  std::vector<exec::NativeModulePtr> got(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      got[static_cast<std::size_t>(t)] = cache.get_or_compile_native(spec, opt);
    });
  }
  for (std::thread& th : threads) th.join();

  for (const exec::NativeModulePtr& m : got) {
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m.get(), got[0].get());
  }
  const pipeline::KernelCacheStats stats = cache.stats();
  EXPECT_EQ(stats.native_misses, 1u);
  EXPECT_EQ(stats.native_hits + stats.native_coalesced, 7u);
}

// The device is not part of the native key: a second device target finds
// the module the first one filled.
TEST(KernelCacheNative, OneModuleForEveryDevice) {
  const TempDir dir("device");
  pipeline::KernelCache cache;
  cache.set_jit(fast_jit(dir));
  const filters::MultiKernelApp app = filters::make_gaussian_app();
  const codegen::StencilSpec& spec = app.stages.front().spec;
  codegen::CodegenOptions opt;
  opt.variant = codegen::Variant::kIsp;

  const exec::NativeModulePtr gtx =
      cache.get_or_compile_native(spec, opt, "GTX680");
  const exec::NativeModulePtr rtx =
      cache.get_or_compile_native(spec, opt, "RTX2080");
  ASSERT_NE(gtx, nullptr);
  EXPECT_EQ(gtx.get(), rtx.get());
  const pipeline::KernelCacheStats stats = cache.stats();
  EXPECT_EQ(stats.native_misses, 1u);
  EXPECT_EQ(stats.native_hits, 1u);
  EXPECT_EQ(cache.native_size(), 1u);
}

// Satellite: LRU eviction only drops the cache's shared_ptr — a module an
// executor still holds stays dlopened (and runnable) until the last
// reference goes, then dlcloses.
TEST(KernelCacheNative, EvictionKeepsInUseModuleLoaded) {
  const TempDir dir("evict");
  pipeline::KernelCache cache(/*capacity=*/1);
  cache.set_jit(fast_jit(dir));
  const filters::MultiKernelApp gauss = filters::make_gaussian_app();
  const filters::MultiKernelApp laplace = filters::make_laplace_app();
  const codegen::StencilSpec& spec_a = gauss.stages.front().spec;
  codegen::CodegenOptions opt;
  opt.variant = codegen::Variant::kIsp;

  const i64 base = exec::NativeModule::open_count();
  exec::NativeModulePtr a = cache.get_or_compile_native(spec_a, opt);
  EXPECT_EQ(exec::NativeModule::open_count(), base + 1);
  const exec::NativeModulePtr b =
      cache.get_or_compile_native(laplace.stages.front().spec, opt);
  EXPECT_EQ(cache.stats().native_evictions, 1u);
  EXPECT_EQ(cache.native_size(), 1u);
  // Evicted from the cache, but our reference keeps it dlopened...
  EXPECT_EQ(exec::NativeModule::open_count(), base + 2);

  // ...and still correct to run.
  const Image<f32> source = make_noise_image({16, 16}, 1);
  const auto inputs = bind_inputs(spec_a, source);
  Image<f32> out(source.size());
  (void)exec::run_native_module(*a, inputs, out);
  const Image<f32> reference =
      dsl::run_reference(spec_a, opt.pattern, opt.border_constant, inputs);
  EXPECT_TRUE(bit_identical(out, reference));

  a.reset();  // last reference: the handle dlcloses now
  EXPECT_EQ(exec::NativeModule::open_count(), base + 1);
}

// Satellite: gc_native_artifacts removes stale unreferenced artifacts,
// keeps live ones and anything inside the 60 s grace window.
TEST(KernelCacheNative, GcRemovesStaleKeepsLiveAndRecent) {
  const TempDir dir("gc");
  pipeline::KernelCache cache;
  cache.set_jit(fast_jit(dir));
  const filters::MultiKernelApp app = filters::make_gaussian_app();
  codegen::CodegenOptions opt;
  opt.variant = codegen::Variant::kIsp;
  const exec::NativeModulePtr module =
      cache.get_or_compile_native(app.stages.front().spec, opt);
  const fs::path live = module->artifact_path();

  // A dead artifact from a previous process, aged past the grace window.
  const fs::path stale = dir.path / "ispb_dead_kernel.0123456789abcdef.so";
  { std::ofstream(stale) << "stale"; }
  fs::last_write_time(stale,
                      fs::file_time_type::clock::now() - std::chrono::minutes(5));
  // An unknown but fresh file (a concurrent compile in flight): kept.
  const fs::path recent = dir.path / "ispb_inflight_kernel.ffff.so";
  { std::ofstream(recent) << "fresh"; }

  EXPECT_EQ(cache.gc_native_artifacts(), 1u);
  EXPECT_FALSE(fs::exists(stale));
  EXPECT_TRUE(fs::exists(live));
  EXPECT_TRUE(fs::exists(recent));
}

// Regression: GC must not delete an artifact a concurrent fill is about to
// disk-warm-reuse. Scenario: the module was evicted from the LRU (so the
// live-module scan misses it) and its .so has aged past the grace window —
// exactly the state after a fleet failover re-compiles a kernel whose
// device sat quarantined for a while. The fill pins its expected stem
// before touching the JIT; gc_native_artifacts running inside the fill's
// window must keep the file.
TEST(KernelCacheNative, GcKeepsArtifactPinnedByInFlightFill) {
  const TempDir dir("gcpin");
  pipeline::KernelCache cache;
  cache.set_jit(fast_jit(dir));
  const filters::MultiKernelApp app = filters::make_gaussian_app();
  const codegen::StencilSpec& spec = app.stages.front().spec;
  codegen::CodegenOptions opt;
  opt.variant = codegen::Variant::kIsp;

  fs::path artifact;
  {
    const exec::NativeModulePtr first = cache.get_or_compile_native(spec, opt);
    artifact = first->artifact_path();
  }
  cache.clear();  // LRU forgets the module; only the .so remains on disk
  fs::last_write_time(
      artifact, fs::file_time_type::clock::now() - std::chrono::minutes(2));
  ASSERT_TRUE(fs::exists(artifact));

  // Hold the re-compiling fill open mid-flight: jit_compile's entry fault
  // point sleeps on the wall clock while the main thread runs the GC.
  resilience::FaultPlan plan;
  plan.seed = 5;
  plan.rules.push_back({"backend.compile", resilience::FaultKind::kDelay, "",
                        1.0, /*max_fires=*/1, /*delay_ms=*/400});
  resilience::FaultInjector injector(plan);
  resilience::FaultInjector::ScopedInstall install(injector);

  exec::NativeModulePtr refilled;
  std::thread fill([&] { refilled = cache.get_or_compile_native(spec, opt); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // Without the in-flight pin this would count the aged .so as dead.
  EXPECT_EQ(cache.gc_native_artifacts(), 0u);
  EXPECT_TRUE(fs::exists(artifact));
  fill.join();

  ASSERT_NE(refilled, nullptr);
  EXPECT_EQ(refilled->artifact_path(), artifact.string());
  // The fill disk-warm-reused the artifact instead of recompiling (a
  // recompile would have rewritten it, refreshing the mtime) — proving the
  // GC race window (exists-check -> dlopen) stayed closed.
  EXPECT_LT(fs::last_write_time(artifact),
            fs::file_time_type::clock::now() - std::chrono::minutes(1));

  // Once the fill publishes, the pin is released: after the module and the
  // cache entry go away, the same aged artifact is collectable again.
  refilled.reset();
  cache.clear();
  fs::last_write_time(
      artifact, fs::file_time_type::clock::now() - std::chrono::minutes(2));
  EXPECT_EQ(cache.gc_native_artifacts(), 1u);
  EXPECT_FALSE(fs::exists(artifact));
}

// Satellite: the native cache key canonicalizes variants that lower
// identically — kIspWarp is a hit on kIsp's module; kNaive is its own.
TEST(KernelCacheNative, IspWarpSharesIspModule) {
  const TempDir dir("canon");
  pipeline::KernelCache cache;
  cache.set_jit(fast_jit(dir));
  const filters::MultiKernelApp app = filters::make_gaussian_app();
  const codegen::StencilSpec& spec = app.stages.front().spec;
  codegen::CodegenOptions isp;
  isp.variant = codegen::Variant::kIsp;
  codegen::CodegenOptions warp = isp;
  warp.variant = codegen::Variant::kIspWarp;
  codegen::CodegenOptions naive = isp;
  naive.variant = codegen::Variant::kNaive;

  const exec::NativeModulePtr m_isp = cache.get_or_compile_native(spec, isp);
  const exec::NativeModulePtr m_warp = cache.get_or_compile_native(spec, warp);
  EXPECT_EQ(m_isp.get(), m_warp.get());
  EXPECT_EQ(cache.stats().native_misses, 1u);
  EXPECT_EQ(cache.stats().native_hits, 1u);

  const exec::NativeModulePtr m_naive = cache.get_or_compile_native(spec, naive);
  EXPECT_NE(m_naive.get(), m_isp.get());
  EXPECT_EQ(cache.stats().native_misses, 2u);

  // kIspTiled does NOT canonicalize onto isp: the tiled Body is a genuinely
  // different lowering, so it compiles (and caches) its own module, and the
  // key is specialized by tile shape.
  codegen::CodegenOptions tiled = isp;
  tiled.variant = codegen::Variant::kIspTiled;
  const exec::NativeModulePtr m_tiled = cache.get_or_compile_native(spec, tiled);
  EXPECT_NE(m_tiled.get(), m_isp.get());
  EXPECT_EQ(cache.stats().native_misses, 3u);

  codegen::CodegenOptions tiled_8x8 = tiled;
  tiled_8x8.tile_block = {8, 8};
  const exec::NativeModulePtr m_8x8 = cache.get_or_compile_native(spec, tiled_8x8);
  EXPECT_NE(m_8x8.get(), m_tiled.get());
  EXPECT_EQ(cache.stats().native_misses, 4u);
}

TEST(Backend, ParseAndToStringRoundTrip) {
  EXPECT_EQ(exec::parse_backend("interp"), exec::Backend::kInterpreted);
  EXPECT_EQ(exec::parse_backend("native"), exec::Backend::kNative);
  EXPECT_FALSE(exec::parse_backend("cuda").has_value());
  EXPECT_FALSE(exec::parse_backend("").has_value());
  for (exec::Backend b : {exec::Backend::kInterpreted, exec::Backend::kNative}) {
    EXPECT_EQ(exec::parse_backend(exec::to_string(b)), b);
  }
}

TEST(Backend, BothEnginesRejectTheSameGeometry) {
  // One geometry contract (dsl::validate_geometry) on both engines: a
  // backend switch can never turn a ContractError into silent corruption.
  const TempDir dir("geometry");
  exec::InterpretedBackend interp;
  exec::NativeBackend native(nullptr, fast_jit(dir));
  const sim::DeviceSpec device = sim::make_gtx680();
  codegen::CodegenOptions options;
  options.pattern = BorderPattern::kMirror;

  // Mirror with a window radius (5) beyond the 3x3 image.
  codegen::SpecBuilder wide_builder("wide");
  const codegen::StencilSpec wide =
      wide_builder.finish(wide_builder.read(0, -5, 0));
  const Image<f32> tiny(3, 3);
  Image<f32> tiny_out(3, 3);
  const Image<f32>* tiny_inputs[] = {&tiny};

  // Input 8x8 feeding a 9x9 output.
  codegen::SpecBuilder point_builder("point");
  const codegen::StencilSpec point =
      point_builder.finish(point_builder.read(0, 0, 0));
  const Image<f32> small(8, 8);
  Image<f32> larger_out(9, 9);
  const Image<f32>* small_inputs[] = {&small};

  for (exec::ExecutionBackend* backend :
       std::initializer_list<exec::ExecutionBackend*>{&interp, &native}) {
    SCOPED_TRACE(std::string(exec::to_string(backend->kind())));
    EXPECT_THROW((void)backend->run(wide, options, device, tiny_inputs,
                                    tiny_out, BlockSize{32, 4}, false),
                 ContractError);
    EXPECT_THROW((void)backend->run(point, options, device, small_inputs,
                                    larger_out, BlockSize{32, 4}, false),
                 ContractError);
  }
}

}  // namespace
}  // namespace ispb
