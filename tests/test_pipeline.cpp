// Pipeline runtime: kernel cache (single-flight, LRU, metrics), kernel
// graph derivation, inline executor equivalence against the CPU reference,
// and the batched serving front-end (overflow, deadlines, drain-on-shutdown).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "filters/filters.hpp"
#include "image/compare.hpp"
#include "image/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/executor.hpp"
#include "pipeline/kernel_cache.hpp"
#include "pipeline/kernel_graph.hpp"
#include "pipeline/server.hpp"
#include "resilience/fault_injector.hpp"

namespace ispb {
namespace {

using codegen::CodegenOptions;
using codegen::Variant;

CodegenOptions opts(Variant variant,
                    BorderPattern pattern = BorderPattern::kClamp) {
  CodegenOptions o;
  o.pattern = pattern;
  o.variant = variant;
  return o;
}

// ---- fingerprint / key ------------------------------------------------------

TEST(SpecFingerprint, StableAcrossIndependentTraces) {
  const u64 a = pipeline::spec_fingerprint(filters::gaussian_spec(3));
  const u64 b = pipeline::spec_fingerprint(filters::gaussian_spec(3));
  EXPECT_EQ(a, b);
}

TEST(SpecFingerprint, DistinguishesSpecs) {
  const u64 g3 = pipeline::spec_fingerprint(filters::gaussian_spec(3));
  const u64 g5 = pipeline::spec_fingerprint(filters::gaussian_spec(5));
  const u64 l5 = pipeline::spec_fingerprint(filters::laplace_spec(5));
  EXPECT_NE(g3, g5);
  EXPECT_NE(g5, l5);
}

TEST(CacheKey, CoversOptionsAndDevice) {
  const auto spec = filters::gaussian_spec(3);
  const std::string base = pipeline::cache_key(spec, opts(Variant::kIsp), "");
  EXPECT_NE(base, pipeline::cache_key(spec, opts(Variant::kNaive), ""));
  EXPECT_NE(base, pipeline::cache_key(
                      spec, opts(Variant::kIsp, BorderPattern::kMirror), ""));
}

// Compilation never sees the device, so neither does the key: every device
// target of a server shares one entry per kernel.
TEST(CacheKey, DeviceIsNotPartOfTheKey) {
  const auto spec = filters::gaussian_spec(3);
  const CodegenOptions o = opts(Variant::kIsp);
  EXPECT_EQ(pipeline::cache_key(spec, o, "GTX680"),
            pipeline::cache_key(spec, o, ""));
  EXPECT_EQ(pipeline::cache_key(spec, o, "rtx2080"),
            pipeline::cache_key(spec, o));
}

// ---- cache hit/miss/LRU -----------------------------------------------------

TEST(KernelCache, HitMissAndLruEviction) {
  pipeline::KernelCache cache(/*capacity=*/2);
  const auto gauss = filters::gaussian_spec(3);
  const auto laplace = filters::laplace_spec(5);
  const auto sobel = filters::sobel_dx_spec();
  const CodegenOptions o = opts(Variant::kNaive);

  const auto g1 = cache.get_or_compile(gauss, o);    // miss
  const auto l1 = cache.get_or_compile(laplace, o);  // miss
  const auto g2 = cache.get_or_compile(gauss, o);    // hit, gauss -> MRU
  EXPECT_EQ(g1.get(), g2.get());

  (void)cache.get_or_compile(sobel, o);  // miss, evicts laplace (LRU)
  pipeline::KernelCacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);

  const auto l2 = cache.get_or_compile(laplace, o);  // recompiled
  EXPECT_NE(l1.get(), l2.get());
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_NEAR(cache.stats().hit_rate(), 1.0 / 5.0, 1e-12);
}

TEST(KernelCache, ClearDropsEntriesAndResetsCounters) {
  pipeline::KernelCache cache;
  const CodegenOptions o = opts(Variant::kNaive);
  (void)cache.get_or_compile(filters::gaussian_spec(3), o);
  (void)cache.get_or_compile(filters::gaussian_spec(3), o);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  (void)cache.get_or_compile(filters::gaussian_spec(3), o);
  EXPECT_EQ(cache.stats().misses, 1u);
}

// The single-flight contract under real contention: many pool workers ask
// for the same missing key at once; exactly one compile may happen.
TEST(KernelCache, SingleFlightUnderContention) {
  pipeline::KernelCache cache;
  const auto spec = filters::bilateral_spec(13);  // expensive: a wide window
  const CodegenOptions o = opts(Variant::kIsp);

  constexpr int kRequests = 64;
  std::vector<pipeline::KernelCache::KernelPtr> results(kRequests);
  {
    ThreadPool pool(8);
    for (int i = 0; i < kRequests; ++i) {
      pool.submit([&cache, &spec, &o, &results, i] {
        results[static_cast<std::size_t>(i)] = cache.get_or_compile(spec, o);
      });
    }
    pool.wait_idle();
  }

  const pipeline::KernelCacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 1u) << "a key must never be compiled twice";
  EXPECT_EQ(s.hits + s.coalesced, static_cast<u64>(kRequests - 1));
  for (const auto& r : results) {
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r.get(), results[0].get()) << "all callers share one kernel";
  }
}

TEST(KernelCache, PublishesMetricsWhenRegistryInstalled) {
  obs::MetricsRegistry reg;
  obs::MetricsRegistry::ScopedInstall install(reg);
  pipeline::KernelCache cache;
  const CodegenOptions o = opts(Variant::kNaive);
  (void)cache.get_or_compile(filters::gaussian_spec(3), o);
  (void)cache.get_or_compile(filters::gaussian_spec(3), o);
  EXPECT_EQ(reg.value("pipeline.cache.misses"), 1.0);
  EXPECT_EQ(reg.value("pipeline.cache.hits"), 1.0);
  EXPECT_EQ(reg.value("pipeline.cache.size"), 1.0);
}

// ---- graph derivation -------------------------------------------------------

TEST(KernelGraph, SobelExposesParallelBranches) {
  const pipeline::KernelGraph g = pipeline::build_graph(filters::make_sobel_app());
  ASSERT_EQ(g.stages.size(), 3u);
  g.validate();
  // dx and dy both read only the source; the magnitude joins their outputs.
  EXPECT_EQ(g.stages[0].input_images, (std::vector<i32>{0}));
  EXPECT_EQ(g.stages[1].input_images, (std::vector<i32>{0}));
  EXPECT_EQ(g.stages[2].input_images, (std::vector<i32>{1, 2}));
  EXPECT_EQ(g.image_count(), 4);
}

TEST(KernelGraph, NightIsAPureChain) {
  const pipeline::KernelGraph g = pipeline::build_graph(filters::make_night_app());
  ASSERT_EQ(g.stages.size(), 5u);
  g.validate();
  // Stage i reads image i: the source for stage 0, stage i - 1's output after.
  for (std::size_t i = 0; i < g.stages.size(); ++i) {
    EXPECT_EQ(g.stages[i].input_images, (std::vector<i32>{static_cast<i32>(i)}));
  }
}

TEST(KernelGraph, SingleKernelAppsAreSingleNodes) {
  for (const char* name : {"gaussian", "laplace", "bilateral"}) {
    for (const auto& app : filters::all_apps()) {
      if (app.name != name) continue;
      const pipeline::KernelGraph g = pipeline::build_graph(app);
      ASSERT_EQ(g.stages.size(), 1u) << name;
      EXPECT_EQ(g.stages[0].input_images, (std::vector<i32>{0})) << name;
    }
  }
}

TEST(KernelGraph, ValidateRejectsForwardReferences) {
  pipeline::KernelGraph g = pipeline::build_graph(filters::make_sobel_app());
  g.stages[0].input_images = {3};  // stage 0 cannot read stage 2's output
  EXPECT_THROW(g.validate(), ContractError);
}

// ---- executor equivalence ---------------------------------------------------

/// The system-level bar: the executor must produce bit-identical output to
/// the CPU reference for every app and border pattern.
TEST(PipelineExecutor, MatchesReferenceForAllAppsAndPatterns) {
  const Size2 size{48, 48};  // >= 2 * radius 8 so Mirror accepts atrous17
  const auto src = make_gradient_image(size);
  for (const auto& app : filters::all_apps()) {
    const auto graph = pipeline::build_graph(app);
    for (BorderPattern pattern :
         {BorderPattern::kClamp, BorderPattern::kMirror,
          BorderPattern::kRepeat, BorderPattern::kConstant}) {
      const f32 constant = 16.25f;
      const Image<f32> expect =
          filters::run_app_reference(app, src, pattern, constant);

      pipeline::ExecutorConfig cfg;
      cfg.sim.pattern = pattern;
      cfg.sim.constant = constant;
      const pipeline::PipelineExecutor exec(cfg);
      const pipeline::ExecutorResult result = exec.run(graph, src);

      const CompareResult diff = compare(result.output, expect);
      EXPECT_EQ(diff.max_abs, 0.0)
          << app.name << "/" << to_string(pattern) << " worst at "
          << diff.worst;
      EXPECT_EQ(result.stages.size(), app.stages.size());
    }
  }
}

// Sobel's two independent branches run inline, one after the other, and
// land bit-identical on the reference, reported in graph stage order.
TEST(PipelineExecutor, ConcurrentSobelMatchesInline) {
  const Size2 size{64, 48};
  const auto app = filters::make_sobel_app();
  const auto src = make_noise_image(size, 11);
  const auto graph = pipeline::build_graph(app);

  const auto out = pipeline::PipelineExecutor().run(graph, src);
  const Image<f32> expect =
      filters::run_app_reference(app, src, BorderPattern::kClamp);
  EXPECT_EQ(compare(out.output, expect).max_abs, 0.0);
  ASSERT_EQ(out.stages.size(), 3u);
  for (std::size_t i = 0; i < out.stages.size(); ++i) {
    EXPECT_EQ(out.stages[i].kernel, graph.stages[i].spec.name);
    EXPECT_GT(out.stages[i].regs_per_thread, 0) << out.stages[i].kernel;
  }
}

// The executor owns no threads: every stage of a run — both Sobel roots
// included — launches on the thread that called run().
TEST(PipelineExecutor, RunsStagesOnTheCallingThread) {
  const auto graph = pipeline::build_graph(filters::make_sobel_app());
  const auto src = make_gradient_image({32, 32});

  obs::TraceSession::start();
  {
    obs::ScopedSpan caller("test.caller", "test");
    (void)pipeline::PipelineExecutor(pipeline::ExecutorConfig{}).run(graph,
                                                                      src);
  }
  const std::vector<obs::TraceEvent> events = obs::TraceSession::stop();

  const auto caller = std::find_if(
      events.begin(), events.end(),
      [](const obs::TraceEvent& ev) { return ev.name == "test.caller"; });
  ASSERT_NE(caller, events.end());
  int launches = 0;
  for (const obs::TraceEvent& ev : events) {
    if (ev.name.rfind("sim.launch", 0) != 0) continue;
    ++launches;
    EXPECT_EQ(ev.tid, caller->tid) << ev.name << " left the calling thread";
  }
  EXPECT_EQ(launches, 3);  // dx, dy, magnitude
}

// A failing stage propagates as an exception and later stages stay unrun:
// atrous17 (radius 8) under Mirror on a 6x6 image fails, so neither the
// independent gaussian stage nor the join after it is ever attempted.
TEST(PipelineExecutor, BranchFailurePropagatesWithoutDeadlock) {
  pipeline::KernelGraph g;
  g.name = "failing-branch";
  g.stages.push_back({filters::atrous_spec(17), {0}});
  g.stages.push_back({filters::gaussian_spec(3), {0}});
  g.stages.push_back({filters::sobel_magnitude_spec(), {1, 2}});

  // An empty plan fires nothing but counts every stage attempt.
  resilience::FaultInjector injector(resilience::FaultPlan{});
  const resilience::FaultInjector::ScopedInstall install(injector);

  const auto src = make_gradient_image({6, 6});
  pipeline::ExecutorConfig cfg;
  cfg.sim.pattern = BorderPattern::kMirror;
  const pipeline::PipelineExecutor exec(cfg);
  EXPECT_ANY_THROW((void)exec.run(g, src));

  const auto counters = injector.counters();
  const auto stage = std::find_if(
      counters.begin(), counters.end(),
      [](const auto& c) { return c.point == "executor.stage"; });
  ASSERT_NE(stage, counters.end());
  EXPECT_EQ(stage->evaluated, 1u) << "a stage ran after the failing one";
}

// ---- executor on the global kernel cache -----------------------------------

// An executor with no cache of its own compiles through the process-wide
// KernelCache — a second identical run compiles nothing, observable purely
// via cache-counter deltas.
TEST(RunAppSimulated, ReusesGlobalKernelCache) {
  const auto app = filters::make_sobel_app();
  const auto src = make_gradient_image({32, 32});
  filters::AppSimConfig cfg;
  cfg.sampled = true;
  // A constant nobody else uses keys these compiles uniquely, isolating the
  // deltas from other tests sharing the global cache.
  cfg.pattern = BorderPattern::kConstant;
  cfg.constant = 123.5f;

  const pipeline::PipelineExecutor exec(pipeline::ExecutorConfig{.sim = cfg});
  const pipeline::KernelGraph graph = pipeline::build_graph(app);

  pipeline::KernelCache& cache = pipeline::KernelCache::global();
  const auto before = cache.stats();
  (void)exec.run(graph, src);
  const auto after_first = cache.stats();
  // dx, dy, magnitude, plus the naive twins of dx and dy: one 32-wide block
  // spans the image, so their ISP partition is degenerate.
  EXPECT_EQ(after_first.misses - before.misses, 5u);

  (void)exec.run(graph, src);
  const auto after_second = cache.stats();
  EXPECT_EQ(after_second.misses, after_first.misses) << "second run recompiled";
  EXPECT_EQ(after_second.hits - after_first.hits, 5u);
}

// A 6x6 image is narrower than one 32x4 block, so the ISP partition is
// degenerate and every launch runs the naive twin. The twin comes from the
// cache under the ISP kernel's key with variant kNaive: the first run fills
// both entries, the second compiles nothing and gives the same pixels.
TEST(PipelineExecutor, DegenerateFallbackFetchesNaiveTwinFromCache) {
  const auto app = filters::make_gaussian_app();
  const auto graph = pipeline::build_graph(app);
  const auto src = make_noise_image({6, 6}, 5);
  pipeline::KernelCache cache;
  pipeline::ExecutorConfig cfg;
  cfg.sim.variant = Variant::kIsp;
  cfg.cache = &cache;
  const pipeline::PipelineExecutor exec(cfg);

  const pipeline::ExecutorResult first = exec.run(graph, src);
  const u64 misses = cache.stats().misses;
  EXPECT_EQ(misses, 2u);  // the ISP kernel and its naive twin
  const pipeline::ExecutorResult second = exec.run(graph, src);
  EXPECT_EQ(cache.stats().misses, misses) << "second run recompiled";
  EXPECT_EQ(compare(first.output, second.output).max_abs, 0.0);
  EXPECT_EQ(compare(second.output, filters::run_app_reference(
                                       app, src, BorderPattern::kClamp))
                .max_abs,
            0.0);
  ASSERT_EQ(second.stages.size(), 1u);
  EXPECT_EQ(second.stages[0].variant_used, Variant::kNaive);

  // The backend under the executor reports the fallback as degenerate.
  Image<f32> out(src.size());
  const Image<f32>* inputs[] = {&src};
  const exec::BackendRun run = exec::InterpretedBackend(&cache).run(
      graph.stages[0].spec, opts(Variant::kIsp), cfg.sim.device, inputs, out,
      cfg.sim.block, false);
  EXPECT_TRUE(run.degenerate_fallback);
  EXPECT_EQ(run.variant_used, Variant::kNaive);
  EXPECT_EQ(cache.stats().misses, misses);
  EXPECT_EQ(compare(out, second.output).max_abs, 0.0);

  // Registers are reported for the kernel that ran — the naive twin — on
  // the cached path and on the no-cache path that compiles its own twin.
  const i32 naive_regs =
      dsl::compile_kernel(graph.stages[0].spec, opts(Variant::kNaive))
          .regs_per_thread;
  ASSERT_NE(dsl::compile_kernel(graph.stages[0].spec, opts(Variant::kIsp))
                .regs_per_thread,
            naive_regs);
  EXPECT_EQ(second.stages[0].regs_per_thread, naive_regs);
  EXPECT_EQ(run.regs_per_thread, naive_regs);
  Image<f32> uncached_out(src.size());
  const exec::BackendRun uncached = exec::InterpretedBackend(nullptr).run(
      graph.stages[0].spec, opts(Variant::kIsp), cfg.sim.device, inputs,
      uncached_out, cfg.sim.block, false);
  EXPECT_TRUE(uncached.degenerate_fallback);
  EXPECT_EQ(uncached.regs_per_thread, naive_regs);
  EXPECT_EQ(compare(uncached_out, second.output).max_abs, 0.0);
}

// ---- server -----------------------------------------------------------------

pipeline::ServeRequest make_request(
    const std::shared_ptr<const pipeline::KernelGraph>& graph,
    const std::shared_ptr<const Image<f32>>& source, f64 deadline_ms = 0.0) {
  pipeline::ServeRequest request;
  request.graph = graph;
  request.source = source;
  request.deadline_ms = deadline_ms;
  return request;
}

TEST(PipelineServer, ServesCorrectOutput) {
  const auto app = filters::make_sobel_app();
  const auto graph = std::make_shared<const pipeline::KernelGraph>(
      pipeline::build_graph(app));
  const auto src =
      std::make_shared<const Image<f32>>(make_gradient_image({32, 32}));
  const Image<f32> expect =
      filters::run_app_reference(app, *src, BorderPattern::kClamp);

  pipeline::ServerConfig cfg;
  cfg.workers = 2;
  pipeline::PipelineServer server(cfg);
  auto future = server.submit(make_request(graph, src));
  pipeline::ServeResponse resp = future.get();
  ASSERT_EQ(resp.status, pipeline::ServeStatus::kOk) << resp.error;
  EXPECT_EQ(compare(resp.output, expect).max_abs, 0.0);
  EXPECT_GE(resp.total_ms, resp.exec_ms);
  // Without devices the server is a fleet of one: executor.sim.device,
  // no device breaker, one tier.
  EXPECT_EQ(resp.device, "GTX680");
  EXPECT_EQ(resp.dispatches, 1u);
  server.shutdown();
  const pipeline::ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.total_latency_ms.count(), 1u);
  ASSERT_EQ(stats.devices.size(), 1u);
  EXPECT_EQ(stats.devices[0].routed, 1u);
  EXPECT_EQ(stats.tiers.size(), 1u);
  EXPECT_TRUE(server.device_health().empty());
}

TEST(PipelineServer, RejectsOnOverflowDeterministically) {
  const auto graph = std::make_shared<const pipeline::KernelGraph>(
      pipeline::build_graph(filters::make_gaussian_app()));
  const auto src =
      std::make_shared<const Image<f32>>(make_gradient_image({16, 16}));

  pipeline::ServerConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 4;
  cfg.start_paused = true;  // nothing dequeues until resume()
  cfg.executor.sim.sampled = true;
  pipeline::PipelineServer server(cfg);

  std::vector<std::future<pipeline::ServeResponse>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(server.submit(make_request(graph, src)));
  }
  // Overflowed submissions resolve immediately, while the server is paused.
  int rejected = 0;
  for (auto& f : futures) {
    if (f.wait_for(std::chrono::seconds(0)) == std::future_status::ready &&
        f.get().status == pipeline::ServeStatus::kRejected) {
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, 6);

  server.resume();
  server.shutdown();
  const pipeline::ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 10u);
  EXPECT_EQ(stats.rejected, 6u);
  EXPECT_EQ(stats.completed, 4u);
}

TEST(PipelineServer, ExpiresQueuedRequestsPastDeadline) {
  const auto graph = std::make_shared<const pipeline::KernelGraph>(
      pipeline::build_graph(filters::make_gaussian_app()));
  const auto src =
      std::make_shared<const Image<f32>>(make_gradient_image({16, 16}));

  pipeline::ServerConfig cfg;
  cfg.workers = 1;
  cfg.start_paused = true;
  cfg.executor.sim.sampled = true;
  pipeline::PipelineServer server(cfg);

  auto strict = server.submit(make_request(graph, src, /*deadline_ms=*/1.0));
  auto lax = server.submit(make_request(graph, src, /*deadline_ms=*/0.0));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.resume();
  EXPECT_EQ(strict.get().status, pipeline::ServeStatus::kDeadlineExpired);
  EXPECT_EQ(lax.get().status, pipeline::ServeStatus::kOk);
  server.shutdown();
  EXPECT_EQ(server.stats().deadline_expired, 1u);
}

TEST(PipelineServer, WatchdogSettlesMidQueueExpiryWhilePaused) {
  const auto graph = std::make_shared<const pipeline::KernelGraph>(
      pipeline::build_graph(filters::make_gaussian_app()));
  const auto src =
      std::make_shared<const Image<f32>>(make_gradient_image({16, 16}));

  pipeline::ServerConfig cfg;
  cfg.workers = 1;
  cfg.start_paused = true;
  cfg.executor.sim.sampled = true;
  pipeline::PipelineServer server(cfg);

  auto f = server.submit(make_request(graph, src, /*deadline_ms=*/2.0));
  // The server is never resumed: no worker will ever dequeue this request,
  // so only the deadline watchdog can settle it.
  ASSERT_EQ(f.wait_for(std::chrono::seconds(5)), std::future_status::ready)
      << "watchdog did not settle an expired queued request";
  EXPECT_EQ(f.get().status, pipeline::ServeStatus::kDeadlineExpired);
  const resilience::HealthState health = server.health();
  EXPECT_EQ(health.queue_expired, 1u);
  EXPECT_EQ(health.watchdog_expired, 0u);  // it never started executing
  server.shutdown();
}

TEST(PipelineServer, DrainSettlesExpiredRequestsWithoutExecuting) {
  const auto graph = std::make_shared<const pipeline::KernelGraph>(
      pipeline::build_graph(filters::make_gaussian_app()));
  const auto src =
      std::make_shared<const Image<f32>>(make_gradient_image({16, 16}));

  pipeline::ServerConfig cfg;
  cfg.workers = 1;
  cfg.start_paused = true;
  cfg.executor.sim.sampled = true;
  pipeline::PipelineServer server(cfg);

  auto strict = server.submit(make_request(graph, src, /*deadline_ms=*/1.0));
  auto lax = server.submit(make_request(graph, src, /*deadline_ms=*/0.0));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // Shut down without ever resuming: the drain must settle the expired
  // request kDeadlineExpired (not execute it, not abandon it) and still
  // execute the one without a deadline.
  server.shutdown();
  EXPECT_EQ(strict.get().status, pipeline::ServeStatus::kDeadlineExpired);
  EXPECT_EQ(lax.get().status, pipeline::ServeStatus::kOk);
  EXPECT_EQ(server.stats().deadline_expired, 1u);
}

TEST(PipelineServer, ShutdownDrainsEveryQueuedRequest) {
  const auto graph = std::make_shared<const pipeline::KernelGraph>(
      pipeline::build_graph(filters::make_laplace_app()));
  const auto src =
      std::make_shared<const Image<f32>>(make_gradient_image({16, 16}));

  pipeline::ServerConfig cfg;
  cfg.workers = 2;
  cfg.executor.sim.sampled = true;
  pipeline::PipelineServer server(cfg);
  std::vector<std::future<pipeline::ServeResponse>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(server.submit(make_request(graph, src)));
  }
  server.shutdown();  // must not abandon queued work
  u64 ok = 0;
  for (auto& f : futures) {
    if (f.get().status == pipeline::ServeStatus::kOk) ++ok;
  }
  EXPECT_EQ(ok, 8u);
  // submit() after shutdown rejects instead of blocking.
  auto late = server.submit(make_request(graph, src));
  EXPECT_EQ(late.get().status, pipeline::ServeStatus::kRejected);
}

TEST(PipelineServer, LatencyMemoryBoundedInRequestCount) {
  const auto graph = std::make_shared<const pipeline::KernelGraph>(
      pipeline::build_graph(filters::make_gaussian_app()));
  const auto src =
      std::make_shared<const Image<f32>>(make_gradient_image({16, 16}));

  // The latency stats must be O(histogram buckets), not O(requests): the
  // bucket array after 64 requests is exactly the size it was after 4.
  const auto serve = [&](int requests) {
    pipeline::ServerConfig cfg;
    cfg.workers = 2;
    cfg.executor.sim.sampled = true;
    pipeline::PipelineServer server(cfg);
    std::vector<std::future<pipeline::ServeResponse>> futures;
    for (int i = 0; i < requests; ++i) {
      futures.push_back(server.submit(make_request(graph, src)));
    }
    for (auto& f : futures) f.wait();
    server.shutdown();
    return server.stats();
  };
  const pipeline::ServerStats small = serve(4);
  const pipeline::ServerStats large = serve(64);
  EXPECT_EQ(small.total_latency_ms.count(), 4u);
  EXPECT_EQ(large.total_latency_ms.count(), 64u);
  EXPECT_EQ(large.total_latency_ms.bucket_count(),
            small.total_latency_ms.bucket_count());
  EXPECT_EQ(large.queue_latency_ms.bucket_count(),
            small.queue_latency_ms.bucket_count());
  EXPECT_EQ(large.exec_latency_ms.bucket_count(),
            small.exec_latency_ms.bucket_count());
  EXPECT_TRUE(large.total_latency_ms.percentile(99.0).has_value());
}

TEST(PipelineServer, TracePropagationAcrossWorkers) {
  // Multi-worker serve: a request is submitted on this thread and executed
  // by whichever server worker dequeues it. Every span must still link into
  // exactly one tree per request, and every stage launch must stay on the
  // worker that runs the request's pipeline.execute span.
  const auto graph = std::make_shared<const pipeline::KernelGraph>(
      pipeline::build_graph(filters::make_sobel_app()));  // parallel branches
  const auto src =
      std::make_shared<const Image<f32>>(make_gradient_image({16, 16}));

  constexpr int kRequests = 12;
  obs::TraceSession::start();
  {
    pipeline::ServerConfig cfg;
    cfg.workers = 3;
    cfg.executor.sim.sampled = true;
    pipeline::PipelineServer server(cfg);
    std::vector<std::future<pipeline::ServeResponse>> futures;
    for (int i = 0; i < kRequests; ++i) {
      futures.push_back(server.submit(make_request(graph, src)));
    }
    for (auto& f : futures) {
      EXPECT_EQ(f.get().status, pipeline::ServeStatus::kOk);
    }
    server.shutdown();
  }
  const std::vector<obs::TraceEvent> events = obs::TraceSession::stop();

  const std::vector<u64> ids = obs::request_ids(events);
  ASSERT_EQ(ids.size(), static_cast<std::size_t>(kRequests));
  for (u64 id : ids) {
    const obs::RequestBreakdown b = obs::request_breakdown(events, id);
    EXPECT_TRUE(b.has_root) << "request " << id << " lost its root span";
    EXPECT_EQ(b.unreachable, 0)
        << "request " << id << " has spans not linked to its root";
    EXPECT_GE(b.spans, 3);  // root + queue_wait + at least one exec span
    EXPECT_GT(b.total_us, 0.0);
    // Exactly one root per request, and one executing thread.
    int roots = 0;
    std::vector<u32> execute_tids;
    std::vector<u32> launch_tids;
    for (const obs::TraceEvent& ev : events) {
      if (ev.request_id != id) continue;
      if (ev.parent_span_id == 0) ++roots;
      if (ev.name == "pipeline.execute") execute_tids.push_back(ev.tid);
      if (ev.name.rfind("sim.launch", 0) == 0) launch_tids.push_back(ev.tid);
    }
    EXPECT_EQ(roots, 1);
    ASSERT_EQ(execute_tids.size(), 1u) << "request " << id;
    EXPECT_EQ(launch_tids.size(), 3u) << "request " << id;
    for (u32 tid : launch_tids) {
      EXPECT_EQ(tid, execute_tids[0])
          << "request " << id << " launched a stage off its worker";
    }
  }
}

}  // namespace
}  // namespace ispb
