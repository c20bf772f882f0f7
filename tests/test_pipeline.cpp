// Pipeline runtime: kernel cache (single-flight, LRU, metrics), kernel
// graph derivation, DAG executor equivalence against the CPU reference, and
// the batched serving front-end (overflow, deadlines, drain-on-shutdown).
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
  EXPECT_NE(base, pipeline::cache_key(spec, opts(Variant::kIsp), "rtx2080"));
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
  EXPECT_EQ(g.roots(), (std::vector<i32>{0, 1}));  // dx, dy read the source
  EXPECT_EQ(g.depth(), 2);
  EXPECT_EQ(g.stages[2].deps, (std::vector<i32>{0, 1}));
  EXPECT_EQ(g.stages[2].input_images, (std::vector<i32>{1, 2}));
}

TEST(KernelGraph, NightIsAPureChain) {
  const pipeline::KernelGraph g = pipeline::build_graph(filters::make_night_app());
  ASSERT_EQ(g.stages.size(), 5u);
  g.validate();
  EXPECT_EQ(g.roots(), (std::vector<i32>{0}));
  EXPECT_EQ(g.depth(), 5);
  for (std::size_t i = 1; i < g.stages.size(); ++i) {
    EXPECT_EQ(g.stages[i].deps, (std::vector<i32>{static_cast<i32>(i) - 1}));
  }
}

TEST(KernelGraph, SingleKernelAppsAreSingleNodes) {
  for (const char* name : {"gaussian", "laplace", "bilateral"}) {
    for (const auto& app : filters::all_apps()) {
      if (app.name != name) continue;
      const pipeline::KernelGraph g = pipeline::build_graph(app);
      EXPECT_EQ(g.stages.size(), 1u) << name;
      EXPECT_EQ(g.depth(), 1) << name;
    }
  }
}

TEST(KernelGraph, ValidateRejectsForwardReferences) {
  pipeline::KernelGraph g = pipeline::build_graph(filters::make_sobel_app());
  g.stages[0].input_images = {3};  // stage 0 cannot read stage 2's output
  EXPECT_THROW(g.validate(), ContractError);
}

// ---- executor equivalence ---------------------------------------------------

/// The system-level bar: the DAG executor must produce bit-identical output
/// to the sequential CPU reference for every app and border pattern.
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
      cfg.concurrency = 2;  // exercise the pool path even for chains
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

TEST(PipelineExecutor, ConcurrentSobelMatchesInline) {
  const Size2 size{64, 48};
  const auto src = make_noise_image(size, 11);
  const auto graph = pipeline::build_graph(filters::make_sobel_app());

  pipeline::ExecutorConfig inline_cfg;
  inline_cfg.concurrency = 1;
  pipeline::ExecutorConfig wide_cfg;
  wide_cfg.concurrency = 4;

  const auto inline_out =
      pipeline::PipelineExecutor(inline_cfg).run(graph, src);
  const auto wide_out = pipeline::PipelineExecutor(wide_cfg).run(graph, src);
  EXPECT_EQ(compare(inline_out.output, wide_out.output).max_abs, 0.0);
  for (const auto& stage : wide_out.stages) {
    EXPECT_GT(stage.regs_per_thread, 0) << stage.kernel;
  }
}

// A failing branch must propagate as an exception, not hang the scheduler:
// atrous17 (radius 8) under Mirror on a 6x6 image fails validation while the
// parallel gaussian branch succeeds; the join stage must settle unrun.
TEST(PipelineExecutor, BranchFailurePropagatesWithoutDeadlock) {
  pipeline::KernelGraph g;
  g.name = "failing-branch";
  g.stages.push_back({filters::atrous_spec(17), {0}, {}});
  g.stages.push_back({filters::gaussian_spec(3), {0}, {}});
  g.stages.push_back({filters::sobel_magnitude_spec(), {1, 2}, {0, 1}});

  const auto src = make_gradient_image({6, 6});
  pipeline::ExecutorConfig cfg;
  cfg.sim.pattern = BorderPattern::kMirror;
  cfg.concurrency = 2;
  const pipeline::PipelineExecutor exec(cfg);
  EXPECT_ANY_THROW((void)exec.run(g, src));
}

// ---- run_app_simulated migration -------------------------------------------

// Satellite: filters::run_app_simulated compiles through the process-wide
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

  pipeline::KernelCache& cache = pipeline::KernelCache::global();
  const auto before = cache.stats();
  (void)filters::run_app_simulated(app, src, cfg);
  const auto after_first = cache.stats();
  EXPECT_EQ(after_first.misses - before.misses, 3u);  // dx, dy, magnitude

  (void)filters::run_app_simulated(app, src, cfg);
  const auto after_second = cache.stats();
  EXPECT_EQ(after_second.misses, after_first.misses) << "second run recompiled";
  EXPECT_EQ(after_second.hits - after_first.hits, 3u);
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
  // Multi-worker serve with stage-level executor concurrency: spans for one
  // request are emitted on the submitting thread, a server worker, and
  // executor pool threads. Every span must still link into exactly one tree
  // per request.
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
    cfg.executor.concurrency = 2;  // stages hop to the shared thread pool
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
  u64 spans_across_threads = 0;
  for (u64 id : ids) {
    const obs::RequestBreakdown b = obs::request_breakdown(events, id);
    EXPECT_TRUE(b.has_root) << "request " << id << " lost its root span";
    EXPECT_EQ(b.unreachable, 0)
        << "request " << id << " has spans not linked to its root";
    EXPECT_GE(b.spans, 3);  // root + queue_wait + at least one exec span
    EXPECT_GT(b.total_us, 0.0);
    // Exactly one root per request.
    int roots = 0;
    std::vector<u32> tids;
    for (const obs::TraceEvent& ev : events) {
      if (ev.request_id != id) continue;
      if (ev.parent_span_id == 0) ++roots;
      tids.push_back(ev.tid);
    }
    EXPECT_EQ(roots, 1);
    std::sort(tids.begin(), tids.end());
    tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
    if (tids.size() > 1) ++spans_across_threads;
  }
  // With 3 workers and pool-executed stages, request trees must span
  // threads (that is the propagation being tested).
  EXPECT_GT(spans_across_threads, 0u);
}

}  // namespace
}  // namespace ispb
