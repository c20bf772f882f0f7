// Pipeline serving throughput: warm compiled-kernel cache vs the
// cold-compile-per-request baseline.
//
// Drives the PipelineServer with the same request stream twice per app:
// once with the cache disabled (every request recompiles its stage kernels,
// the way run_app_simulated behaved before the cache existed) and once
// against a pre-warmed KernelCache. Emits throughput and latency
// percentiles per mode plus the warm/cold throughput ratio — the number the
// acceptance bar cares about (warm >= 2x cold). Launches are sampled
// (timing-only): this bench measures the runtime around the simulator, not
// the simulated kernels.
#include <chrono>
#include <cmath>
#include <iostream>

#include "common/cli.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "exec/backend.hpp"
#include "harness.hpp"
#include "image/generators.hpp"
#include "pipeline/server.hpp"

namespace ispb::bench {
namespace {

struct ServingRun {
  f64 wall_ms = 0.0;
  f64 throughput_rps = 0.0;
  pipeline::ServerStats stats;
};

ServingRun run_serving(const std::shared_ptr<const pipeline::KernelGraph>& graph,
                       const std::shared_ptr<const Image<f32>>& source,
                       const pipeline::ServerConfig& config, i32 requests) {
  using Clock = std::chrono::steady_clock;
  ServingRun out;
  const Clock::time_point t0 = Clock::now();
  {
    pipeline::PipelineServer server(config);
    std::vector<std::future<pipeline::ServeResponse>> futures;
    futures.reserve(static_cast<std::size_t>(requests));
    pipeline::ServeRequest request;
    request.graph = graph;
    request.source = source;
    for (i32 i = 0; i < requests; ++i) {
      futures.push_back(server.submit(request));
    }
    for (auto& f : futures) f.wait();
    server.shutdown();
    out.stats = server.stats();
  }
  out.wall_ms =
      std::chrono::duration<f64, std::milli>(Clock::now() - t0).count();
  out.throughput_rps = out.wall_ms > 0.0
                           ? static_cast<f64>(out.stats.completed) /
                                 (out.wall_ms / 1000.0)
                           : 0.0;
  return out;
}

int run(int argc, char** argv) {
  Cli cli(argc, argv);
  cli.option("app", "run a single application by name");
  cli.option("size", "image extent (default 32; content is irrelevant here)");
  cli.option("requests", "requests per mode (default 32)");
  cli.option("concurrency", "server worker threads (default 4)");
  cli.option("backend", "interp|native execution engine (default interp)");
  cli.option("quick", "8 requests instead of 32");
  cli.option("json", "write results as JSON rows to this path");
  if (cli.finish()) {
    std::cout << cli.help();
    return 0;
  }
  // Small default: sampled-launch cost is nearly size-independent, so a big
  // image only slows down block classification without changing the story.
  const i32 size = static_cast<i32>(cli.get_int("size", 32));
  const i32 requests = cli.get_flag("quick")
                           ? 8
                           : static_cast<i32>(cli.get_int("requests", 32));
  const i32 concurrency = static_cast<i32>(cli.get_int("concurrency", 4));
  const std::string only_app = cli.get_string("app", "");
  // Default interp: this bench's story is cache-warm vs cold compile, which
  // the interpreted engine isolates best (native cold is softened by
  // on-disk artifact reuse).
  const std::string backend_name = cli.get_string("backend", "interp");
  const auto backend = exec::parse_backend(backend_name);
  if (!backend.has_value()) {
    std::cerr << "unknown --backend '" << backend_name << "' (interp|native)\n";
    return 1;
  }
  BenchJson json("micro_pipeline");

  std::cout << "Pipeline serving: warm kernel cache vs cold "
               "compile-per-request (" << requests << " requests, "
            << concurrency << " workers, sampled launches, " << size << "x"
            << size << ").\n\n";

  AsciiTable table("serving throughput (req/s) and p50/p99 latency (ms)");
  table.set_header({"app", "cold req/s", "cold p50", "cold p99", "warm req/s",
                    "warm p50", "warm p99", "warm/cold"});

  f64 log_ratio_sum = 0.0;
  i32 apps_run = 0;
  for (auto& app : filters::all_apps()) {
    if (!only_app.empty() && app.name != only_app) continue;
    const auto graph = std::make_shared<const pipeline::KernelGraph>(
        pipeline::build_graph(app));
    const auto source = std::make_shared<const Image<f32>>(
        make_gradient_image({size, size}));

    pipeline::ServerConfig cold_cfg;
    cold_cfg.workers = concurrency;
    cold_cfg.queue_capacity = static_cast<std::size_t>(requests);
    cold_cfg.executor.sim.sampled = true;
    // Small blocks keep the interpreter cost of a sampled launch low: the
    // bench isolates serving + compile overhead, not simulated kernel time.
    cold_cfg.executor.sim.block = {8, 4};
    cold_cfg.executor.concurrency = 1;
    cold_cfg.executor.use_cache = false;
    cold_cfg.executor.backend = *backend;
    const ServingRun cold = run_serving(graph, source, cold_cfg, requests);

    pipeline::KernelCache cache;
    pipeline::ServerConfig warm_cfg = cold_cfg;
    warm_cfg.executor.use_cache = true;
    warm_cfg.executor.cache = &cache;
    // Pre-warm: one untimed request compiles every stage kernel.
    (void)run_serving(graph, source, warm_cfg, 1);
    const ServingRun warm = run_serving(graph, source, warm_cfg, requests);

    const f64 ratio = cold.throughput_rps > 0.0
                          ? warm.throughput_rps / cold.throughput_rps
                          : 0.0;
    // value_or(0.0): these runs always complete requests, but don't crash
    // the bench table if one run ever ends empty.
    const auto pct = [](const ServingRun& run, f64 p) {
      return run.stats.total_latency_ms.percentile(p).value_or(0.0);
    };
    table.add_row({app.name, AsciiTable::num(cold.throughput_rps, 1),
                   AsciiTable::num(pct(cold, 50.0), 3),
                   AsciiTable::num(pct(cold, 99.0), 3),
                   AsciiTable::num(warm.throughput_rps, 1),
                   AsciiTable::num(pct(warm, 50.0), 3),
                   AsciiTable::num(pct(warm, 99.0), 3),
                   AsciiTable::num(ratio, 2)});

    for (const auto& [variant, run] :
         {std::pair<std::string, const ServingRun&>{"cold", cold},
          std::pair<std::string, const ServingRun&>{"warm", warm}}) {
      BenchJson::Row row;
      row.app = app.name;
      row.variant = variant;
      row.backend = backend_name;
      row.size = size;
      row.metric = "throughput_rps";
      row.value = run.throughput_rps;
      json.add(row);
      for (const auto& [metric, p] :
           {std::pair<const char*, f64>{"latency_p50_ms", 50.0},
            std::pair<const char*, f64>{"latency_p95_ms", 95.0},
            std::pair<const char*, f64>{"latency_p99_ms", 99.0}}) {
        row.metric = metric;
        row.value = pct(run, p);
        json.add(row);
      }
    }
    BenchJson::Row ratio_row;
    ratio_row.app = app.name;
    ratio_row.backend = backend_name;
    ratio_row.size = size;
    ratio_row.metric = "warm_over_cold_throughput";
    ratio_row.value = ratio;
    json.add(ratio_row);
    if (ratio > 0.0) {
      log_ratio_sum += std::log(ratio);
      ++apps_run;
    }
  }

  const f64 geomean =
      apps_run > 0 ? std::exp(log_ratio_sum / apps_run) : 0.0;
  table.add_row({"geomean", "", "", "", "", "", "",
                 AsciiTable::num(geomean, 2)});
  BenchJson::Row geo_row;
  geo_row.app = "all";
  geo_row.backend = backend_name;
  geo_row.size = size;
  geo_row.metric = "warm_over_cold_geomean";
  geo_row.value = geomean;
  json.add(geo_row);

  table.print(std::cout);
  json.write(cli.get_string("json", ""));
  std::cout << "\nAcceptance bar: geomean warm/cold >= 2 (compiles dominate "
               "a sampled launch at this size).\n";
  return 0;
}

}  // namespace
}  // namespace ispb::bench

int main(int argc, char** argv) { return ispb::bench::run(argc, argv); }
