// Serving benchmark for the ISP border-handling runtime.
//
// One process per run: it sets the system up from cold, drives one seeded
// workload through the serving stack, checks every output bit for bit
// against filters::run_app_reference and reports metrics. An untraced run
// reports the end-to-end metrics; a traced run reports per-layer metrics
// measured from outside the program with a layer ladder (the same request
// mix driven through fewer and fewer layers) plus direct calls into the
// cache, JIT, printer and IR compiler.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <exception>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "exec/backend.hpp"
#include "filters/filters.hpp"
#include "fleet/fleet_server.hpp"
#include "obs/json.hpp"
#include "pipeline/kernel_cache.hpp"
#include "pipeline/kernel_graph.hpp"
#include "pipeline/server.hpp"

namespace perfbench {

using namespace ispb;  // the benchmark drives the program's whole namespace
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline f64 seconds_between(Clock::time_point a,
                                         Clock::time_point b) {
  return std::chrono::duration<f64>(b - a).count();
}
[[nodiscard]] inline Clock::time_point after(Clock::time_point t, f64 s) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<f64>(s));
}

/// Command-line parameters.
struct Params {
  std::string workload;
  u64 seed = 1;
  f64 seconds = 10.0;
  bool trace = false;
  i32 setup_repeats = 0;  ///< cold set-ups per run (0 = the workload's own)
  std::string work_dir;  ///< JIT artifact directories live under here
  std::string results_path;
  std::string trace_path;
  bool corrupt_one = false;  ///< flip one output bit (output-check self-test)
};

/// One request kind: an application over one seeded source image, with an
/// optional pinned variant. `ref` indexes Slice::refs.
struct Combo {
  std::string app;
  std::shared_ptr<const pipeline::KernelGraph> graph;
  std::shared_ptr<const Image<f32>> source;
  std::optional<codegen::Variant> variant;
  std::size_t ref = 0;
};

/// A compiled stage, resolved at set-up so the lower ladder rungs and the
/// kernel-only loop run without the cache in the way.
struct PreparedStage {
  codegen::CodegenOptions options;
  exec::NativeModulePtr module;                  ///< native workloads
  pipeline::KernelCache::KernelPtr kernel;       ///< interpreted workloads
};

/// A combo with per-request scratch images: images[0] is the source, image
/// i + 1 the output of stage i (the executor's convention).
struct PreparedCombo {
  std::vector<PreparedStage> stages;
  std::vector<Image<f32>> images;
  [[nodiscard]] std::vector<const Image<f32>*> inputs(
      const pipeline::KernelGraph::Stage& stage) const;
};

/// One border pattern: a server serves one pattern, so a workload that
/// mixes patterns runs them as serial slices (as ispb_run loadtest does).
struct Slice {
  BorderPattern pattern = BorderPattern::kClamp;
  filters::AppSimConfig sim;
  std::vector<Combo> combos;
  std::vector<Image<f32>> refs;          ///< reference output per app
  std::vector<PreparedCombo> prepared;   ///< parallel to combos
  std::vector<std::vector<u32>> cycles;  ///< seeded permutations of combos

  /// The i-th request of this slice's seeded sequence: every cycle is a
  /// permutation, so the mix is exact over each cycle whatever the seed.
  [[nodiscard]] const Combo& request(u64 i) const;
  [[nodiscard]] std::size_t request_index(u64 i) const;
};

/// The executor's codegen options for a combo's stages in a slice.
[[nodiscard]] codegen::CodegenOptions stage_options(const Slice& s,
                                                    const Combo& c);

/// One distinct kernel of a workload: its first (slice, combo, stage).
struct KernelRef {
  std::size_t slice = 0, combo = 0, stage = 0;
  const codegen::StencilSpec* spec = nullptr;
  codegen::CodegenOptions options;
};

/// Static description of a workload (the traffic, the serving stack and
/// its knobs; perfbench/spec.json documents the same values).
struct WorkloadDef {
  std::string name;
  exec::Backend backend = exec::Backend::kNative;
  std::vector<std::pair<std::string, i32>> apps;  ///< app, image extent
  std::vector<BorderPattern> patterns;
  std::vector<sim::DeviceSpec> devices;  ///< empty: PipelineServer front
  std::vector<codegen::Variant> variants;  ///< pinned per request; empty: isp
  u32 tiers = 1;
  f64 offered_rps = 0.0;  ///< fixed open-loop Poisson rate (0 = no open loop)
  f64 latency_limit_ms = 0.0;  ///< SLO limit for slo_attainment
  std::size_t cache_capacity = 256;
  f64 deadline_ms = 0.0;  ///< per-request deadline (0 = none)
  i32 setup_repeats = 1;  ///< cold set-ups per run; setup_s is their median
};

[[nodiscard]] WorkloadDef workload_def(const std::string& name);

/// Outcome counters of a serving phase. Every request attempted is either
/// ok (kOk and bit-exact) or failed; mismatches are a subset of failed.
struct Tally {
  u64 attempted = 0;
  u64 ok = 0;
  u64 failed = 0;
  u64 mismatched = 0;
  u64 within_limit = 0;  ///< ok and latency <= the workload's limit
  std::vector<f64> latency_ms;  ///< per ok request
  std::vector<f64> queue_ms;    ///< server queue wait per ok request
  std::vector<f64> exec_ms;     ///< server execution time per ok request
  std::vector<f64> lag_ms;      ///< open loop: send time - due time
  void merge(const Tally& o);
};

struct PhaseResult {
  Tally tally;
  f64 wall_s = 0.0;
  fleet::FleetStats fleet;  ///< merged over slices (fleet fronts only)
  [[nodiscard]] f64 ok_rps() const {
    return wall_s > 0.0 ? static_cast<f64>(tally.ok) / wall_s : 0.0;
  }
};

class Workload;

/// The serving entry point of one slice: a FleetServer when the workload
/// has devices (and `use_fleet`), else a PipelineServer.
class Front {
 public:
  Front(const Workload& w, const Slice& s, i32 workers, bool use_fleet);
  ~Front() { shutdown(); }
  Front(const Front&) = delete;
  Front& operator=(const Front&) = delete;

  struct Response {
    bool ok = false;
    Image<f32> output;
    f64 total_ms = 0.0;  ///< the program's submit -> settle time
    f64 queue_ms = 0.0;
    f64 exec_ms = 0.0;
  };
  class Pending {
   public:
    Response get();

   private:
    friend class Front;
    std::future<fleet::FleetResponse> fleet_;
    std::future<pipeline::ServeResponse> serve_;
  };

  /// Submits the `index`-th request of the sequence (tiers round-robin).
  Pending submit(const Combo& c, u64 index);
  void shutdown();
  /// FleetServer counters; empty for a PipelineServer front.
  [[nodiscard]] std::optional<fleet::FleetStats> fleet_stats() const;

 private:
  const Workload& w_;
  std::unique_ptr<fleet::FleetServer> fleet_;
  std::unique_ptr<pipeline::PipelineServer> server_;
};

/// The workload with its set-up state: slices, references, the warm cache.
class Workload {
 public:
  Workload(WorkloadDef def, Params params);

  /// Cold set-up: fresh JIT directory, new cache and servers, every kernel
  /// compiled through the cache from at most nproc threads. Returns wall
  /// seconds; keeps the last set-up's cache and prepared stages.
  /// `wipe` = false keeps artifacts already in the directory (the traced
  /// run times jit_compile into it first).
  f64 setup(i32 repeat_index, bool wipe = true);
  /// JIT artifact directory of set-up `index`.
  [[nodiscard]] std::string jit_dir(i32 index) const {
    return params.work_dir + "/jit-" + std::to_string(index);
  }
  /// Distinct kernels (cache keys without the device) in slice order.
  [[nodiscard]] std::vector<KernelRef> distinct_kernels() const;
  /// Reference outputs (outside setup_s).
  void compute_references();

  /// Closed loop of `clients` callers over `workers` total server workers.
  PhaseResult closed_loop(f64 seconds, i32 clients, i32 workers);
  /// Open-loop Poisson arrivals at `rate` requests per second.
  PhaseResult open_loop(f64 seconds, f64 rate);
  /// Back-to-back module or launch calls over the same mix, no serving.
  /// Returns requests per second.
  f64 kernel_only(f64 seconds);

  /// Checks one output; counts it in `t` (the output-check self-test flips
  /// one bit of the first output checked when corrupt_one is set).
  void check(const Combo& c, std::size_t slice, Image<f32>& out, f64 latency_ms,
             Tally& t);

  [[nodiscard]] pipeline::ServerConfig server_config(const Slice& s,
                                                     i32 workers) const;
  [[nodiscard]] fleet::FleetConfig fleet_config(const Slice& s,
                                                i32 workers) const;

  WorkloadDef def;
  Params params;
  i32 nproc = 1;
  std::vector<Slice> slices;
  std::unique_ptr<pipeline::KernelCache> cache;
  Tally kernel_only_tally;  ///< output checks of the kernel-only loop
  /// Wall time of each cache fill of the last set-up (kernel/variant/pattern).
  std::vector<std::pair<std::string, f64>> fill_ms;

 private:
  std::atomic<bool> corrupt_pending_{false};
};

/// Per-layer metrics of the traced run (layers.cpp).
obs::Json run_layers(Workload& w, obs::Json& detail, Tally& total);

/// Host roofline probes (layers.cpp).
struct Roofline {
  f64 dram_gbps = 0.0;
  f64 cache_gbps = 0.0;
  f64 peak_gflops = 0.0;
  f64 dram_bytes = 0.0;   ///< total footprint of the DRAM copy arrays
  f64 cache_bytes = 0.0;  ///< per-thread footprint of the cache copy
};
[[nodiscard]] Roofline measure_roofline(f64 working_set_bytes, i32 threads);

/// Runs `task(i)` for i in [0, n) on at most `threads` threads; rethrows
/// the first failure after every thread has joined.
template <typename Fn>
void run_parallel(std::size_t n, i32 threads, Fn task) {
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::exception_ptr error;
  std::vector<std::thread> pool;
  const std::size_t count =
      std::min<std::size_t>(n, static_cast<std::size_t>(std::max(1, threads)));
  for (std::size_t t = 0; t < count; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) {
        try {
          task(i);
        } catch (...) {
          std::lock_guard lock(mu);
          if (error == nullptr) error = std::current_exception();
        }
      }
    });
  }
  for (std::thread& th : pool) th.join();
  if (error != nullptr) std::rethrow_exception(error);
}

[[nodiscard]] std::size_t llc_bytes();
[[nodiscard]] f64 percentile(std::vector<f64> v, f64 p);
[[nodiscard]] f64 median(std::vector<f64> v);
[[nodiscard]] bool bit_exact(const Image<f32>& a, const Image<f32>& b);

}  // namespace perfbench
