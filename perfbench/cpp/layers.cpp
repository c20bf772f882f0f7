// The traced run: per-layer metrics from the layer ladder, direct calls
// into the cache, JIT, printer and IR compiler, the host roofline and
// process counters.
//
// Ladder: the same seeded request mix is driven through fewer and fewer
// layers (FleetServer::submit -> PipelineServer::submit ->
// PipelineExecutor::run -> ExecutionBackend::run -> run_native_module or
// launch_on_sim), one caller, with a span around each call. A rung's
// per-request time is the mean duration of its spans; a layer's self time
// is its rung minus the rung below.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <thread>

#include "bench.hpp"
#include "codegen/cpp_printer.hpp"
#include "dsl/runtime.hpp"
#include "exec/jit.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perfbench {

std::size_t llc_bytes() {
  const long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return v > 0 ? static_cast<std::size_t>(v) : 0;
}

namespace {

// ---- host roofline ------------------------------------------------------------

/// Runs `body(thread)` on `threads` threads at once; returns wall seconds.
template <typename Fn>
f64 timed_threads(i32 threads, Fn body) {
  std::vector<std::thread> pool;
  const Clock::time_point t0 = Clock::now();
  for (i32 t = 0; t < threads; ++t) pool.emplace_back(body, t);
  for (std::thread& th : pool) th.join();
  return seconds_between(t0, Clock::now());
}

/// Copy bandwidth (bytes read + written per second, STREAM convention) of
/// `threads` threads each copying its own `bytes_per_thread`-byte arrays
/// `passes` times; median over repetitions lasting about `seconds`.
f64 copy_gbps(std::size_t bytes_per_thread, i32 threads, i32 passes,
              f64 seconds) {
  const std::size_t n = bytes_per_thread / 2 / sizeof(f32);
  std::vector<std::vector<f32>> src(static_cast<std::size_t>(threads)),
      dst(static_cast<std::size_t>(threads));
  timed_threads(threads, [&](i32 t) {  // first touch on the copying thread
    src[static_cast<std::size_t>(t)].assign(n, 1.0f);
    dst[static_cast<std::size_t>(t)].assign(n, 0.0f);
  });
  std::vector<f64> rates;
  const Clock::time_point stop = after(Clock::now(), seconds);
  while (rates.size() < 3 || Clock::now() < stop) {
    const f64 wall = timed_threads(threads, [&](i32 t) {
      f32* d = dst[static_cast<std::size_t>(t)].data();
      const f32* s = src[static_cast<std::size_t>(t)].data();
      for (i32 p = 0; p < passes; ++p) std::memcpy(d, s, n * sizeof(f32));
    });
    rates.push_back(2.0 * static_cast<f64>(n * sizeof(f32)) * passes *
                    threads / wall / 1e9);
  }
  return median(rates);
}

/// Independent multiply-add chains in the benchmark's own (SSE2) build,
/// the same instruction set the JIT's -O2 kernels use.
f64 peak_gflops(i32 threads, f64 seconds) {
  constexpr i32 kLanes = 32;
  constexpr i64 kIters = 1 << 22;
  std::vector<f64> rates;
  std::vector<f32> sink(static_cast<std::size_t>(threads));
  const Clock::time_point stop = after(Clock::now(), seconds);
  while (rates.size() < 3 || Clock::now() < stop) {
    const f64 wall = timed_threads(threads, [&](i32 t) {
      f32 acc[kLanes];
      for (i32 j = 0; j < kLanes; ++j) acc[j] = static_cast<f32>(j + t);
      const f32 m = 0.9999f, c = 0.0001f;
      for (i64 i = 0; i < kIters; ++i) {
        for (i32 j = 0; j < kLanes; ++j) acc[j] = acc[j] * m + c;
      }
      f32 sum = 0.0f;
      for (f32 a : acc) sum += a;
      sink[static_cast<std::size_t>(t)] = sum;
    });
    rates.push_back(2.0 * kLanes * static_cast<f64>(kIters) * threads / wall /
                    1e9);
  }
  volatile f32 keep = sink[0];  // the sums are results; keep them observable
  (void)keep;
  return median(rates);
}

}  // namespace

Roofline measure_roofline(f64 working_set_bytes, i32 threads) {
  Roofline r;
  const std::size_t llc = llc_bytes() > 0 ? llc_bytes() : (64u << 20);
  // Source plus destination over all threads: four times the LLC.
  const std::size_t dram_per_thread = 4 * llc / static_cast<std::size_t>(threads);
  r.dram_bytes = static_cast<f64>(dram_per_thread) * threads;
  r.dram_gbps = copy_gbps(dram_per_thread, threads, 1, 0.5);
  const auto ws = static_cast<std::size_t>(std::max(working_set_bytes, 4096.0));
  r.cache_bytes = static_cast<f64>(ws);
  const i32 passes = static_cast<i32>(std::max<std::size_t>(1, (64u << 20) / ws));
  r.cache_gbps = copy_gbps(ws, threads, passes, 0.3);
  r.peak_gflops = peak_gflops(threads, 0.3);
  return r;
}

namespace {

obs::Json metric(f64 value, std::string_view unit) {
  obs::Json m = obs::Json::object();
  m["value"] = value;
  m["unit"] = unit;
  return m;
}

f64 geomean(const std::vector<f64>& v) {
  if (v.empty()) return 0.0;
  f64 s = 0.0;
  for (f64 x : v) s += std::log(x);
  return std::exp(s / static_cast<f64>(v.size()));
}

/// Flops (arithmetic DAG nodes) and computed bytes (inputs + output, one
/// pass each) of one stage over `pixels` pixels.
std::pair<f64, f64> stage_work(const codegen::StencilSpec& spec, f64 pixels) {
  i64 ops = 0;
  for (const codegen::Node& n : spec.nodes) {
    if (codegen::node_arity(n.kind) > 0) ++ops;
  }
  return {static_cast<f64>(ops) * pixels,
          static_cast<f64>(spec.num_inputs + 1) * pixels * sizeof(f32)};
}

struct Usage {
  f64 cpu_s = 0.0;
  i64 involuntary = 0;
};
Usage usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& t) {
    return static_cast<f64>(t.tv_sec) + static_cast<f64>(t.tv_usec) * 1e-6;
  };
  return {sec(ru.ru_utime) + sec(ru.ru_stime), ru.ru_nivcsw};
}

/// Traced segments share one event list; each start/stop pair appends.
/// Every trace session starts its clock at 0, so a segment is shifted to
/// begin 1 ms after the previous one ends.
struct TraceRecorder {
  std::vector<obs::TraceEvent> events;
  obs::MetricsRegistry registry;
  f64 end_us = 0.0;
  template <typename Fn>
  auto traced(Fn fn) {
    obs::MetricsRegistry::ScopedInstall install(registry);
    obs::TraceSession::start();
    struct Stop {
      TraceRecorder& r;
      ~Stop() {
        std::vector<obs::TraceEvent> ev = obs::TraceSession::stop();
        const f64 shift = r.events.empty() ? 0.0 : r.end_us + 1000.0;
        for (obs::TraceEvent& e : ev) {
          e.ts_us += shift;
          r.end_us = std::max(r.end_us, e.ts_us + e.dur_us);
        }
        r.events.insert(r.events.end(), std::make_move_iterator(ev.begin()),
                        std::make_move_iterator(ev.end()));
      }
    } stop{*this};
    return fn();
  }
};

/// Top-rung request time that no program span covers, and the top rung's
/// total, in microseconds: each `top` bench span minus the union of the
/// program's spans (any thread) that overlap it. The ladder drives one
/// request at a time, so every program span overlapping a top-rung span
/// serves that request.
std::pair<f64, f64> uncovered_us(std::span<const obs::TraceEvent> events,
                                 const std::string& top) {
  std::vector<std::pair<f64, f64>> spans, cover;
  for (const obs::TraceEvent& ev : events) {
    if (ev.cat != "bench") spans.emplace_back(ev.ts_us, ev.ts_us + ev.dur_us);
  }
  std::sort(spans.begin(), spans.end());
  for (const auto& [a, b] : spans) {  // merge into disjoint intervals
    if (!cover.empty() && a <= cover.back().second) {
      cover.back().second = std::max(cover.back().second, b);
    } else {
      cover.emplace_back(a, b);
    }
  }
  f64 uncovered = 0.0, total = 0.0;
  for (const obs::TraceEvent& ev : events) {
    if (ev.name != top) continue;
    const f64 a = ev.ts_us, b = ev.ts_us + ev.dur_us;
    f64 covered = 0.0;
    auto it = std::lower_bound(
        cover.begin(), cover.end(), a,
        [](const std::pair<f64, f64>& iv, f64 x) { return iv.second <= x; });
    for (; it != cover.end() && it->first < b; ++it) {
      covered += std::min(b, it->second) - std::max(a, it->first);
    }
    uncovered += b - a - covered;
    total += b - a;
  }
  return {uncovered, total};
}

// ---- the ladder -----------------------------------------------------------------

struct Ladder {
  std::vector<std::string> rungs;  ///< top first
  std::vector<f64> submit_us;      ///< FleetServer::submit return times
  std::vector<f64> launch_ms;      ///< module rung, per stage call
  f64 module_s = 0.0;              ///< module rung, summed
  u64 warp_instr = 0;              ///< module rung, interp issue slots
  u64 module_requests = 0;
  f64 flops = 0.0, bytes = 0.0;    ///< module rung, computed
  f64 roofline_s = 0.0;            ///< module rung, roofline time
  std::map<std::string, std::pair<f64, u64>> by_combo;  ///< module ms, calls
  Tally tally;
};

void run_ladder(Workload& w, f64 seconds, const Roofline& roof, Ladder& L) {
  const bool native = w.def.backend == exec::Backend::kNative;
  const bool has_fleet = !w.def.devices.empty();
  if (has_fleet) L.rungs.push_back("fleet");
  for (const char* r : {"server", "executor", "backend", "module"}) {
    L.rungs.emplace_back(r);
  }
  std::vector<std::unique_ptr<Front>> fleets, servers;
  std::vector<pipeline::PipelineExecutor> executors;
  for (const Slice& s : w.slices) {
    if (has_fleet) fleets.push_back(std::make_unique<Front>(w, s, w.nproc, true));
    servers.push_back(std::make_unique<Front>(w, s, w.nproc, false));
    executors.emplace_back(w.server_config(s, w.nproc).executor);
  }
  exec::NativeBackend native_engine(w.cache.get());
  exec::InterpretedBackend interp_engine(w.cache.get());
  exec::ExecutionBackend& engine =
      native ? static_cast<exec::ExecutionBackend&>(native_engine)
             : static_cast<exec::ExecutionBackend&>(interp_engine);

  const Clock::time_point stop = after(Clock::now(), seconds);
  for (u64 round = 0; round < w.slices.size() || Clock::now() < stop;
       ++round) {
    const std::size_t si = round % w.slices.size();
    Slice& s = w.slices[si];
    const sim::DeviceSpec device = w.server_config(s, 1).executor.sim.device;
    const u64 base = (round / w.slices.size()) * s.combos.size();
    for (const std::string& rung : L.rungs) {
      const std::string span_name = "bench.ladder." + rung;
      for (u64 i = base; i < base + s.combos.size(); ++i) {
        const std::size_t ci = s.request_index(i);
        const Combo& c = s.combos[ci];
        PreparedCombo& pc = s.prepared[ci];
        ++L.tally.attempted;
        Image<f32>* out = nullptr;
        Image<f32> owned;
        bool ok = true;
        {
          obs::ScopedSpan span(span_name, "bench");
          if (rung == "fleet" || rung == "server") {
            Front& f = rung == "fleet" ? *fleets[si] : *servers[si];
            const Clock::time_point t0 = Clock::now();
            Front::Pending p = f.submit(c, i);
            if (rung == "fleet") {
              L.submit_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
            }
            Front::Response r = p.get();
            ok = r.ok;
            owned = std::move(r.output);
            out = &owned;
          } else if (rung == "executor") {
            try {
              owned = executors[si]
                          .run(*c.graph, *c.source, w.def.backend, c.variant)
                          .output;
              out = &owned;
            } catch (const std::exception&) {
              ok = false;
            }
          } else {
            const Clock::time_point t_request = Clock::now();
            for (std::size_t k = 0; k < c.graph->stages.size(); ++k) {
              const pipeline::KernelGraph::Stage& st = c.graph->stages[k];
              const auto in = pc.inputs(st);
              PreparedStage& ps = pc.stages[k];
              if (rung == "backend") {
                (void)engine.run(st.spec, ps.options, device, in,
                                 pc.images[k + 1], s.sim.block, false);
                continue;
              }
              const Clock::time_point t0 = Clock::now();
              if (native) {
                (void)exec::run_native_module(*ps.module, in, pc.images[k + 1]);
              } else {
                const dsl::SimRun sr = dsl::launch_on_sim(
                    device, *ps.kernel, in, pc.images[k + 1], s.sim.block);
                L.warp_instr += sr.stats.warps.issue_slots;
              }
              const f64 call_s = seconds_between(t0, Clock::now());
              L.launch_ms.push_back(call_s * 1e3);
              L.module_s += call_s;
              const auto [flops, bytes] = stage_work(
                  st.spec, static_cast<f64>(c.source->width()) *
                               c.source->height());
              L.flops += flops;
              L.bytes += bytes;
              L.roofline_s += std::max(flops / (roof.peak_gflops * 1e9),
                                       bytes / (roof.cache_gbps * 1e9));
            }
            if (rung == "module") {
              ++L.module_requests;
              auto& [ms, calls] =
                  L.by_combo[c.app + "/" + std::string(to_string(s.pattern)) +
                             (c.variant ? "/" + std::string(codegen::to_string(
                                                    *c.variant))
                                        : "")];
              ms += seconds_between(t_request, Clock::now()) * 1e3;
              ++calls;
            }
            out = &pc.images.back();
          }
        }
        if (!ok || out == nullptr) {
          ++L.tally.failed;
          continue;
        }
        w.check(c, si, *out, 0.0, L.tally);
      }
    }
  }
}

}  // namespace

obs::Json run_layers(Workload& w, obs::Json& detail, Tally& total) {
  const Params& p = w.params;
  const f64 S = p.seconds;
  const bool native = w.def.backend == exec::Backend::kNative;
  obs::Json m = obs::Json::object();
  obs::Json idle = obs::Json::array();
  const auto put = [&](std::string_view name, f64 v, std::string_view unit) {
    m[name] = metric(v, unit);
  };
  // A layer the workload does not run reports 0 and is listed as idle.
  const auto put_idle = [&](std::string_view name, std::string_view unit) {
    put(name, 0.0, unit);
    idle.push_back(name);
  };

  // Host roofline at the per-request working set (source + stage outputs).
  f64 ws = 0.0;
  for (const Combo& c : w.slices.front().combos) {
    ws += static_cast<f64>(c.graph->stages.size() + 1) * c.source->width() *
          c.source->height() * sizeof(f32);
  }
  ws /= static_cast<f64>(w.slices.front().combos.size());
  const Roofline roof = measure_roofline(ws, w.nproc);
  put("host.dram_gbps", roof.dram_gbps, "GB/s");
  put("host.cache_gbps", roof.cache_gbps, "GB/s");
  put("host.peak_gflops", roof.peak_gflops, "GFLOP/s");
  detail["roofline"]["dram_copy_bytes"] = roof.dram_bytes;
  detail["roofline"]["llc_bytes"] = static_cast<i64>(llc_bytes());
  detail["roofline"]["cache_copy_bytes_per_thread"] = roof.cache_bytes;

  // Direct calls below the cache: printer, JIT (into the empty set-up
  // directory, so set-up then loads disk-warm artifacts), IR compiler.
  const std::vector<KernelRef> kernels = w.distinct_kernels();
  struct Twins {
    exec::NativeModulePtr isp, naive;
  };
  std::vector<Twins> twins(kernels.size());
  if (native) {
    f64 emit_ms = 0.0, source_bytes = 0.0;
    for (const KernelRef& k : kernels) {
      const Clock::time_point t0 = Clock::now();
      const std::string src = codegen::emit_cpp(*k.spec, k.options);
      emit_ms += seconds_between(t0, Clock::now()) * 1e3;
      source_bytes += static_cast<f64>(src.size());
    }
    put("codegen.emit_ms", emit_ms, "ms");
    put("codegen.source_bytes", source_bytes, "bytes");

    exec::JitConfig jit;
    jit.cache_dir = w.jit_dir(0);
    std::filesystem::remove_all(jit.cache_dir);
    std::filesystem::create_directories(jit.cache_dir);
    std::vector<f64> compile_s(kernels.size(), 0.0);
    run_parallel(kernels.size(), w.nproc, [&](std::size_t t) {
      const Clock::time_point t0 = Clock::now();
      twins[t].isp =
          exec::jit_compile(*kernels[t].spec, kernels[t].options, jit);
      compile_s[t] = seconds_between(t0, Clock::now());
    });
    // The naive twins, the baseline of kernel.isp_speedup, compile after
    // the timed compiles have all joined (untimed).
    run_parallel(kernels.size(), w.nproc, [&](std::size_t t) {
      codegen::CodegenOptions o = kernels[t].options;
      o.variant = codegen::Variant::kNaive;
      twins[t].naive = exec::jit_compile(*kernels[t].spec, o, jit);
    });
    f64 sum = 0.0;
    for (f64 v : compile_s) sum += v;
    put("jit.compile_s", sum, "s");
    put_idle("dsl.compile_ms_p50", "ms");
    put_idle("ir.instr_count", "count");
    put_idle("ir.regs_per_thread", "count");
  } else {
    std::vector<f64> compile_ms;
    f64 instrs = 0.0;
    i32 regs = 0;
    for (const KernelRef& k : kernels) {
      const Clock::time_point t0 = Clock::now();
      const dsl::CompiledKernel ck = dsl::compile_kernel(*k.spec, k.options);
      compile_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
      instrs += static_cast<f64>(ck.program.code.size());
      regs = std::max(regs, ck.regs_per_thread);
    }
    put("dsl.compile_ms_p50", median(compile_ms), "ms");
    put("ir.instr_count", instrs, "count");
    put("ir.regs_per_thread", regs, "count");
    put_idle("codegen.emit_ms", "ms");
    put_idle("codegen.source_bytes", "bytes");
    put_idle("jit.compile_s", "s");
  }

  (void)w.setup(0, /*wipe=*/false);
  w.compute_references();
  {
    std::vector<f64> fills;
    for (const auto& [key, ms] : w.fill_ms) fills.push_back(ms);
    put("cache.fill_ms_p50", median(fills), "ms");
  }

  // Closed loops: untraced and traced alternate (trace.overhead_frac), and
  // one worker against nproc (server.worker_scaling).
  TraceRecorder rec;
  const PhaseResult warm = w.closed_loop(0.05 * S, w.nproc, w.nproc);
  total.merge(warm.tally);
  const pipeline::KernelCacheStats c0 = w.cache->stats();
  PhaseResult untraced, traced;
  f64 untraced_rps = 0.0, traced_rps = 0.0;
  Usage u_cpu;
  for (i32 rep = 0; rep < 2; ++rep) {
    const Usage a = usage();
    PhaseResult u = w.closed_loop(0.08 * S, w.nproc, w.nproc);
    const Usage b = usage();
    u_cpu.cpu_s += b.cpu_s - a.cpu_s;
    u_cpu.involuntary += b.involuntary - a.involuntary;
    PhaseResult t =
        rec.traced([&] { return w.closed_loop(0.08 * S, w.nproc, w.nproc); });
    untraced_rps += u.ok_rps() / 2.0;
    traced_rps += t.ok_rps() / 2.0;
    untraced.tally.merge(u.tally);
    untraced.wall_s += u.wall_s;
    for (std::size_t d = 0; d < u.fleet.devices.size(); ++d) {
      if (untraced.fleet.devices.size() <= d) untraced.fleet.devices.emplace_back();
      untraced.fleet.devices[d].routed += u.fleet.devices[d].routed;
    }
    traced.tally.merge(t.tally);
  }
  const pipeline::KernelCacheStats c1 = w.cache->stats();
  const PhaseResult one = w.closed_loop(0.08 * S, w.nproc, 1);
  total.merge(untraced.tally);
  total.merge(traced.tally);
  total.merge(one.tally);
  put("trace.overhead_frac",
      untraced_rps > 0.0 ? 1.0 - traced_rps / untraced_rps : 0.0, "fraction");
  put("server.worker_scaling",
      one.ok_rps() > 0.0 ? untraced_rps / one.ok_rps() : 0.0, "ratio");
  put("cpu_util", u_cpu.cpu_s / (untraced.wall_s * w.nproc), "fraction");
  put("ctx_switches_per_req",
      untraced.tally.attempted > 0
          ? static_cast<f64>(u_cpu.involuntary) /
                static_cast<f64>(untraced.tally.attempted)
          : 0.0,
      "count");
  detail["closed_loop"]["untraced_rps"] = untraced_rps;
  detail["closed_loop"]["traced_rps"] = traced_rps;
  detail["closed_loop"]["one_worker_rps"] = one.ok_rps();
  detail["closed_loop"]["one_worker_total_workers"] =
      std::max<i32>(1, static_cast<i32>(w.def.devices.size()));

  // Cache counters over the untraced and traced closed loops.
  {
    const bool n = native;
    const u64 hits = n ? c1.native_hits - c0.native_hits : c1.hits - c0.hits;
    const u64 misses =
        n ? c1.native_misses - c0.native_misses : c1.misses - c0.misses;
    const u64 coalesced = n ? c1.native_coalesced - c0.native_coalesced
                            : c1.coalesced - c0.coalesced;
    const u64 evictions = n ? c1.native_evictions - c0.native_evictions
                            : c1.evictions - c0.evictions;
    const u64 lookups = hits + misses + coalesced;
    put("cache.hit_rate",
        lookups > 0 ? static_cast<f64>(hits + coalesced) /
                          static_cast<f64>(lookups)
                    : 0.0,
        "fraction");
    put("cache.misses", static_cast<f64>(misses), "count");
    put("cache.evictions", static_cast<f64>(evictions), "count");
    put("cache.coalesced", static_cast<f64>(coalesced), "count");
  }

  // Fleet placement and the server's queue/exec split: open loop at the
  // workload's offered load where it has one, else the closed loop.
  if (!w.def.devices.empty()) {
    u64 routed = 0, top = 0;
    for (const fleet::FleetDeviceStats& d : untraced.fleet.devices) {
      routed += d.routed;
      top = std::max(top, d.routed);
    }
    put("fleet.route_share_max",
        routed > 0 ? static_cast<f64>(top) / static_cast<f64>(routed) : 0.0,
        "fraction");
  } else {
    put_idle("fleet.route_share_max", "fraction");
  }
  const Tally* split = &untraced.tally;
  std::optional<PhaseResult> open;
  if (w.def.offered_rps > 0.0) {
    open = w.open_loop(0.2 * S, w.def.offered_rps);
    total.merge(open->tally);
    split = &open->tally;
    put("loadgen.lag_p99_ms", percentile(open->tally.lag_ms, 99.0), "ms");
    const auto frac = [&](u64 v) {
      return open->fleet.submitted > 0
                 ? static_cast<f64>(v) /
                       static_cast<f64>(open->fleet.submitted)
                 : 0.0;
    };
    put("fleet.shed_frac", frac(open->fleet.shed), "fraction");
    put("fleet.rejected_frac", frac(open->fleet.rejected), "fraction");
  } else {
    put_idle("loadgen.lag_p99_ms", "ms");
    put_idle("fleet.shed_frac", "fraction");
    put_idle("fleet.rejected_frac", "fraction");
  }
  put("server.queue_wait_ms_p50", percentile(split->queue_ms, 50.0), "ms");
  put("server.queue_wait_ms_p99", percentile(split->queue_ms, 99.0), "ms");
  put("server.exec_ms_p50", percentile(split->exec_ms, 50.0), "ms");
  detail["server_split_source"] = open ? "open_loop" : "closed_loop";

  // Warm cache lookups.
  {
    std::vector<f64> lookup_us;
    const std::string device = w.server_config(w.slices.front(), 1)
                                   .executor.sim.device.name;
    for (const KernelRef& k : kernels) {
      for (i32 r = 0; r < 51; ++r) {  // the first call may fill (interp)
        const Clock::time_point t0 = Clock::now();
        if (native) {
          (void)w.cache->get_or_compile_native(*k.spec, k.options, device);
        } else {
          (void)w.cache->get_or_compile(*k.spec, k.options, device);
        }
        if (r > 0) lookup_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
      }
    }
    put("cache.lookup_us_p50", median(lookup_us), "us");
  }

  // ISP speedup: naive / isp module time per kernel on its own images.
  if (native) {
    std::vector<f64> ratios;
    for (std::size_t t = 0; t < kernels.size(); ++t) {
      const KernelRef& k = kernels[t];
      PreparedCombo& pc = w.slices[k.slice].prepared[k.combo];
      const auto in =
          pc.inputs(w.slices[k.slice].combos[k.combo].graph->stages[k.stage]);
      Image<f32> out(pc.images[0].size());
      std::vector<f64> naive_ms, isp_ms;
      const Clock::time_point stop = after(Clock::now(), 0.02);
      while (isp_ms.size() < 5 || Clock::now() < stop) {
        naive_ms.push_back(exec::run_native_module(*twins[t].naive, in, out));
        isp_ms.push_back(exec::run_native_module(*twins[t].isp, in, out));
      }
      ratios.push_back(median(naive_ms) / median(isp_ms));
    }
    put("kernel.isp_speedup", geomean(ratios), "ratio");
  } else {
    put_idle("kernel.isp_speedup", "ratio");
  }

  // The ladder, traced.
  Ladder L;
  const std::size_t ladder_first = rec.events.size();
  rec.traced([&] {
    run_ladder(w, 0.3 * S, roof, L);
    return 0;
  });
  total.merge(L.tally);
  const std::span<const obs::TraceEvent> ladder_events(
      rec.events.data() + ladder_first, rec.events.size() - ladder_first);
  std::map<std::string, std::pair<f64, u64>> span_sum;  // name -> (us, count)
  for (const obs::TraceEvent& ev : ladder_events) {
    auto& [us, n] = span_sum[ev.name];
    us += ev.dur_us;
    ++n;
  }
  std::vector<f64> rung_ms;
  obs::Json rungs = obs::Json::object();
  for (const std::string& r : L.rungs) {
    const auto& [us, n] = span_sum["bench.ladder." + r];
    rung_ms.push_back(n > 0 ? us / 1e3 / static_cast<f64>(n) : 0.0);
    rungs[r] = rung_ms.back();
  }
  detail["ladder_rung_ms_per_req"] = std::move(rungs);
  obs::Json by_combo = obs::Json::object();
  for (const auto& [key, v] : L.by_combo) {
    by_combo[key] = v.first / static_cast<f64>(v.second);
  }
  detail["module_ms_per_req_by_combo"] = std::move(by_combo);
  // Self time of each layer: its rung minus the next. A negative difference
  // is noise and counts as 0; the amount clamped is the ladder's closure
  // error (top rung = module rung + self times + ladder noise).
  const std::size_t off = L.rungs.front() == "fleet" ? 0 : 1;
  const char* self_names[] = {"fleet.self_ms", "server.self_ms",
                              "executor.self_ms", "backend.self_ms"};
  f64 attributed = rung_ms.back();
  for (std::size_t r = 0; r + 1 < rung_ms.size(); ++r) {
    const f64 self = std::max(0.0, rung_ms[r] - rung_ms[r + 1]);
    attributed += self;
    put(self_names[r + off], self, "ms");
  }
  if (off == 1) put_idle("fleet.self_ms", "ms");
  detail["ladder_noise_ms_per_req"] = rung_ms.front() - attributed;
  // Unattributed: top-rung time that none of the program's spans covers.
  const auto [uncovered, top_us] =
      uncovered_us(ladder_events, "bench.ladder." + L.rungs.front());
  put("unattributed_frac", top_us > 0.0 ? uncovered / top_us : 0.0,
      "fraction");
  put("kernel.ms_per_req", rung_ms.back(), "ms");
  if (L.rungs.front() == "fleet") {
    put("fleet.submit_us_p50", percentile(L.submit_us, 50.0), "us");
  } else {
    put_idle("fleet.submit_us_p50", "us");
  }
  if (native) {
    put("kernel.gbps", L.module_s > 0.0 ? L.bytes / L.module_s / 1e9 : 0.0,
        "GB/s");
    put("kernel.roofline_frac",
        L.module_s > 0.0 ? L.roofline_s / L.module_s : 0.0, "fraction");
    put_idle("sim.launch_ms_p50", "ms");
    put_idle("sim.warp_instr_per_s", "1/s");
    put_idle("sim.warp_instr_per_req", "count");
  } else {
    put_idle("kernel.gbps", "GB/s");
    put_idle("kernel.roofline_frac", "fraction");
    put("sim.launch_ms_p50", median(L.launch_ms), "ms");
    put("sim.warp_instr_per_s",
        L.module_s > 0.0 ? static_cast<f64>(L.warp_instr) / L.module_s : 0.0,
        "1/s");
    put("sim.warp_instr_per_req",
        L.module_requests > 0 ? static_cast<f64>(L.warp_instr) /
                                    static_cast<f64>(L.module_requests)
                              : 0.0,
        "count");
  }
  detail["kernel_bytes_are"] = "computed from image sizes, one pass per input "
                               "and output";
  detail["idle_layers"] = std::move(idle);
  detail["trace_events"] = static_cast<u64>(rec.events.size());
  if (!p.trace_path.empty()) {
    std::ofstream(p.trace_path) << obs::chrome_trace_json(rec.events).dump()
                                << "\n";
  }
  return m;
}

}  // namespace perfbench
