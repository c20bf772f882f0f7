// Workloads, set-up, output checking and the untraced serving phases.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "bench.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "dsl/runtime.hpp"
#include "image/generators.hpp"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

filters::MultiKernelApp app_by_name(const std::string& name) {
  for (filters::MultiKernelApp& app : filters::all_apps()) {
    if (app.name == name) return std::move(app);
  }
  throw ContractError("unknown app '" + name + "'");
}

}  // namespace

// ---- small helpers ---------------------------------------------------------

f64 percentile(std::vector<f64> v, f64 p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest value with at least p% of samples <= it.
  const f64 rank = std::ceil(p / 100.0 * static_cast<f64>(v.size()));
  const std::size_t idx = static_cast<std::size_t>(
      std::clamp<f64>(rank, 1.0, static_cast<f64>(v.size()))) - 1;
  return v[idx];
}

f64 median(std::vector<f64> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

bool bit_exact(const Image<f32>& a, const Image<f32>& b) {
  if (a.size() != b.size()) return false;
  for (i32 y = 0; y < a.height(); ++y) {
    if (std::memcmp(a.row(y).data(), b.row(y).data(),
                    static_cast<std::size_t>(a.width()) * sizeof(f32)) != 0) {
      return false;
    }
  }
  return true;
}

void Tally::merge(const Tally& o) {
  attempted += o.attempted;
  ok += o.ok;
  failed += o.failed;
  mismatched += o.mismatched;
  within_limit += o.within_limit;
  latency_ms.insert(latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
  queue_ms.insert(queue_ms.end(), o.queue_ms.begin(), o.queue_ms.end());
  exec_ms.insert(exec_ms.end(), o.exec_ms.begin(), o.exec_ms.end());
  lag_ms.insert(lag_ms.end(), o.lag_ms.begin(), o.lag_ms.end());
}

std::vector<const Image<f32>*> PreparedCombo::inputs(
    const pipeline::KernelGraph::Stage& stage) const {
  std::vector<const Image<f32>*> in;
  for (i32 id : stage.input_images) {
    in.push_back(&images[static_cast<std::size_t>(id)]);
  }
  return in;
}

std::size_t Slice::request_index(u64 i) const {
  const std::size_t n = combos.size();
  const std::vector<u32>& cycle = cycles[(i / n) % cycles.size()];
  return cycle[i % n];
}

const Combo& Slice::request(u64 i) const { return combos[request_index(i)]; }

// ---- workload definitions ----------------------------------------------------

WorkloadDef workload_def(const std::string& name) {
  WorkloadDef d;
  d.name = name;
  const std::vector<BorderPattern> all_patterns = {
      BorderPattern::kClamp, BorderPattern::kMirror, BorderPattern::kRepeat,
      BorderPattern::kConstant};
  if (name == "fleet-small") {
    // Small kernels: the serving layers, not the kernel, do most work.
    d.backend = exec::Backend::kNative;
    d.apps = {{"gaussian", 128}, {"laplace", 128}, {"sobel", 128}};
    d.patterns = all_patterns;
    d.devices = {sim::make_gtx680(), sim::make_rtx2080()};
    d.tiers = 3;
    d.offered_rps = 1500.0;
    d.latency_limit_ms = 2.0;
    d.deadline_ms = 1000.0;
    d.setup_repeats = 5;
  } else if (name == "interp-sweep") {
    // The paper-reproduction traffic on the interpreted backend.
    d.backend = exec::Backend::kInterpreted;
    d.apps = {{"gaussian", 64}, {"laplace", 64}, {"bilateral", 64},
              {"sobel", 64},    {"night", 64}};
    d.patterns = all_patterns;
    d.variants = {codegen::Variant::kNaive, codegen::Variant::kIsp,
                  codegen::Variant::kIspTiled};
    d.tiers = 1;
    d.latency_limit_ms = 250.0;
    d.cache_capacity = 24;
    d.setup_repeats = 12;
  } else {
    throw ContractError("unknown workload '" + name +
                        "' (fleet-small|interp-sweep)");
  }
  return d;
}

Workload::Workload(WorkloadDef d, Params p)
    : def(std::move(d)), params(std::move(p)) {
  nproc = std::max(1, static_cast<i32>(std::thread::hardware_concurrency()));
  corrupt_pending_ = params.corrupt_one;
  for (std::size_t si = 0; si < def.patterns.size(); ++si) {
    Slice s;
    s.pattern = def.patterns[si];
    s.sim.pattern = s.pattern;
    s.sim.variant = codegen::Variant::kIsp;
    for (std::size_t ai = 0; ai < def.apps.size(); ++ai) {
      const auto& [app_name, extent] = def.apps[ai];
      const auto graph = std::make_shared<const pipeline::KernelGraph>(
          pipeline::build_graph(app_by_name(app_name)));
      const auto source = std::make_shared<const Image<f32>>(make_noise_image(
          Size2{extent, extent},
          params.seed * 1000003ull + si * 101ull + ai * 7ull));
      std::vector<std::optional<codegen::Variant>> variants;
      for (codegen::Variant v : def.variants) variants.emplace_back(v);
      if (variants.empty()) variants.emplace_back(std::nullopt);
      for (const auto& v : variants) {
        s.combos.push_back(Combo{app_name, graph, source, v, ai});
      }
    }
    // Seeded permutation cycles: the order changes with the seed, the mix
    // of each cycle does not.
    Rng rng(params.seed * 7919ull + si);
    for (i32 c = 0; c < 16; ++c) {
      std::vector<u32> perm(s.combos.size());
      for (u32 k = 0; k < perm.size(); ++k) perm[k] = k;
      for (std::size_t k = perm.size(); k > 1; --k) {
        std::swap(perm[k - 1], perm[static_cast<std::size_t>(rng.uniform_i32(
                                   0, static_cast<i32>(k) - 1))]);
      }
      s.cycles.push_back(std::move(perm));
    }
    slices.push_back(std::move(s));
  }
}

pipeline::ServerConfig Workload::server_config(const Slice& s,
                                               i32 workers) const {
  pipeline::ServerConfig sc;
  sc.workers = std::max(1, workers);
  // Deep enough that admission never sheds at the offered rate: the open
  // loop measures queueing, not the overload ladder.
  sc.queue_capacity = 4096;
  sc.executor = pipeline::serving_executor_config();
  sc.executor.sim = s.sim;
  if (!def.devices.empty()) sc.executor.sim.device = def.devices.front();
  sc.executor.cache = cache.get();
  sc.executor.backend = def.backend;
  return sc;
}

fleet::FleetConfig Workload::fleet_config(const Slice& s, i32 workers) const {
  fleet::FleetConfig fc;
  fc.devices = def.devices;
  const i32 per_shard =
      std::max(1, workers / static_cast<i32>(def.devices.size()));
  fc.shard = server_config(s, per_shard);
  fc.admission.tiers = def.tiers;
  return fc;
}

// ---- the serving front -------------------------------------------------------

Front::Front(const Workload& w, const Slice& s, i32 workers, bool use_fleet)
    : w_(w) {
  if (use_fleet && !w.def.devices.empty()) {
    fleet_ = std::make_unique<fleet::FleetServer>(w.fleet_config(s, workers));
  } else {
    server_ =
        std::make_unique<pipeline::PipelineServer>(w.server_config(s, workers));
  }
}

Front::Pending Front::submit(const Combo& c, u64 index) {
  Pending p;
  if (fleet_ != nullptr) {
    fleet::FleetRequest r;
    r.graph = c.graph;
    r.source = c.source;
    r.deadline_ms = w_.def.deadline_ms;
    r.backend = w_.def.backend;
    r.tier = static_cast<u32>(index % w_.def.tiers);
    r.variant = c.variant;
    p.fleet_ = fleet_->submit(std::move(r));
  } else {
    pipeline::ServeRequest r;
    r.graph = c.graph;
    r.source = c.source;
    r.deadline_ms = w_.def.deadline_ms;
    r.backend = w_.def.backend;
    r.variant = c.variant;
    p.serve_ = server_->submit(std::move(r));
  }
  return p;
}

Front::Response Front::Pending::get() {
  Response out;
  pipeline::ServeResponse serve;
  if (fleet_.valid()) {
    fleet::FleetResponse r = fleet_.get();
    out.ok = r.status == fleet::FleetStatus::kOk;
    out.total_ms = r.total_ms;
    serve = std::move(r.serve);
  } else {
    serve = serve_.get();
    out.ok = serve.status == pipeline::ServeStatus::kOk;
    out.total_ms = serve.total_ms;
  }
  out.queue_ms = serve.queue_ms;
  out.exec_ms = serve.exec_ms;
  out.output = std::move(serve.output);
  return out;
}

void Front::shutdown() {
  if (fleet_ != nullptr) fleet_->shutdown();
  if (server_ != nullptr) server_->shutdown();
}

std::optional<fleet::FleetStats> Front::fleet_stats() const {
  if (fleet_ == nullptr) return std::nullopt;
  return fleet_->stats();
}

// ---- set-up -------------------------------------------------------------------

codegen::CodegenOptions stage_options(const Slice& s, const Combo& c) {
  // The executor's options for a stage (launch_stage_variant, no model).
  codegen::CodegenOptions o;
  o.pattern = s.sim.pattern;
  o.variant = c.variant.value_or(s.sim.variant);
  o.border_constant = s.sim.constant;
  o.tile_block = s.sim.block;
  return o;
}

std::vector<KernelRef> Workload::distinct_kernels() const {
  std::vector<KernelRef> out;
  std::set<std::string> seen;
  for (std::size_t si = 0; si < slices.size(); ++si) {
    const Slice& s = slices[si];
    for (std::size_t ci = 0; ci < s.combos.size(); ++ci) {
      const Combo& c = s.combos[ci];
      const codegen::CodegenOptions o = stage_options(s, c);
      for (std::size_t k = 0; k < c.graph->stages.size(); ++k) {
        const codegen::StencilSpec& spec = c.graph->stages[k].spec;
        if (seen.insert(pipeline::cache_key(spec, o, "")).second) {
          out.push_back(KernelRef{si, ci, k, &spec, o});
        }
      }
    }
  }
  return out;
}

f64 Workload::setup(i32 repeat_index, bool wipe) {
  const std::string dir = jit_dir(repeat_index);
  if (wipe) fs::remove_all(dir);
  fs::create_directories(dir);
  fill_ms.clear();
  std::mutex fill_mu;
  for (Slice& s : slices) {
    s.prepared.assign(s.combos.size(), PreparedCombo{});
    for (std::size_t ci = 0; ci < s.combos.size(); ++ci) {
      const Combo& c = s.combos[ci];
      PreparedCombo& pc = s.prepared[ci];
      pc.stages.resize(c.graph->stages.size());
      pc.images.push_back(*c.source);
      for (PreparedStage& ps : pc.stages) {
        ps.options = stage_options(s, c);
        pc.images.emplace_back(c.source->size());
      }
    }
  }
  const std::vector<KernelRef> tasks = distinct_kernels();

  const Clock::time_point t0 = Clock::now();
  cache = std::make_unique<pipeline::KernelCache>(def.cache_capacity);
  exec::JitConfig jit;
  jit.cache_dir = dir;
  cache->set_jit(jit);
  std::vector<std::unique_ptr<Front>> fronts;
  for (const Slice& s : slices) {
    fronts.push_back(std::make_unique<Front>(*this, s, nproc, true));
  }

  // Every distinct cache key compiles once. Native fleets key per device:
  // the first device compiles, later devices load the same on-disk
  // artifact, as serving would.
  std::vector<std::string> devices;
  for (const sim::DeviceSpec& d : def.devices) devices.push_back(d.name);
  if (devices.empty()) devices.push_back(slices.front().sim.device.name);

  for (std::size_t di = 0; di < devices.size(); ++di) {
    run_parallel(tasks.size(), nproc, [&](std::size_t i) {
      const KernelRef& t = tasks[i];
      const pipeline::KernelGraph::Stage& st =
          slices[t.slice].combos[t.combo].graph->stages[t.stage];
      PreparedStage& ps = slices[t.slice].prepared[t.combo].stages[t.stage];
      const Clock::time_point f0 = Clock::now();
      if (def.backend == exec::Backend::kNative) {
        auto m = cache->get_or_compile_native(st.spec, ps.options, devices[di]);
        if (di == 0) ps.module = std::move(m);
      } else {
        auto k = cache->get_or_compile(st.spec, ps.options, devices[di]);
        if (di == 0) ps.kernel = std::move(k);
      }
      if (di == 0) {
        const f64 ms = seconds_between(f0, Clock::now()) * 1e3;
        std::lock_guard lock(fill_mu);
        fill_ms.emplace_back(st.spec.name + "/" +
                                 std::string(codegen::to_string(ps.options.variant)) +
                                 "/" + std::string(to_string(ps.options.pattern)),
                             ms);
      }
    });
  }
  const f64 setup_s = seconds_between(t0, Clock::now());
  fronts.clear();

  // Stages shared by several combos (same key) compiled once; point the
  // duplicates at the resolved kernel.
  std::map<std::string, PreparedStage> by_key;
  for (Slice& s : slices) {
    for (std::size_t ci = 0; ci < s.combos.size(); ++ci) {
      for (std::size_t k = 0; k < s.prepared[ci].stages.size(); ++k) {
        PreparedStage& ps = s.prepared[ci].stages[k];
        const std::string key = pipeline::cache_key(
            s.combos[ci].graph->stages[k].spec, ps.options, "");
        if (ps.module != nullptr || ps.kernel != nullptr) {
          by_key.emplace(key, ps);
        } else {
          ps = by_key.at(key);
        }
      }
    }
  }
  return setup_s;
}

void Workload::compute_references() {
  for (std::size_t si = 0; si < slices.size(); ++si) {
    Slice& s = slices[si];
    s.refs.clear();
    for (std::size_t ai = 0; ai < def.apps.size(); ++ai) {
      const auto it = std::find_if(
          s.combos.begin(), s.combos.end(),
          [&](const Combo& c) { return c.ref == ai; });
      s.refs.push_back(filters::run_app_reference(
          app_by_name(def.apps[ai].first), *it->source, s.pattern,
          s.sim.constant));
    }
  }
}

void Workload::check(const Combo& c, std::size_t slice, Image<f32>& out,
                     f64 latency_ms, Tally& t) {
  if (corrupt_pending_.exchange(false)) {
    u32 bits = 0;
    std::memcpy(&bits, &out(0, 0), sizeof bits);
    bits ^= 1u;
    std::memcpy(&out(0, 0), &bits, sizeof bits);
  }
  if (!bit_exact(out, slices[slice].refs[c.ref])) {
    ++t.failed;
    ++t.mismatched;
    return;
  }
  ++t.ok;
  t.latency_ms.push_back(latency_ms);
  if (latency_ms <= def.latency_limit_ms) ++t.within_limit;
}

// ---- serving phases -------------------------------------------------------------

namespace {

void merge_fleet(fleet::FleetStats& into, const fleet::FleetStats& from) {
  into.submitted += from.submitted;
  into.shed += from.shed;
  into.rejected += from.rejected;
  if (into.devices.size() < from.devices.size()) {
    into.devices.resize(from.devices.size());
  }
  for (std::size_t i = 0; i < from.devices.size(); ++i) {
    into.devices[i].device = from.devices[i].device;
    into.devices[i].routed += from.devices[i].routed;
  }
}

}  // namespace

PhaseResult Workload::closed_loop(f64 seconds, i32 clients, i32 workers) {
  PhaseResult res;
  const f64 per_slice = seconds / static_cast<f64>(slices.size());
  for (std::size_t si = 0; si < slices.size(); ++si) {
    const Slice& s = slices[si];
    Front front(*this, s, workers, true);
    // Requests past the stop time finish the current cycle, so every slice
    // serves whole cycles (at least one) and the mix is exact whatever the
    // seed.
    const u64 n = s.combos.size();
    std::atomic<u64> next{0};
    std::atomic<u64> limit{~u64{0}};
    std::vector<Tally> tallies(static_cast<std::size_t>(clients));
    std::vector<Clock::time_point> last(static_cast<std::size_t>(clients));
    const Clock::time_point start = Clock::now();
    const Clock::time_point stop = after(start, per_slice);
    std::vector<std::thread> threads;
    for (i32 ci = 0; ci < clients; ++ci) {
      threads.emplace_back([&, ci] {
        Tally& t = tallies[static_cast<std::size_t>(ci)];
        Clock::time_point now = Clock::now();
        for (;;) {
          const u64 i = next++;
          if (now >= stop) {
            const u64 end = std::max<u64>(n, (i + n - 1) / n * n);
            u64 cur = limit.load();
            while (end < cur && !limit.compare_exchange_weak(cur, end)) {
            }
          }
          if (i >= limit.load()) break;
          const Combo& c = s.request(i);
          Front::Pending p = front.submit(c, i);
          Front::Response r = p.get();
          now = Clock::now();
          ++t.attempted;
          if (!r.ok) {
            ++t.failed;
            continue;
          }
          t.queue_ms.push_back(r.queue_ms);
          t.exec_ms.push_back(r.exec_ms);
          check(c, si, r.output, r.total_ms, t);
        }
        last[static_cast<std::size_t>(ci)] = now;
      });
    }
    for (std::thread& th : threads) th.join();
    res.wall_s += seconds_between(start, *std::max_element(last.begin(),
                                                           last.end()));
    for (const Tally& t : tallies) res.tally.merge(t);
    if (auto fs = front.fleet_stats()) merge_fleet(res.fleet, *fs);
  }
  return res;
}

PhaseResult Workload::open_loop(f64 seconds, f64 rate) {
  PhaseResult res;
  const f64 per_slice = seconds / static_cast<f64>(slices.size());
  for (std::size_t si = 0; si < slices.size(); ++si) {
    const Slice& s = slices[si];
    Front front(*this, s, nproc, true);
    struct Sent {
      std::size_t combo;
      f64 lag_ms;
      Front::Pending pending;
    };
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Sent> inflight;
    bool done = false;
    Tally t;
    // The collector settles responses in send order, so the generator never
    // blocks and finished outputs do not pile up in memory.
    std::thread collector([&] {
      for (;;) {
        std::unique_lock lock(mu);
        cv.wait(lock, [&] { return done || !inflight.empty(); });
        if (inflight.empty()) return;
        Sent sent = std::move(inflight.front());
        inflight.pop_front();
        lock.unlock();
        Front::Response r = sent.pending.get();
        ++t.attempted;
        t.lag_ms.push_back(sent.lag_ms);
        if (!r.ok) {
          ++t.failed;
          continue;
        }
        t.queue_ms.push_back(r.queue_ms);
        t.exec_ms.push_back(r.exec_ms);
        check(s.combos[sent.combo], si, r.output, sent.lag_ms + r.total_ms, t);
      }
    });
    Rng rng(params.seed * 104729ull + si);
    const Clock::time_point start = Clock::now();
    const Clock::time_point stop = after(start, per_slice);
    f64 due_s = 0.0;
    for (u64 i = 0;; ++i) {
      due_s += rng.exponential(rate);
      const Clock::time_point due = after(start, due_s);
      if (due >= stop && i % s.combos.size() == 0) break;
      std::this_thread::sleep_until(due);
      const f64 lag_ms = seconds_between(due, Clock::now()) * 1e3;
      const std::size_t ci = s.request_index(i);
      Front::Pending p = front.submit(s.combos[ci], i);
      {
        std::lock_guard lock(mu);
        inflight.push_back(Sent{ci, lag_ms, std::move(p)});
      }
      cv.notify_one();
    }
    {
      std::lock_guard lock(mu);
      done = true;
    }
    cv.notify_one();
    collector.join();
    res.wall_s += seconds_between(start, Clock::now());
    res.tally.merge(t);
    if (auto fs = front.fleet_stats()) merge_fleet(res.fleet, *fs);
  }
  return res;
}

f64 Workload::kernel_only(f64 seconds) {
  const f64 per_slice = seconds / static_cast<f64>(slices.size());
  u64 requests = 0;
  f64 wall_s = 0.0;
  Tally t;
  for (std::size_t si = 0; si < slices.size(); ++si) {
    Slice& s = slices[si];
    const Clock::time_point start = Clock::now();
    const Clock::time_point stop = after(start, per_slice);
    Clock::time_point now = start;
    std::vector<bool> ran(s.combos.size(), false);
    for (u64 i = 0; now < stop || i % s.combos.size() != 0; ++i) {
      const std::size_t ci = s.request_index(i);
      ran[ci] = true;
      const Combo& c = s.combos[ci];
      PreparedCombo& pc = s.prepared[ci];
      for (std::size_t k = 0; k < c.graph->stages.size(); ++k) {
        const auto in = pc.inputs(c.graph->stages[k]);
        if (def.backend == exec::Backend::kNative) {
          (void)exec::run_native_module(*pc.stages[k].module, in,
                                        pc.images[k + 1]);
        } else {
          (void)dsl::launch_on_sim(s.sim.device, *pc.stages[k].kernel, in,
                                   pc.images[k + 1], s.sim.block, false);
        }
      }
      ++requests;
      now = Clock::now();
    }
    wall_s += seconds_between(start, now);
    // The kernel-only outputs are the program's too: check the last image
    // of every combo once per slice.
    for (std::size_t ci = 0; ci < s.combos.size(); ++ci) {
      if (!ran[ci]) continue;
      ++t.attempted;
      check(s.combos[ci], si, s.prepared[ci].images.back(), 0.0, t);
    }
  }
  kernel_only_tally.merge(t);
  return wall_s > 0.0 ? static_cast<f64>(requests) / wall_s : 0.0;
}

}  // namespace perfbench
