#include "pipeline/executor.hpp"

#include "common/deadline.hpp"
#include "common/error.hpp"
#include "dsl/compile.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "resilience/fault_injector.hpp"

namespace ispb::pipeline {

namespace {

/// Call from a catch block. False for errors that say nothing about the
/// kernel and that no fallback can help: contract violations (bad geometry
/// fails on every engine) and an expired request deadline. Those pass
/// through the breakers and fallbacks untouched.
bool is_kernel_failure() {
  try {
    throw;
  } catch (const ContractError&) {
    return false;
  } catch (const DeadlineExceeded&) {
    return false;
  } catch (...) {
    return true;
  }
}

/// Compiles (through the cache) and launches one stage with a fixed
/// variant on the given engine; the building block the primary path, the
/// breaker's naive fallback and the backend fallback all share.
ExecutorResult::Stage launch_stage_variant(const KernelGraph::Stage& stage,
                                           const ExecutorConfig& config,
                                           const std::vector<Image<f32>>& images,
                                           Image<f32>& out,
                                           codegen::Variant variant,
                                           exec::Backend backend) {
  const filters::AppSimConfig& sim_cfg = config.sim;
  codegen::CodegenOptions options;
  options.pattern = sim_cfg.pattern;
  options.variant = variant;
  options.border_constant = sim_cfg.constant;
  // Tiled staging is specialized to the launch block shape; keep the two in
  // lockstep so the interpreted engine's tile contract holds.
  options.tile_block = sim_cfg.block;

  KernelCache* cache = nullptr;
  if (config.use_cache) {
    cache = config.cache != nullptr ? config.cache : &KernelCache::global();
  }

  std::vector<const Image<f32>*> inputs;
  inputs.reserve(stage.input_images.size());
  for (i32 img : stage.input_images) {
    inputs.push_back(&images[static_cast<std::size_t>(img)]);
  }

  // Device-level fault point: fires for every launch attempt on this
  // simulated device (primary, breaker fallback and retry alike), so a
  // chaos "kill" rule takes the whole device down — naive fallback
  // included — and the server has to fail the request over to another
  // device target.
  resilience::fault_point("device.launch", sim_cfg.device.name);

  exec::InterpretedBackend interp(cache);
  exec::NativeBackend native(cache);
  exec::ExecutionBackend& engine =
      backend == exec::Backend::kNative
          ? static_cast<exec::ExecutionBackend&>(native)
          : interp;
  const exec::BackendRun run = engine.run(stage.spec, options, sim_cfg.device,
                                          inputs, out, sim_cfg.block,
                                          sim_cfg.sampled);

  ExecutorResult::Stage s;
  s.kernel = stage.spec.name;
  s.variant_used = run.variant_used;
  s.regs_per_thread = run.regs_per_thread;
  s.stats = run.stats;
  s.backend_used = run.backend;
  return s;
}

/// One breaker-guarded attempt: `primary` runs unless the breaker is open,
/// and a kernel failure is recorded on the breaker; an open breaker or a
/// recorded failure serves `fallback` instead, marked by `flag`. An open
/// breaker skips the failing path and its `executor.stage` fault point.
/// Errors that are not kernel failures release the breaker's probe slot
/// and pass through; without a breaker every error passes through.
template <typename Primary, typename Fallback>
ExecutorResult::Stage guarded_attempt(resilience::CircuitBreaker* breaker,
                                      const std::string& kernel,
                                      bool ExecutorResult::Stage::*flag,
                                      Primary primary, Fallback fallback) {
  if (breaker == nullptr || breaker->allow()) {
    resilience::fault_point("executor.stage", kernel);
    try {
      ExecutorResult::Stage s = primary();
      if (breaker != nullptr) breaker->record_success();
      return s;
    } catch (...) {
      if (breaker == nullptr) throw;
      if (!is_kernel_failure()) {
        breaker->release();
        throw;
      }
      breaker->record_failure();
    }
  }
  ExecutorResult::Stage s = fallback();
  s.*flag = true;
  return s;
}

/// One interpreted attempt at a stage: breaker gating, variant planning,
/// compile, launch, and — when the specialized path fails under an active
/// breaker — the transparent naive fallback (the runtime isp+m). The
/// caller still sees kOk, with the degradation visible in variant_used.
ExecutorResult::Stage run_stage_interp_once(
    const KernelGraph::Stage& stage, const ExecutorConfig& config,
    const std::vector<Image<f32>>& images, Image<f32>& out) {
  const filters::AppSimConfig& sim_cfg = config.sim;
  resilience::CircuitBreaker* breaker =
      config.breakers != nullptr && sim_cfg.variant != codegen::Variant::kNaive
          ? &config.breakers->get(stage.spec.name)
          : nullptr;
  return guarded_attempt(
      breaker, stage.spec.name, &ExecutorResult::Stage::served_by_fallback,
      [&] {
        codegen::Variant variant = sim_cfg.variant;
        if (sim_cfg.use_model) {
          variant = dsl::plan_variant(sim_cfg.device, stage.spec, out.size(),
                                      sim_cfg.block, sim_cfg.pattern,
                                      variant == codegen::Variant::kIspWarp)
                        .variant;
        }
        return launch_stage_variant(stage, config, images, out, variant,
                                    exec::Backend::kInterpreted);
      },
      [&] {
        return launch_stage_variant(stage, config, images, out,
                                    codegen::Variant::kNaive,
                                    exec::Backend::kInterpreted);
      });
}

/// One attempt at a stage on the selected engine. The native path has its
/// own breaker (keyed "<kernel>#native", distinct from the variant
/// breaker): when the native toolchain keeps failing — or the breaker is
/// already open — the stage is served by the full interpreted path
/// instead, bit-identically, with the degradation visible in
/// backend_used/backend_fallback. ContractError and DeadlineExceeded pass
/// through untouched (is_kernel_failure).
ExecutorResult::Stage run_stage_once(const KernelGraph::Stage& stage,
                                     const ExecutorConfig& config,
                                     const std::vector<Image<f32>>& images,
                                     Image<f32>& out, exec::Backend backend) {
  if (backend != exec::Backend::kNative) {
    return run_stage_interp_once(stage, config, images, out);
  }
  resilience::CircuitBreaker* breaker =
      config.breakers != nullptr
          ? &config.breakers->get(stage.spec.name + "#native")
          : nullptr;
  return guarded_attempt(
      breaker, stage.spec.name, &ExecutorResult::Stage::backend_fallback,
      [&] {
        return launch_stage_variant(stage, config, images, out,
                                    config.sim.variant,
                                    exec::Backend::kNative);
      },
      [&] { return run_stage_interp_once(stage, config, images, out); });
}

/// Runs one stage under the retry policy and publishes resilience metrics.
/// Every attempt starts with a deadline checkpoint.
ExecutorResult::Stage run_stage(const KernelGraph::Stage& stage,
                                const ExecutorConfig& config,
                                const std::vector<Image<f32>>& images,
                                Image<f32>& out, exec::Backend backend) {
  obs::MetricsRegistry* reg = obs::MetricsRegistry::installed();
  resilience::RetryOutcome outcome;
  const auto count_retries = [&] {
    if (reg != nullptr && outcome.attempts > 1) {
      reg->add("resilience.retry.attempts",
               static_cast<f64>(outcome.attempts - 1),
               {{"site", "executor.stage"}});
    }
  };
  const auto attempt = [&] {
    Deadline::current().check();
    return run_stage_once(stage, config, images, out, backend);
  };
  ExecutorResult::Stage s;
  try {
    s = resilience::retry_call(config.retry, config.clock, attempt, &outcome);
  } catch (...) {
    count_retries();
    throw;
  }
  count_retries();
  s.attempts = outcome.attempts;
  if (reg != nullptr && s.served_by_fallback) {
    reg->add("resilience.fallback.served", 1.0, {{"kernel", stage.spec.name}});
  }
  if (reg != nullptr && s.backend_fallback) {
    reg->add("exec.backend.fallback", 1.0, {{"kernel", stage.spec.name}});
  }
  return s;
}

}  // namespace

ExecutorResult PipelineExecutor::run(
    const KernelGraph& graph, const Image<f32>& source,
    std::optional<exec::Backend> backend,
    std::optional<codegen::Variant> variant) const {
  graph.validate();
  // A per-run variant override pins every stage (model selection off);
  // config_ is copied only on that cold path.
  std::optional<ExecutorConfig> pinned;
  if (variant.has_value()) {
    pinned = config_;
    pinned->sim.variant = *variant;
    pinned->sim.use_model = false;
  }
  const ExecutorConfig& config = pinned.has_value() ? *pinned : config_;
  const exec::Backend engine = backend.value_or(config.backend);
  obs::ScopedSpan span("pipeline.execute", "pipeline");
  span.arg("graph", graph.name);
  span.arg("stages", static_cast<i64>(graph.stages.size()));
  span.arg("backend", std::string(exec::to_string(engine)));

  // images[0] = source copy, images[i + 1] = stage i output. Stage order is
  // topological, so every image a stage reads is complete when it runs.
  const std::size_t n = graph.stages.size();
  std::vector<Image<f32>> images;
  images.reserve(n + 1);
  images.push_back(source);
  for (std::size_t i = 0; i < n; ++i) images.emplace_back(source.size());

  ExecutorResult result;
  result.stages.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    result.stages.push_back(
        run_stage(graph.stages[i], config, images, images[i + 1], engine));
    result.total_time_ms += result.stages.back().stats.time_ms;
  }
  result.output = std::move(images.back());
  return result;
}

}  // namespace ispb::pipeline
