#include "pipeline/executor.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>

#include "common/deadline.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
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

  exec::BackendRun run;
  if (backend == exec::Backend::kNative) {
    exec::NativeBackend engine(cache);
    run = engine.run(stage.spec, options, sim_cfg.device, inputs, out,
                     sim_cfg.block, sim_cfg.sampled);
  } else {
    exec::InterpretedBackend engine(cache);
    run = engine.run(stage.spec, options, sim_cfg.device, inputs, out,
                     sim_cfg.block, sim_cfg.sampled);
  }

  ExecutorResult::Stage s;
  s.kernel = stage.spec.name;
  s.variant_used = run.variant_used;
  s.regs_per_thread = run.regs_per_thread;
  s.stats = run.stats;
  s.backend_used = run.backend;
  return s;
}

/// One interpreted attempt at a stage: breaker gating, variant planning,
/// compile, launch, and — when the specialized path fails under an active
/// breaker — the transparent naive fallback (the runtime isp+m).
ExecutorResult::Stage run_stage_interp_once(
    const KernelGraph::Stage& stage, const ExecutorConfig& config,
    const std::vector<Image<f32>>& images, Image<f32>& out) {
  const filters::AppSimConfig& sim_cfg = config.sim;

  resilience::CircuitBreaker* breaker = nullptr;
  if (config.breakers != nullptr &&
      sim_cfg.variant != codegen::Variant::kNaive) {
    breaker = &config.breakers->get(stage.spec.name);
    if (!breaker->allow()) {
      // Open breaker: serve the naive variant without planning or touching
      // the (still failing) specialized path at all.
      ExecutorResult::Stage s =
          launch_stage_variant(stage, config, images, out,
                               codegen::Variant::kNaive,
                               exec::Backend::kInterpreted);
      s.served_by_fallback = true;
      return s;
    }
  }

  resilience::fault_point("executor.stage", stage.spec.name);
  try {
    codegen::Variant variant = sim_cfg.variant;
    if (sim_cfg.use_model) {
      const dsl::PlanDecision plan = dsl::plan_variant(
          sim_cfg.device, stage.spec, out.size(), sim_cfg.block,
          sim_cfg.pattern, sim_cfg.variant == codegen::Variant::kIspWarp);
      variant = plan.variant;
    }
    ExecutorResult::Stage s = launch_stage_variant(
        stage, config, images, out, variant, exec::Backend::kInterpreted);
    if (breaker != nullptr) breaker->record_success();
    return s;
  } catch (...) {
    if (breaker == nullptr) throw;
    if (!is_kernel_failure()) {
      breaker->release();
      throw;
    }
    breaker->record_failure();
    // Abandon the specialized path for this request and serve naive; the
    // caller still sees kOk, with the degradation visible in variant_used.
    ExecutorResult::Stage s =
        launch_stage_variant(stage, config, images, out,
                             codegen::Variant::kNaive,
                             exec::Backend::kInterpreted);
    s.served_by_fallback = true;
    return s;
  }
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

  resilience::CircuitBreaker* breaker = nullptr;
  if (config.breakers != nullptr) {
    breaker = &config.breakers->get(stage.spec.name + "#native");
    if (!breaker->allow()) {
      ExecutorResult::Stage s =
          run_stage_interp_once(stage, config, images, out);
      s.backend_fallback = true;
      return s;
    }
  }

  resilience::fault_point("executor.stage", stage.spec.name);
  try {
    ExecutorResult::Stage s = launch_stage_variant(
        stage, config, images, out, config.sim.variant,
        exec::Backend::kNative);
    if (breaker != nullptr) breaker->record_success();
    return s;
  } catch (...) {
    if (breaker == nullptr) throw;
    if (!is_kernel_failure()) {
      breaker->release();
      throw;
    }
    breaker->record_failure();
    ExecutorResult::Stage s = run_stage_interp_once(stage, config, images, out);
    s.backend_fallback = true;
    return s;
  }
}

/// Runs one stage under the retry policy and publishes resilience metrics.
/// Every attempt starts with a deadline checkpoint.
ExecutorResult::Stage run_stage(const KernelGraph::Stage& stage,
                                const ExecutorConfig& config,
                                const std::vector<Image<f32>>& images,
                                Image<f32>& out, exec::Backend backend) {
  resilience::RetryOutcome outcome;
  ExecutorResult::Stage s;
  try {
    s = resilience::retry_call(
        config.retry, config.clock,
        [&] {
          Deadline::current().check();
          return run_stage_once(stage, config, images, out, backend);
        },
        &outcome);
  } catch (...) {
    if (obs::MetricsRegistry* reg = obs::MetricsRegistry::installed();
        reg != nullptr && outcome.attempts > 1) {
      reg->add("resilience.retry.attempts",
               static_cast<f64>(outcome.attempts - 1),
               {{"site", "executor.stage"}});
    }
    throw;
  }
  s.attempts = outcome.attempts;
  if (obs::MetricsRegistry* reg = obs::MetricsRegistry::installed();
      reg != nullptr) {
    if (outcome.attempts > 1) {
      reg->add("resilience.retry.attempts",
               static_cast<f64>(outcome.attempts - 1),
               {{"site", "executor.stage"}});
    }
    if (s.served_by_fallback) {
      reg->add("resilience.fallback.served", 1.0,
               {{"kernel", stage.spec.name}});
    }
    if (s.backend_fallback) {
      reg->add("exec.backend.fallback", 1.0, {{"kernel", stage.spec.name}});
    }
  }
  return s;
}

}  // namespace

PipelineExecutor::PipelineExecutor(ExecutorConfig config)
    : config_(std::move(config)) {
  ISPB_EXPECTS(config_.concurrency >= 0);
}

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

  const std::size_t n = graph.stages.size();
  // images[0] = source copy, images[i + 1] = stage i output. A stage writes
  // only its own slot and reads only slots of completed dependencies, so no
  // synchronization beyond scheduling order is needed.
  std::vector<Image<f32>> images;
  images.reserve(n + 1);
  images.push_back(source);
  for (std::size_t i = 0; i < n; ++i) images.emplace_back(source.size());

  ExecutorResult result;
  result.stages.resize(n);

  i32 concurrency = config.concurrency;
  if (concurrency == 0) {
    concurrency = std::min<i32>(
        {static_cast<i32>(graph.roots().size()), 8,
         std::max(1, static_cast<i32>(std::thread::hardware_concurrency()))});
  }

  if (concurrency <= 1 || n == 1) {
    // Inline: stage order is already topological.
    for (std::size_t i = 0; i < n; ++i) {
      result.stages[i] = run_stage(graph.stages[i], config, images,
                                   images[i + 1], engine);
    }
  } else {
    // Kahn scheduling over a dedicated pool (see header for why not the
    // global pool).
    std::vector<i32> remaining(n, 0);
    std::vector<std::vector<i32>> dependents(n);
    for (std::size_t i = 0; i < n; ++i) {
      remaining[i] = static_cast<i32>(graph.stages[i].deps.size());
      for (i32 dep : graph.stages[i].deps) {
        dependents[static_cast<std::size_t>(dep)].push_back(
            static_cast<i32>(i));
      }
    }

    ThreadPool pool(static_cast<unsigned>(concurrency));
    std::mutex mu;
    std::condition_variable done_cv;
    std::size_t pending = n;
    std::exception_ptr first_error;

    std::function<void(i32)> submit_stage;

    // Called under `mu` when a stage's last dependency settled: run it, or —
    // once a failure is recorded — settle it unrun and cascade.
    std::function<void(i32)> on_ready = [&](i32 stage_id) {
      if (first_error == nullptr) {
        submit_stage(stage_id);
        return;
      }
      if (--pending == 0) done_cv.notify_all();
      for (i32 dependent : dependents[static_cast<std::size_t>(stage_id)]) {
        if (--remaining[static_cast<std::size_t>(dependent)] == 0) {
          on_ready(dependent);
        }
      }
    };

    // Pool workers are fresh threads with empty trace contexts and no
    // deadline; carry the caller's (the request this run belongs to) onto
    // each stage task so stage spans stay in the request's tree and stages
    // stop at the request's deadline.
    const obs::TraceContext trace_ctx = obs::TraceContext::current();
    const Deadline deadline = Deadline::current();
    submit_stage = [&, trace_ctx, deadline](i32 stage_id) {
      pool.submit([&, trace_ctx, deadline, stage_id] {
        obs::TraceContext::Scope trace_scope(trace_ctx);
        Deadline::Scope deadline_scope(deadline);
        const auto idx = static_cast<std::size_t>(stage_id);
        ExecutorResult::Stage outcome;
        std::exception_ptr error;
        try {
          outcome = run_stage(graph.stages[idx], config, images,
                              images[idx + 1], engine);
        } catch (...) {
          error = std::current_exception();
        }
        std::lock_guard lock(mu);
        if (error == nullptr) {
          result.stages[idx] = std::move(outcome);
        } else if (first_error == nullptr) {
          first_error = error;
        }
        if (--pending == 0) done_cv.notify_all();
        for (i32 dependent : dependents[idx]) {
          if (--remaining[static_cast<std::size_t>(dependent)] == 0) {
            on_ready(dependent);
          }
        }
      });
    };

    {
      std::lock_guard lock(mu);
      for (i32 root : graph.roots()) submit_stage(root);
    }
    std::unique_lock lock(mu);
    done_cv.wait(lock, [&] { return pending == 0; });
    lock.unlock();
    pool.wait_idle();  // let the last task fully exit its closure
    if (first_error != nullptr) std::rethrow_exception(first_error);
  }

  for (const ExecutorResult::Stage& stage : result.stages) {
    result.total_time_ms += stage.stats.time_ms;
  }
  result.output = std::move(images.back());
  return result;
}

}  // namespace ispb::pipeline
