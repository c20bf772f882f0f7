#include "pipeline/server.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "resilience/fault_injector.hpp"

namespace ispb::pipeline {

/// One execution target: a device, its executor and its health.
struct PipelineServer::Target {
  Target(const sim::DeviceSpec& spec, const ServerConfig& config,
         bool quarantinable)
      : device(spec),
        breakers(config.breaker, config.clock),
        executor([&] {
          ExecutorConfig ec = config.executor;
          ec.sim.device = spec;
          if (config.breakers_enabled && ec.breakers == nullptr) {
            ec.breakers = &breakers;
          }
          if (ec.clock == nullptr) ec.clock = config.clock;
          return ec;
        }()),
        breaker(quarantinable ? std::make_unique<resilience::CircuitBreaker>(
                                    "device:" + spec.name,
                                    config.device_breaker, config.clock)
                              : nullptr),
        speed([&] {
          // Modeled issue capacity at the kernels' rough occupancy: the
          // occupancy/throughput model the planner uses, evaluated without
          // compiling anything. A 46-SM Turing outweighs an 8-SMX Kepler.
          const sim::Occupancy occ = sim::compute_occupancy(
              spec, config.executor.sim.block, /*regs_per_thread=*/32);
          return static_cast<f64>(spec.num_sms) * spec.clock_ghz *
                 sim::throughput_factor(spec, occ);
        }()) {}

  sim::DeviceSpec device;
  resilience::BreakerRegistry breakers;  ///< per-kernel; before executor
  PipelineExecutor executor;
  /// Device quarantine breaker; null for the lone target of a server
  /// configured without `devices`.
  std::unique_ptr<resilience::CircuitBreaker> breaker;
  f64 speed;  ///< placement weight
};

namespace {

f64 ms_between(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<f64, std::milli>(b - a).count();
}

/// Runs one attempt of `request` on a target to a ServeResponse (kOk,
/// kError, or kDeadlineExpired when the thread's Deadline cut it off) and
/// aggregates the per-stage resilience outcome: attempts beyond the first
/// into `retries`, whether any stage was served by the breaker's naive
/// fallback, and the variant that reached the caller (kNaive if *any*
/// stage degraded to it — the conservative answer to "what quality of
/// service did I get").
void run_attempt(const PipelineExecutor& executor, const std::string& device,
                 bool quarantinable, bool probe, const ServeRequest& request,
                 std::optional<codegen::Variant> variant,
                 ServeResponse& response, u64& retries) {
  try {
    obs::ScopedSpan span("pipeline.server.request", "pipeline");
    span.arg("graph", request.graph->name);
    span.arg("device", device);
    Deadline::current().check();  // no attempt on a spent budget
    if (quarantinable) resilience::fault_point("shard.dispatch", device);
    if (probe) resilience::fault_point("health.probe", device);
    resilience::fault_point("server.exec", request.graph->name);
    ExecutorResult result = executor.run(*request.graph, *request.source,
                                         request.backend, variant);
    response.sim_time_ms = result.total_time_ms;
    codegen::Variant variant_used = result.stages.empty()
                                        ? codegen::Variant::kNaive
                                        : result.stages.back().variant_used;
    exec::Backend backend_used = result.stages.empty()
                                     ? exec::Backend::kInterpreted
                                     : result.stages.back().backend_used;
    for (const ExecutorResult::Stage& stage : result.stages) {
      retries += stage.attempts > 0 ? stage.attempts - 1 : 0;
      response.served_by_fallback |= stage.served_by_fallback;
      response.backend_fallback |= stage.backend_fallback;
      if (stage.variant_used == codegen::Variant::kNaive) {
        variant_used = codegen::Variant::kNaive;
      }
      if (stage.backend_used == exec::Backend::kInterpreted) {
        backend_used = exec::Backend::kInterpreted;
      }
    }
    response.variant_used = variant_used;
    response.backend_used = backend_used;
    response.output = std::move(result.output);
  } catch (const DeadlineExceeded& e) {
    response.status = ServeStatus::kDeadlineExpired;
    response.error = e.what();
  } catch (const std::exception& e) {
    response.status = ServeStatus::kError;
    response.error = e.what();
  } catch (...) {
    response.status = ServeStatus::kError;
    response.error = "unknown execution error";
  }
}

}  // namespace

std::string_view to_string(ServeStatus s) {
  switch (s) {
    case ServeStatus::kOk:
      return "ok";
    case ServeStatus::kRejected:
      return "rejected";
    case ServeStatus::kDeadlineExpired:
      return "deadline_expired";
    case ServeStatus::kError:
      return "error";
    case ServeStatus::kShed:
      return "shed";
  }
  return "?";
}

PipelineServer::PipelineServer(ServerConfig config)
    : config_(std::move(config)),
      paused_(config_.start_paused),
      slo_(config_.slo) {
  ISPB_EXPECTS(config_.workers >= 1);
  if (config_.admission) {
    const AdmissionConfig& a = *config_.admission;
    ISPB_EXPECTS(a.tiers >= 1 && a.shed_start > 0.0 &&
                 a.shed_start <= a.brownout_start &&
                 a.brownout_start <= a.reject_start);
  }
  const bool quarantinable = !config_.devices.empty();
  const std::vector<sim::DeviceSpec> devices =
      quarantinable ? config_.devices
                    : std::vector<sim::DeviceSpec>{config_.executor.sim.device};
  for (const sim::DeviceSpec& device : devices) {
    targets_.push_back(
        std::make_unique<Target>(device, config_, quarantinable));
    stats_.devices.push_back({.device = device.name});
  }
  stats_.tiers.resize(config_.admission ? config_.admission->tiers : 1);
  for (std::size_t t = 0; t < stats_.tiers.size(); ++t) {
    stats_.tiers[t].tier = static_cast<u32>(t);
  }

  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (i32 i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  sweeper_ = std::thread([this] { sweeper_loop(); });
}

PipelineServer::~PipelineServer() { shutdown(); }

std::future<ServeResponse> PipelineServer::submit(ServeRequest request) {
  ISPB_EXPECTS(request.graph != nullptr && request.source != nullptr);
  Item item;
  item.request = std::move(request);
  item.request.tier = std::min<u32>(
      item.request.tier, config_.admission ? config_.admission->tiers - 1 : 0);
  item.submitted_at = Clock::now();
  if (item.request.deadline_ms > 0.0) {
    item.deadline.at =
        item.submitted_at +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<f64, std::milli>(item.request.deadline_ms));
  }
  std::future<ServeResponse> future = item.promise.get_future();

  // Admission: a refused request settles (outside mu_) before returning.
  ServeResponse refused;
  bool wake_sweeper = false;
  {
    std::lock_guard lock(mu_);
    ++stats_.submitted;
    ++stats_.tiers[item.request.tier].submitted;
    const f64 occupancy =
        static_cast<f64>(queue_.size() + executing_) /
        static_cast<f64>(config_.queue_capacity +
                         static_cast<std::size_t>(config_.workers));
    const AdmissionDecision decision =
        config_.admission ? admission_decision(*config_.admission,
                                               item.request.tier, occupancy)
                          : AdmissionDecision::kAdmit;
    const auto at = [&] {
      return " at occupancy " + std::to_string(occupancy);
    };
    if (!accepting_) {
      refused.status = ServeStatus::kRejected;
      refused.error = "server shut down";
    } else if (decision == AdmissionDecision::kReject) {
      refused.status = ServeStatus::kRejected;
      refused.error = "admission: server saturated" + at();
    } else if (decision == AdmissionDecision::kShed) {
      refused.status = ServeStatus::kShed;
      refused.error =
          "admission: shed tier " + std::to_string(item.request.tier) + at();
    } else if (queue_.size() >= config_.queue_capacity) {
      refused.status = ServeStatus::kRejected;
      refused.error = "queue full";
    } else {
      ++stats_.accepted;
      item.browned_out = decision == AdmissionDecision::kBrownout;
      if (obs::TraceSession::active()) {
        item.request_id = obs::TraceSession::next_request_id();
        item.root_span_id = obs::TraceSession::next_span_id();
        item.submitted_ns = obs::TraceSession::now_ns();
      }
      // The sweeper must wake earlier than planned only for an earlier
      // deadline; later ones are found by the rescan of its planned wake.
      if (item.deadline.at < sweeper_wake_) {
        sweeper_wake_ = item.deadline.at;
        wake_sweeper = true;
      }
      queue_.push_back(std::move(item));
    }
  }
  if (refused.status != ServeStatus::kOk) {
    finalize(std::move(item), std::move(refused), false, 0);
    return future;
  }
  work_cv_.notify_one();
  if (wake_sweeper) sweeper_cv_.notify_one();
  return future;
}

void PipelineServer::resume() {
  {
    std::lock_guard lock(mu_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

void PipelineServer::shutdown() {
  {
    std::lock_guard lock(mu_);
    accepting_ = false;
    draining_ = true;
    paused_ = false;  // a paused server still drains its queue
  }
  work_cv_.notify_all();
  sweeper_cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  if (sweeper_.joinable()) sweeper_.join();
}

ServerStats PipelineServer::stats() const {
  ServerStats out;
  {
    std::lock_guard lock(mu_);
    out = stats_;
  }
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    if (targets_[i]->breaker == nullptr) continue;
    const resilience::BreakerSnapshot b = targets_[i]->breaker->snapshot();
    out.devices[i].probes = b.probes;
    out.devices[i].quarantines = b.trips;
  }
  return out;
}

obs::SloSnapshot PipelineServer::slo_snapshot() const {
  return slo_.snapshot(obs::steady_now_ms());
}

resilience::HealthState PipelineServer::health() const {
  resilience::HealthState h;
  for (const auto& target : targets_) {
    for (resilience::BreakerSnapshot& b : target->breakers.snapshot()) {
      h.breakers.push_back(std::move(b));
    }
  }
  std::lock_guard lock(mu_);
  h.retries = retries_;
  h.fallbacks_served = fallbacks_;
  h.watchdog_expired = stats_.watchdog_expired;
  h.queue_expired = stats_.deadline_expired - stats_.watchdog_expired;
  return h;
}

std::vector<resilience::BreakerSnapshot> PipelineServer::device_health()
    const {
  std::vector<resilience::BreakerSnapshot> out;
  for (const auto& target : targets_) {
    if (target->breaker != nullptr) out.push_back(target->breaker->snapshot());
  }
  return out;
}

void PipelineServer::worker_loop() {
  for (;;) {
    Item item;
    {
      std::unique_lock lock(mu_);
      work_cv_.wait(lock, [this] {
        return draining_ || (!paused_ && !queue_.empty());
      });
      if (queue_.empty()) {
        if (draining_) return;
        continue;  // spurious wake while paused
      }
      item = std::move(queue_.front());
      queue_.pop_front();
      item.dequeued_at = Clock::now();
      ++executing_;
    }
    process(std::move(item));
  }
}

void PipelineServer::sweeper_loop() {
  // Sweeps the queue for requests whose deadline passed before any worker
  // dequeued them — which a paused or saturated server would otherwise sit
  // on indefinitely — and settles them kDeadlineExpired. Runs even while
  // paused_; exits on drain (the drain itself settles whatever remains).
  std::unique_lock lock(mu_);
  for (;;) {
    if (draining_) return;

    Clock::time_point next = Clock::time_point::max();
    for (const Item& it : queue_) next = std::min(next, it.deadline.at);
    const Clock::time_point now = Clock::now();
    if (next > now) {
      sweeper_wake_ = next;
      if (next == Clock::time_point::max()) {
        sweeper_cv_.wait(lock);  // woken by an earlier deadline or shutdown
      } else {
        sweeper_cv_.wait_until(lock, next);
      }
      continue;
    }

    std::vector<Item> expired;
    for (auto it = queue_.begin(); it != queue_.end();) {
      if (it->deadline.at <= now) {
        expired.push_back(std::move(*it));
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
    lock.unlock();
    for (Item& item : expired) {
      ServeResponse response;
      response.status = ServeStatus::kDeadlineExpired;
      response.error = "deadline expired after " +
                       std::to_string(ms_between(item.submitted_at, now)) +
                       " ms queued (never dequeued)";
      if (item.request_id != 0) {
        obs::record_span("pipeline.server.queue_wait", "pipeline",
                         item.submitted_ns, obs::TraceSession::now_ns(),
                         item.request_id, item.root_span_id);
      }
      finalize(std::move(item), std::move(response), false, 0);
    }
    lock.lock();
  }
}

void PipelineServer::process(Item item) {
  if (item.request_id != 0) {
    obs::record_span("pipeline.server.queue_wait", "pipeline",
                     item.submitted_ns, obs::TraceSession::now_ns(),
                     item.request_id, item.root_span_id);
  }
  ServeResponse response;
  u64 retries = 0;
  bool deadline_cut = false;
  if (item.dequeued_at >= item.deadline.at) {
    response.status = ServeStatus::kDeadlineExpired;
    response.error =
        "deadline expired after " +
        std::to_string(ms_between(item.submitted_at, item.dequeued_at)) +
        " ms queued";
  } else {
    // Every attempt's spans hang off the request's root span, and its one
    // deadline bounds every checkpoint across failover.
    obs::TraceContext::Scope trace_scope({item.request_id, item.root_span_id});
    Deadline::Scope deadline_scope(item.deadline);
    execute(item, response, retries);
    deadline_cut = response.status == ServeStatus::kDeadlineExpired;
  }
  finalize(std::move(item), std::move(response), deadline_cut, retries);
}

std::vector<std::size_t> PipelineServer::placement(
    const ServeRequest& request) const {
  if (!request.pin_device.empty()) {
    for (std::size_t i = 0; i < targets_.size(); ++i) {
      if (targets_[i]->device.name == request.pin_device) return {i};
    }
    return {};
  }
  if (targets_.size() == 1) return {0};
  std::vector<f64> score(targets_.size());
  {
    std::lock_guard lock(mu_);
    for (std::size_t i = 0; i < targets_.size(); ++i) {
      score[i] = static_cast<f64>(stats_.devices[i].executing + 1) /
                 targets_[i]->speed;
    }
  }
  std::vector<std::size_t> order(targets_.size());
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    order[i] = i;
    // Probe-first: a target whose breaker is not closed sorts ahead of
    // every closed one, in device order.
    if (targets_[i]->breaker->snapshot().state !=
        resilience::BreakerState::kClosed) {
      score[i] = -1.0;
    }
  }
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return score[a] < score[b];
  });
  return order;
}

void PipelineServer::execute(const Item& item, ServeResponse& response,
                             u64& retries) {
  const std::vector<std::size_t> order = placement(item.request);
  response.status = ServeStatus::kError;
  response.error = order.empty() ? "unknown pinned device '" +
                                       item.request.pin_device + "'"
                                 : "no eligible device: every candidate is "
                                   "quarantined";
  const std::optional<codegen::Variant> variant =
      item.browned_out ? codegen::Variant::kNaive : item.request.variant;
  u32 dispatches = 0;
  for (const std::size_t index : order) {
    Target& target = *targets_[index];
    resilience::CircuitBreaker* breaker = target.breaker.get();
    const bool probe = breaker != nullptr &&
                       breaker->snapshot().state !=
                           resilience::BreakerState::kClosed;
    if (breaker != nullptr && !breaker->allow()) continue;  // quarantined
    {
      std::lock_guard lock(mu_);
      ++stats_.devices[index].routed;
      ++stats_.devices[index].executing;
    }
    response = ServeResponse{};
    run_attempt(target.executor, target.device.name, breaker != nullptr, probe,
                item.request, variant, response, retries);
    response.device = target.device.name;
    response.dispatches = ++dispatches;
    {
      std::lock_guard lock(mu_);
      TargetStats& s = stats_.devices[index];
      --s.executing;
      if (response.status == ServeStatus::kOk) ++s.completed;
      if (response.status == ServeStatus::kError) ++s.errors;
    }
    if (breaker == nullptr) return;
    switch (response.status) {
      case ServeStatus::kOk:
        breaker->record_success();
        return;
      case ServeStatus::kError:
        breaker->record_failure();  // device failure: fail over
        continue;
      default:
        // The budget is spent, not the device: a probe cut by its deadline
        // gave no verdict and only frees its half-open slot.
        if (probe) breaker->release();
        return;
    }
  }
}

void PipelineServer::finalize(Item item, ServeResponse response,
                              bool deadline_cut, u64 retries) {
  const Clock::time_point finished_at = Clock::now();
  const bool dequeued = item.dequeued_at != Clock::time_point{};
  const Clock::time_point started = dequeued ? item.dequeued_at : finished_at;
  response.queue_ms = ms_between(item.submitted_at, started);
  response.exec_ms = ms_between(started, finished_at);
  response.total_ms = ms_between(item.submitted_at, finished_at);
  response.tier = item.request.tier;
  response.browned_out =
      item.browned_out && response.status == ServeStatus::kOk;

  {
    std::lock_guard lock(mu_);
    if (dequeued) --executing_;
    retries_ += retries;
    // Both degradation flavors count as "served by fallback" for health:
    // naive-for-isp and interpreted-for-native are the same story (the
    // request succeeded on the backup path).
    if (response.served_by_fallback || response.backend_fallback) ++fallbacks_;
    if (response.dispatches > 1) stats_.failovers += response.dispatches - 1;
    TierStats& tier = stats_.tiers[response.tier];
    switch (response.status) {
      case ServeStatus::kOk:
        ++stats_.completed;
        ++tier.completed;
        if (response.browned_out) ++tier.browned_out;
        stats_.total_latency_ms.record(response.total_ms);
        stats_.queue_latency_ms.record(response.queue_ms);
        stats_.exec_latency_ms.record(response.exec_ms);
        tier.latency_ms.record(response.total_ms);
        break;
      case ServeStatus::kDeadlineExpired:
        ++stats_.deadline_expired;
        ++tier.deadline_expired;
        if (deadline_cut) ++stats_.watchdog_expired;
        break;
      case ServeStatus::kError:
        ++stats_.errors;
        ++tier.errors;
        break;
      case ServeStatus::kRejected:
        ++stats_.rejected;
        ++tier.rejected;
        break;
      case ServeStatus::kShed:
        ++stats_.shed;
        ++tier.shed;
        break;
    }
  }
  const obs::SloOutcome outcome =
      response.status == ServeStatus::kOk ? obs::SloOutcome::kOk
      : response.status == ServeStatus::kDeadlineExpired
          ? obs::SloOutcome::kDeadlineMiss
      : response.status == ServeStatus::kError ? obs::SloOutcome::kError
                                               : obs::SloOutcome::kRejected;
  slo_.record(outcome, response.total_ms, obs::steady_now_ms());
  if (obs::MetricsRegistry* reg = obs::MetricsRegistry::installed();
      reg != nullptr) {
    reg->add("pipeline.server.requests", 1.0,
             {{"status", std::string(to_string(response.status))}});
    if (response.status == ServeStatus::kOk) {
      reg->observe("pipeline.server.latency_ms", response.total_ms);
      reg->observe("pipeline.server.queue_ms", response.queue_ms);
    }
    if (deadline_cut) reg->add("resilience.watchdog.expired", 1.0);
  }
  if (deadline_cut && config_.flight_recorder != nullptr) {
    // Crash-dump breadcrumb: what was cut, how long it had run, and the
    // window state at the moment of the cut.
    obs::Json frame = obs::Json::object();
    frame["graph"] = item.request.graph->name;
    frame["queue_ms"] = response.queue_ms;
    frame["exec_ms"] = response.exec_ms;
    frame["deadline_ms"] = item.request.deadline_ms;
    frame["slo"] = slo_.snapshot(obs::steady_now_ms()).to_json();
    config_.flight_recorder->note("watchdog_cut", std::move(frame));
  }
  if (item.request_id != 0) {
    obs::record_span("pipeline.server.request.root", "pipeline",
                     item.submitted_ns, obs::TraceSession::now_ns(),
                     item.request_id, 0, item.root_span_id);
  }
  item.promise.set_value(std::move(response));
}

}  // namespace ispb::pipeline
