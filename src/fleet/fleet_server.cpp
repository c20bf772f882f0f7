#include "fleet/fleet_server.hpp"

#include <algorithm>
#include <chrono>

#include "common/error.hpp"
#include "core/model.hpp"
#include "obs/metrics.hpp"
#include "resilience/fault_injector.hpp"

namespace ispb::fleet {

namespace {

f64 ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<f64, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void publish_fleet_status(FleetStatus status) {
  obs::MetricsRegistry* reg = obs::MetricsRegistry::installed();
  if (reg == nullptr) return;
  reg->add("fleet.requests", 1.0,
           {{"status", std::string(to_string(status))}});
}

}  // namespace

std::string_view to_string(FleetStatus s) {
  switch (s) {
    case FleetStatus::kOk:
      return "ok";
    case FleetStatus::kShed:
      return "shed";
    case FleetStatus::kRejected:
      return "rejected";
    case FleetStatus::kDeadlineExpired:
      return "deadline_expired";
    case FleetStatus::kError:
      return "error";
  }
  return "?";
}

FleetServer::FleetServer(FleetConfig config)
    : config_(std::move(config)), admission_(config_.admission) {
  ISPB_EXPECTS(!config_.devices.empty() && config_.devices.size() <= 64);
  stats_.devices.resize(config_.devices.size());
  stats_.tiers.resize(config_.admission.tiers);
  for (u32 t = 0; t < config_.admission.tiers; ++t) stats_.tiers[t].tier = t;

  shards_.reserve(config_.devices.size());
  for (std::size_t i = 0; i < config_.devices.size(); ++i) {
    auto shard = std::make_unique<Shard>();
    shard->device = config_.devices[i];
    stats_.devices[i].device = shard->device.name;
    pipeline::ServerConfig sc = config_.shard;
    sc.executor.sim.device = shard->device;
    if (sc.clock == nullptr) sc.clock = config_.clock;
    shard->server = std::make_unique<pipeline::PipelineServer>(std::move(sc));
    shard->breaker = std::make_unique<resilience::CircuitBreaker>(
        "device:" + shard->device.name, config_.device_breaker, config_.clock);
    shards_.push_back(std::move(shard));
  }
}

FleetServer::~FleetServer() { shutdown(); }

std::future<FleetResponse> FleetServer::submit(FleetRequest request) {
  ISPB_EXPECTS(request.graph != nullptr && request.source != nullptr);
  auto p = std::make_shared<Pending>();
  p->tier = std::min(request.tier, config_.admission.tiers - 1);
  p->request = std::move(request);
  p->submitted_at = std::chrono::steady_clock::now();
  std::future<FleetResponse> future = p->promise.get_future();

  const f64 occ = occupancy();
  {
    std::lock_guard lock(mu_);
    ++stats_.submitted;
    ++stats_.tiers[p->tier].submitted;
  }
  if (!accepting_.load(std::memory_order_acquire)) {
    settle(p, FleetStatus::kRejected, {}, "", "fleet shut down");
    return future;
  }
  switch (admission_.decide(p->tier, occ)) {
    case AdmissionDecision::kReject:
      settle(p, FleetStatus::kRejected, {}, "",
             "admission: fleet saturated (occupancy " + std::to_string(occ) +
                 ")");
      return future;
    case AdmissionDecision::kShed:
      settle(p, FleetStatus::kShed, {}, "",
             "admission: shed tier " + std::to_string(p->tier) +
                 " at occupancy " + std::to_string(occ));
      return future;
    case AdmissionDecision::kBrownout:
      p->browned_out = true;
      break;
    case AdmissionDecision::kAdmit:
      break;
  }
  route(p);
  return future;
}

void FleetServer::route(const PendingPtr& p) {
  // Deadline covers failover hops too: once the budget is gone the request
  // settles instead of burning another device.
  f64 remaining_ms = 0.0;
  if (p->request.deadline_ms > 0.0) {
    remaining_ms = p->request.deadline_ms - ms_since(p->submitted_at);
    if (remaining_ms <= 0.0) {
      pipeline::ServeResponse r;
      r.status = pipeline::ServeStatus::kDeadlineExpired;
      settle(p, FleetStatus::kDeadlineExpired, std::move(r), "",
             "deadline expired during placement/failover");
      return;
    }
  }

  if (!p->request.pin_device.empty()) {
    std::size_t pin = shards_.size();
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (shards_[i]->device.name == p->request.pin_device) pin = i;
    }
    if (pin == shards_.size()) {
      settle(p, FleetStatus::kError, {}, "",
             "unknown pinned device '" + p->request.pin_device + "'");
      return;
    }
    if ((p->tried_mask >> pin) & 1u) {
      settle(p, p->exhausted_status, {}, "", p->last_error);
      return;
    }
    const bool was_closed = shards_[pin]->breaker->snapshot().state ==
                            resilience::BreakerState::kClosed;
    if (!shards_[pin]->breaker->allow()) {
      settle(p, FleetStatus::kError, {}, "",
             "pinned device '" + p->request.pin_device + "' is quarantined");
      return;
    }
    dispatch_to(p, pin, /*probe=*/!was_closed);
    return;
  }

  // Probe-first: a quarantined device whose cooldown elapsed takes this
  // request as its half-open probe (breaker-bounded), so a healed device
  // re-enters rotation; otherwise pick the lowest-loaded-per-speed closed
  // shard.
  std::size_t best = shards_.size();
  f64 best_score = 0.0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if ((p->tried_mask >> i) & 1u) continue;
    Shard& shard = *shards_[i];
    if (shard.breaker->snapshot().state !=
        resilience::BreakerState::kClosed) {
      if (shard.breaker->allow()) {
        dispatch_to(p, i, /*probe=*/true);
        return;
      }
      continue;  // quarantined, cooldown still running
    }
    const f64 weight = speed_weight(i, *p->request.graph);
    const f64 score =
        static_cast<f64>(shard.inflight.load(std::memory_order_relaxed) + 1) /
        weight;
    if (best == shards_.size() || score < best_score) {
      best = i;
      best_score = score;
    }
  }
  if (best == shards_.size()) {
    settle(p, p->exhausted_status, {}, "",
           p->last_error.empty()
               ? "no eligible device (all tried or quarantined)"
               : p->last_error);
    return;
  }
  // The closed-state check above is advisory; allow() is authoritative and
  // may hand out a probe if the breaker tripped in between.
  if (!shards_[best]->breaker->allow()) {
    p->tried_mask |= u64{1} << best;
    route(p);
    return;
  }
  dispatch_to(p, best, /*probe=*/false);
}

void FleetServer::dispatch_to(const PendingPtr& p, std::size_t index,
                              bool probe) {
  Shard& shard = *shards_[index];
  p->tried_mask |= u64{1} << index;
  ++p->dispatches;
  try {
    resilience::fault_point("shard.dispatch", shard.device.name);
    if (probe) resilience::fault_point("health.probe", shard.device.name);
  } catch (const std::exception& e) {
    // Injected dispatch/probe failure: charge the device and move on.
    device_failure(index);
    {
      std::lock_guard lock(mu_);
      ++stats_.devices[index].errors;
    }
    p->last_error = e.what();
    p->exhausted_status = FleetStatus::kError;
    route(p);
    return;
  }
  {
    std::lock_guard lock(mu_);
    ++stats_.devices[index].routed;
  }
  shard.inflight.fetch_add(1, std::memory_order_relaxed);
  total_inflight_.fetch_add(1, std::memory_order_relaxed);

  pipeline::ServeRequest sreq;
  sreq.graph = p->request.graph;
  sreq.source = p->request.source;
  sreq.backend = p->request.backend;
  sreq.variant = p->request.variant;
  if (p->browned_out) sreq.variant = codegen::Variant::kNaive;
  if (p->request.deadline_ms > 0.0) {
    sreq.deadline_ms =
        std::max(0.1, p->request.deadline_ms - ms_since(p->submitted_at));
  }
  shard.server->submit_async(
      std::move(sreq), [this, p, index, probe](pipeline::ServeResponse&& r) {
        on_settle(p, index, probe, std::move(r));
      });
}

void FleetServer::on_settle(const PendingPtr& p, std::size_t index, bool probe,
                            pipeline::ServeResponse&& r) {
  Shard& shard = *shards_[index];
  shard.inflight.fetch_sub(1, std::memory_order_relaxed);
  total_inflight_.fetch_sub(1, std::memory_order_relaxed);

  switch (r.status) {
    case pipeline::ServeStatus::kOk:
      shard.breaker->record_success();
      {
        std::lock_guard lock(mu_);
        ++stats_.devices[index].completed;
      }
      settle(p, FleetStatus::kOk, std::move(r), shard.device.name, "");
      return;
    case pipeline::ServeStatus::kError:
      // Device-level failure: quarantine pressure + failover re-dispatch.
      device_failure(index);
      {
        std::lock_guard lock(mu_);
        ++stats_.devices[index].errors;
        ++stats_.failovers;
      }
      p->last_error = r.error;
      p->exhausted_status = FleetStatus::kError;
      route(p);
      return;
    case pipeline::ServeStatus::kDeadlineExpired:
      // Terminal: the budget is spent, not the device. A probe that timed
      // out did not prove health — re-open so the slot is not leaked.
      if (probe) shard.breaker->record_failure();
      settle(p, FleetStatus::kDeadlineExpired, std::move(r),
             shard.device.name, "");
      return;
    case pipeline::ServeStatus::kRejected:
      // Shard overflow (or drain): bounce to another shard, no health
      // penalty — a full queue is load, not sickness. (An admitted probe
      // must still release its slot; re-opening does that.)
      if (probe) shard.breaker->record_failure();
      {
        std::lock_guard lock(mu_);
        ++stats_.devices[index].rejected;
      }
      p->last_error = r.error;
      p->exhausted_status = FleetStatus::kRejected;
      route(p);
      return;
  }
}

void FleetServer::settle(const PendingPtr& p, FleetStatus status,
                         pipeline::ServeResponse&& serve, std::string device,
                         std::string error) {
  FleetResponse resp;
  resp.status = status;
  resp.serve = std::move(serve);
  resp.device = std::move(device);
  resp.tier = p->tier;
  resp.dispatches = p->dispatches;
  resp.browned_out = p->browned_out && status == FleetStatus::kOk;
  resp.total_ms = ms_since(p->submitted_at);
  resp.error = !error.empty() ? std::move(error) : resp.serve.error;

  {
    std::lock_guard lock(mu_);
    FleetTierStats& tier = stats_.tiers[p->tier];
    switch (status) {
      case FleetStatus::kOk:
        ++stats_.completed;
        ++tier.completed;
        if (resp.browned_out) ++tier.browned_out;
        tier.latency_ms.record(resp.total_ms);
        break;
      case FleetStatus::kShed:
        ++stats_.shed;
        ++tier.shed;
        break;
      case FleetStatus::kRejected:
        ++stats_.rejected;
        ++tier.rejected;
        break;
      case FleetStatus::kDeadlineExpired:
        ++stats_.deadline_expired;
        ++tier.deadline_expired;
        break;
      case FleetStatus::kError:
        ++stats_.errors;
        ++tier.errors;
        break;
    }
  }
  publish_fleet_status(status);
  p->promise.set_value(std::move(resp));
}

void FleetServer::device_failure(std::size_t index) {
  resilience::CircuitBreaker& breaker = *shards_[index]->breaker;
  const u64 trips_before = breaker.snapshot().trips;
  breaker.record_failure();
  if (breaker.snapshot().trips > trips_before) {
    std::lock_guard lock(mu_);
    ++stats_.devices[index].quarantines;
  }
}

f64 FleetServer::speed_weight(std::size_t index,
                              const pipeline::KernelGraph& graph) {
  const Shard& shard = *shards_[index];
  const std::string key = shard.device.name + "|" + graph.name;
  {
    std::lock_guard lock(mu_);
    const auto it = weights_.find(key);
    if (it != weights_.end()) return it->second;
  }
  // Modeled instruction load of the graph (device-independent; a nominal
  // image size cancels across devices) against the device's issue capacity
  // at the kernels' rough occupancy — the same occupancy/cost model the
  // planner uses, evaluated without compiling anything.
  const sim::DeviceSpec& dev = shard.device;
  const BlockSize block = config_.shard.executor.sim.block;
  f64 instructions = 0.0;
  for (const pipeline::KernelGraph::Stage& stage : graph.stages) {
    const ModelInputs in = default_model_inputs(
        Size2{256, 256}, block, stage.spec.window(),
        config_.shard.executor.sim.pattern);
    instructions += naive_instructions(in);
  }
  instructions = std::max(instructions, 1.0);
  const sim::Occupancy occ =
      sim::compute_occupancy(dev, block, /*regs_per_thread=*/32);
  const f64 capacity = static_cast<f64>(dev.num_sms) * dev.clock_ghz *
                       sim::throughput_factor(dev, occ);
  const f64 weight = std::max(capacity / instructions, 1e-12);
  std::lock_guard lock(mu_);
  weights_.emplace(key, weight);
  return weight;
}

void FleetServer::resume() {
  for (auto& shard : shards_) shard->server->resume();
}

void FleetServer::shutdown() {
  accepting_.store(false, std::memory_order_release);
  // Draining shard k may fail requests over into shard k+1 (still live) or
  // shard k-1 (already drained; the re-dispatch settles inline as
  // rejected). Either way every pending request is settled by the time the
  // last shard finishes draining.
  for (auto& shard : shards_) shard->server->shutdown();
}

FleetStats FleetServer::stats() const {
  FleetStats out;
  {
    std::lock_guard lock(mu_);
    out = stats_;
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const resilience::BreakerSnapshot b = shards_[i]->breaker->snapshot();
    out.devices[i].probes = b.probes;
    out.devices[i].inflight =
        shards_[i]->inflight.load(std::memory_order_relaxed);
  }
  return out;
}

std::vector<resilience::BreakerSnapshot> FleetServer::device_health() const {
  std::vector<resilience::BreakerSnapshot> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) out.push_back(shard->breaker->snapshot());
  return out;
}

std::vector<std::pair<std::string, obs::SloSnapshot>> FleetServer::device_slo()
    const {
  std::vector<std::pair<std::string, obs::SloSnapshot>> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    out.emplace_back(shard->device.name, shard->server->slo_snapshot());
  }
  return out;
}

f64 FleetServer::occupancy() const {
  const f64 slots =
      static_cast<f64>(shards_.size()) *
      (static_cast<f64>(config_.shard.queue_capacity) +
       static_cast<f64>(std::max(config_.shard.workers, 1)));
  return static_cast<f64>(total_inflight_.load(std::memory_order_relaxed)) /
         std::max(slots, 1.0);
}

}  // namespace ispb::fleet
