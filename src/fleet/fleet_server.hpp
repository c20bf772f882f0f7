// Fleet names, mapped onto the one serving stack.
//
// A fleet is a pipeline::PipelineServer with one execution target per
// device (see pipeline/server.hpp for placement, device quarantine,
// failover and the admission ladder). These names keep fleet-shaped
// callers compiling: FleetConfig describes the fleet per device (`shard`
// is the per-device server template) and server_config() turns it into
// the one server's config — shard.workers x devices workers and
// shard.queue_capacity x devices queue slots, the same threads and
// admission thresholds as one server per device. Nothing here owns a
// thread, lock, queue, deadline or counter.
#pragma once

#include <future>
#include <utility>
#include <vector>

#include "pipeline/server.hpp"

namespace ispb::fleet {

using FleetStatus = pipeline::ServeStatus;
using FleetRequest = pipeline::ServeRequest;
using FleetStats = pipeline::ServerStats;
using FleetDeviceStats = pipeline::TargetStats;

struct FleetConfig {
  /// Devices to serve on, one target each; at least one.
  std::vector<sim::DeviceSpec> devices;
  /// Per-device server template (workers and queue_capacity count per
  /// device; executor.sim.device is replaced per target).
  pipeline::ServerConfig shard;
  pipeline::AdmissionConfig admission;
  resilience::BreakerConfig device_breaker;
  /// Clock for the breakers and retry backoff unless shard.clock is set;
  /// nullptr = wall clock.
  resilience::Clock* clock = nullptr;
};

/// The one server's config for `fleet`.
[[nodiscard]] inline pipeline::ServerConfig server_config(FleetConfig fleet) {
  pipeline::ServerConfig config = std::move(fleet.shard);
  const auto devices = static_cast<i32>(fleet.devices.size());
  config.workers *= devices;
  config.queue_capacity *= fleet.devices.size();
  config.devices = std::move(fleet.devices);
  config.admission = fleet.admission;
  config.device_breaker = fleet.device_breaker;
  if (config.clock == nullptr) config.clock = fleet.clock;
  return config;
}

struct FleetResponse {
  FleetStatus status = FleetStatus::kOk;
  f64 total_ms = 0.0;  ///< submit -> settle wall time
  pipeline::ServeResponse serve;
};

class FleetServer : public pipeline::PipelineServer {
 public:
  explicit FleetServer(FleetConfig config)
      : PipelineServer(server_config(std::move(config))) {}

  /// PipelineServer::submit() with the response wrapped on get() (the
  /// returned future is deferred: it runs no thread).
  [[nodiscard]] std::future<FleetResponse> submit(FleetRequest request) {
    return std::async(
        std::launch::deferred,
        [served = PipelineServer::submit(std::move(request))]() mutable {
          pipeline::ServeResponse r = served.get();
          return FleetResponse{r.status, r.total_ms, std::move(r)};
        });
  }
};

}  // namespace ispb::fleet
