#include "pipeline/server.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "resilience/fault_injector.hpp"

namespace ispb::pipeline {

namespace {

f64 ms_between(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<f64, std::milli>(b - a).count();
}

void publish_status(ServeStatus status) {
  obs::MetricsRegistry* reg = obs::MetricsRegistry::installed();
  if (reg == nullptr) return;
  reg->add("pipeline.server.requests", 1.0,
           {{"status", std::string(to_string(status))}});
}

/// Runs one request to a ServeResponse (kOk, kError, or kDeadlineExpired
/// when the thread's Deadline cut it off) and aggregates the
/// per-stage resilience outcome: attempts beyond the first into `retries`,
/// whether any stage was served by the breaker's naive fallback, and the
/// variant that reached the caller (kNaive if *any* stage degraded to it —
/// the conservative answer to "what quality of service did I get").
void execute_request(const PipelineExecutor& executor, const KernelGraph& graph,
                     const Image<f32>& source,
                     std::optional<exec::Backend> backend,
                     std::optional<codegen::Variant> variant,
                     ServeResponse& response, u64& retries) {
  try {
    obs::ScopedSpan span("pipeline.server.request", "pipeline");
    span.arg("graph", graph.name);
    resilience::fault_point("server.exec", graph.name);
    ExecutorResult result = executor.run(graph, source, backend, variant);
    response.sim_time_ms = result.total_time_ms;
    codegen::Variant variant = result.stages.empty()
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
        variant = codegen::Variant::kNaive;
      }
      if (stage.backend_used == exec::Backend::kInterpreted) {
        backend_used = exec::Backend::kInterpreted;
      }
    }
    response.variant_used = variant;
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
  }
  return "?";
}

PipelineServer::PipelineServer(ServerConfig config)
    : config_(std::move(config)),
      breakers_(config_.breaker, config_.clock),
      executor_([this] {
        ExecutorConfig ec = config_.executor;
        if (config_.breakers_enabled && ec.breakers == nullptr) {
          ec.breakers = &breakers_;
        }
        if (ec.clock == nullptr) ec.clock = config_.clock;
        return ec;
      }()),
      paused_(config_.start_paused),
      slo_(config_.slo) {
  ISPB_EXPECTS(config_.workers >= 1);
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (i32 i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  sweeper_ = std::thread([this] { sweeper_loop(); });
}

PipelineServer::~PipelineServer() { shutdown(); }

std::future<ServeResponse> PipelineServer::submit(ServeRequest request) {
  Item item;
  item.request = std::move(request);
  std::future<ServeResponse> future = item.promise.get_future();
  enqueue(std::move(item));
  return future;
}

void PipelineServer::submit_async(
    ServeRequest request, std::function<void(ServeResponse&&)> on_done) {
  ISPB_EXPECTS(on_done != nullptr);
  Item item;
  item.request = std::move(request);
  item.callback = std::move(on_done);
  enqueue(std::move(item));
}

void PipelineServer::enqueue(Item item) {
  ISPB_EXPECTS(item.request.graph != nullptr &&
               item.request.source != nullptr);
  item.submitted_at = Clock::now();
  if (item.request.deadline_ms > 0.0) {
    item.deadline.at =
        item.submitted_at +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<f64, std::milli>(item.request.deadline_ms));
  }
  if (obs::TraceSession::active()) {
    item.request_id = obs::TraceSession::next_request_id();
    item.root_span_id = obs::TraceSession::next_span_id();
    item.submitted_ns = obs::TraceSession::now_ns();
  }

  bool was_accepting = true;
  bool rejected = false;
  bool wake_sweeper = false;
  {
    std::lock_guard lock(mu_);
    ++stats_.submitted;
    was_accepting = accepting_;
    if (!accepting_ || queue_.size() >= config_.queue_capacity) {
      ++stats_.rejected;
      rejected = true;
    } else {
      ++stats_.accepted;
      // The sweeper must wake earlier than planned only for an earlier
      // deadline; later ones are found by the rescan of its planned wake.
      if (item.deadline.at < sweeper_wake_) {
        sweeper_wake_ = item.deadline.at;
        wake_sweeper = true;
      }
      queue_.push_back(std::move(item));
    }
  }
  if (rejected) {
    // Settled outside mu_ so a submit_async callback may re-dispatch into
    // another server (or even this one) without lock-order trouble.
    ServeResponse response;
    response.status = ServeStatus::kRejected;
    response.error = was_accepting ? "queue full" : "server shut down";
    publish_status(response.status);
    slo_.record(obs::SloOutcome::kRejected, 0.0, obs::steady_now_ms());
    settle(item, std::move(response));
    return;
  }
  work_cv_.notify_one();
  if (wake_sweeper) sweeper_cv_.notify_one();
}

void PipelineServer::settle(Item& item, ServeResponse&& response) {
  if (item.callback) {
    item.callback(std::move(response));
    return;
  }
  item.promise.set_value(std::move(response));
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
  std::lock_guard lock(mu_);
  return stats_;
}

obs::SloSnapshot PipelineServer::slo_snapshot() const {
  return slo_.snapshot(obs::steady_now_ms());
}

resilience::HealthState PipelineServer::health() const {
  resilience::HealthState h;
  h.breakers = breakers_.snapshot();
  std::lock_guard lock(mu_);
  h.retries = retries_;
  h.fallbacks_served = fallbacks_;
  h.watchdog_expired = stats_.watchdog_expired;
  h.queue_expired = stats_.deadline_expired - stats_.watchdog_expired;
  return h;
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
    for (Item& item : expired) expire_queued(std::move(item), now);
    lock.lock();
  }
}

void PipelineServer::expire_queued(Item item, Clock::time_point now) {
  ServeResponse response;
  response.status = ServeStatus::kDeadlineExpired;
  response.queue_ms = ms_between(item.submitted_at, now);
  response.total_ms = response.queue_ms;
  response.error = "deadline expired after " +
                   std::to_string(response.queue_ms) +
                   " ms queued (never dequeued)";
  {
    std::lock_guard lock(mu_);
    ++stats_.deadline_expired;
  }
  publish_status(response.status);
  slo_.record(obs::SloOutcome::kDeadlineMiss, response.total_ms,
              obs::steady_now_ms());
  if (item.request_id != 0) {
    // Close the request's trace tree: it spent its whole life queued.
    const u64 end_ns = obs::TraceSession::now_ns();
    obs::record_span("pipeline.server.queue_wait", "pipeline",
                     item.submitted_ns, end_ns, item.request_id,
                     item.root_span_id);
    obs::record_span("pipeline.server.request.root", "pipeline",
                     item.submitted_ns, end_ns, item.request_id, 0,
                     item.root_span_id);
  }
  settle(item, std::move(response));
}

void PipelineServer::process(Item item) {
  const Clock::time_point dequeued_at = Clock::now();
  ServeResponse response;
  bool deadline_cut = false;
  u64 retries = 0;

  if (item.request_id != 0) {
    obs::record_span("pipeline.server.queue_wait", "pipeline",
                     item.submitted_ns, obs::TraceSession::now_ns(),
                     item.request_id, item.root_span_id);
  }

  if (dequeued_at >= item.deadline.at) {
    response.status = ServeStatus::kDeadlineExpired;
    response.error = "deadline expired after " +
                     std::to_string(ms_between(item.submitted_at, dequeued_at)) +
                     " ms queued";
  } else {
    // The request's spans (executor, cache fills, launches, retries) hang
    // off its root span, and its deadline bounds every checkpoint below.
    obs::TraceContext::Scope trace_scope({item.request_id, item.root_span_id});
    Deadline::Scope deadline_scope(item.deadline);
    execute_request(executor_, *item.request.graph, *item.request.source,
                    item.request.backend, item.request.variant, response,
                    retries);
    deadline_cut = response.status == ServeStatus::kDeadlineExpired;
  }

  finalize(std::move(item), std::move(response), dequeued_at, Clock::now(),
           deadline_cut, retries);
}

void PipelineServer::finalize(Item item, ServeResponse response,
                              Clock::time_point dequeued_at,
                              Clock::time_point finished_at, bool deadline_cut,
                              u64 retries) {
  response.queue_ms = ms_between(item.submitted_at, dequeued_at);
  response.exec_ms = ms_between(dequeued_at, finished_at);
  response.total_ms = ms_between(item.submitted_at, finished_at);

  {
    std::lock_guard lock(mu_);
    retries_ += retries;
    // Both degradation flavors count as "served by fallback" for health:
    // naive-for-isp and interpreted-for-native are the same story (the
    // request succeeded on the backup path).
    if (response.served_by_fallback || response.backend_fallback) ++fallbacks_;
    switch (response.status) {
      case ServeStatus::kOk:
        ++stats_.completed;
        stats_.total_latency_ms.record(response.total_ms);
        stats_.queue_latency_ms.record(response.queue_ms);
        stats_.exec_latency_ms.record(response.exec_ms);
        break;
      case ServeStatus::kDeadlineExpired:
        ++stats_.deadline_expired;
        if (deadline_cut) ++stats_.watchdog_expired;
        break;
      case ServeStatus::kError:
        ++stats_.errors;
        break;
      case ServeStatus::kRejected:
        break;  // counted at submit()
    }
  }
  const obs::SloOutcome outcome =
      response.status == ServeStatus::kOk ? obs::SloOutcome::kOk
      : response.status == ServeStatus::kDeadlineExpired
          ? obs::SloOutcome::kDeadlineMiss
          : obs::SloOutcome::kError;
  slo_.record(outcome, response.total_ms, obs::steady_now_ms());
  publish_status(response.status);
  if (obs::MetricsRegistry* reg = obs::MetricsRegistry::installed();
      reg != nullptr) {
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
  settle(item, std::move(response));
}

}  // namespace ispb::pipeline
