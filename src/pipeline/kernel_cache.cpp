#include "pipeline/kernel_cache.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <filesystem>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "resilience/fault_injector.hpp"

namespace ispb::pipeline {

namespace {

/// A poisoned entry (cache.insert corruption fault, or the bit rot it
/// models). Negative register demand can never come out of the compiler.
bool is_poisoned(const KernelCache::KernelPtr& k) {
  return k == nullptr || k->regs_per_thread < 0;
}

constexpr u64 kFnvOffset = 14695981039346656037ull;
constexpr u64 kFnvPrime = 1099511628211ull;

void fnv_bytes(u64& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

template <typename T>
void fnv_value(u64& h, const T& v) {
  fnv_bytes(h, &v, sizeof(v));
}

std::string hex64(u64 v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (i32 i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[v & 0xf];
    v >>= 4;
  }
  return out;
}

/// The CodegenOptions fields that change the emitted C++ — everything else
/// (warp width, IR pass toggles, row-block schedule) only shapes the
/// interpreted lowering, and kIspWarp lowers to the same host loops as
/// kIsp. kIspTiled stays distinct: its Body loop stages a per-block tile
/// buffer, so it is a different module (and tile_block, part of the cache
/// key, shapes that buffer). Folding the rest means the serving matrix
/// JIT-compiles at most 3 modules per (spec, pattern).
codegen::CodegenOptions canonical_native_options(
    const codegen::CodegenOptions& options) {
  codegen::CodegenOptions canon = options;
  if (canon.variant == codegen::Variant::kIspWarp) {
    canon.variant = codegen::Variant::kIsp;
  }
  canon.warp_width = 32;
  canon.optimize = true;
  canon.row_blocks = true;
  return canon;
}

}  // namespace

u64 spec_fingerprint(const codegen::StencilSpec& spec) {
  u64 h = kFnvOffset;
  fnv_bytes(h, spec.name.data(), spec.name.size());
  fnv_value(h, spec.num_inputs);
  fnv_value(h, spec.output);
  for (const codegen::Node& n : spec.nodes) {
    fnv_value(h, n.kind);
    // Hash the exact bit pattern so 0.0f and -0.0f constants stay distinct.
    fnv_value(h, std::bit_cast<u32>(n.value));
    fnv_value(h, n.input);
    fnv_value(h, n.dx);
    fnv_value(h, n.dy);
    fnv_value(h, n.lhs);
    fnv_value(h, n.rhs);
  }
  return h;
}

std::string cache_key(const codegen::StencilSpec& spec,
                      const codegen::CodegenOptions& options,
                      std::string_view /*device*/) {
  std::string key;
  key.reserve(64 + spec.name.size());
  key += spec.name;
  key += '/';
  key += hex64(spec_fingerprint(spec));
  key += '/';
  key += to_string(options.pattern);
  key += '/';
  key += codegen::to_string(options.variant);
  key += "/c";
  key += hex64(std::bit_cast<u32>(options.border_constant));
  key += options.optimize ? "/opt" : "/noopt";
  key += options.row_blocks ? "/rows" : "/flat";
  key += "/w";
  key += std::to_string(options.warp_width);
  if (options.variant == codegen::Variant::kIspTiled) {
    // The staged tile is baked for one block shape.
    key += "/t";
    key += std::to_string(options.tile_block.tx);
    key += 'x';
    key += std::to_string(options.tile_block.ty);
  }
  return key;
}

KernelCache::KernelCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

/// Single-flight lookup of `key` in `table`. A ready entry is validated
/// (`poisoned` entries are counted, dropped and refilled) and served; an
/// in-flight one is waited on; a missing one is filled by this caller:
/// `make` runs outside the lock under the retry policy (inside `span` when
/// non-null), every waiter gets its value or exception, and `store(value)`
/// is what the table keeps — the caller always gets `value` itself.
template <typename V, typename Poisoned, typename Make, typename Store>
V KernelCache::get_or_fill(Table<V>& table, const std::string& key,
                           const char* span, Poisoned poisoned, Make make,
                           Store store) {
  std::promise<V> promise;
  resilience::RetryPolicy retry;
  resilience::Clock* retry_clock = nullptr;
  {
    std::unique_lock lock(mu_);
    retry = retry_;
    retry_clock = retry_clock_;
    auto it = table.entries.find(key);
    if (it != table.entries.end() && it->second.ready) {
      // Validate before serving: a poisoned entry must be detected here and
      // healed by refilling — it can never reach a launch.
      V cached = it->second.value;
      if (!poisoned(cached)) {
        ++(stats_.*table.hits);
        table.lru.splice(table.lru.begin(), table.lru, it->second.lru_it);
        publish_counters_locked();
        return cached;
      }
      ++stats_.poisoned;
      table.lru.erase(it->second.lru_it);
      table.entries.erase(it);
      it = table.entries.end();  // fall through to the miss path
    }
    if (it != table.entries.end()) {
      ++(stats_.*table.coalesced);
      publish_counters_locked();
      std::shared_future<V> future = it->second.future;
      lock.unlock();
      return future.get();
    }
    ++(stats_.*table.misses);
    publish_counters_locked();
    table.entries[key].future = promise.get_future().share();
  }

  // Fill outside the lock: concurrent misses on *different* keys fill in
  // parallel; concurrent requests for *this* key wait on the future.
  V value;
  resilience::RetryOutcome fill;
  try {
    std::optional<obs::ScopedSpan> scope;
    if (span != nullptr) {
      scope.emplace(span, "compile");
      scope->arg("key", key);
    }
    value = resilience::retry_call(retry, retry_clock, make, &fill);
  } catch (...) {
    // Hand the failure to every waiter, then forget the key so a later
    // request can retry.
    promise.set_exception(std::current_exception());
    std::lock_guard lock(mu_);
    stats_.fill_retries += fill.attempts > 0 ? fill.attempts - 1 : 0;
    table.entries.erase(key);
    publish_counters_locked();
    throw;
  }
  promise.set_value(value);
  const V stored = store(value);

  std::lock_guard lock(mu_);
  stats_.fill_retries += fill.attempts > 0 ? fill.attempts - 1 : 0;
  const auto it = table.entries.find(key);
  if (it != table.entries.end() && !it->second.ready) {
    // clear() may have dropped the entry mid-fill; only then is the key
    // absent and the result simply not cached.
    it->second.value = stored;
    table.lru.push_front(key);
    it->second.lru_it = table.lru.begin();
    it->second.ready = true;
    while (table.lru.size() > capacity_) {
      // Dropping an entry only releases the cache's reference: a kernel or
      // module a caller still holds stays alive (a module stays dlopened).
      table.entries.erase(table.lru.back());
      table.lru.pop_back();
      ++(stats_.*table.evictions);
    }
  }
  publish_counters_locked();
  return value;
}

KernelCache::KernelPtr KernelCache::get_or_compile(
    const codegen::StencilSpec& spec, const codegen::CodegenOptions& options,
    std::string_view /*device*/) {
  const std::string key = cache_key(spec, options);
  // The cache.insert fault point sits inside the retried unit, so an
  // injected insert failure is recoverable.
  const auto compile = [&]() -> KernelPtr {
    auto compiled = std::make_shared<const dsl::CompiledKernel>(
        dsl::compile_kernel(spec, options));
    resilience::fault_point("cache.insert", key);
    return compiled;
  };
  // A corruption fault poisons the *stored* entry only: the filling caller
  // (and every coalesced waiter) still gets the good kernel; the next
  // lookup detects the poison and heals it.
  const auto store = [&](const KernelPtr& kernel) -> KernelPtr {
    if (!resilience::fault_corrupt("cache.insert", key)) return kernel;
    auto bad = std::make_shared<dsl::CompiledKernel>(*kernel);
    bad->regs_per_thread = -1;
    return bad;
  };
  return get_or_fill(ir_, key, "pipeline.cache.compile", is_poisoned, compile,
                     store);
}

exec::NativeModulePtr KernelCache::get_or_compile_native(
    const codegen::StencilSpec& spec, const codegen::CodegenOptions& options,
    std::string_view /*device*/) {
  const codegen::CodegenOptions canon = canonical_native_options(options);
  // The first attempt pins the fill's expected artifact stem before touching
  // the toolchain: jit_compile's disk-warm reuse (fs::exists -> dlopen) may
  // pick up an artifact older than the GC grace window that no ready entry
  // references any more (its entry was evicted or cleared) — a concurrent
  // gc_native_artifacts must not delete it mid-fill. The
  // backend.compile fault point lives inside jit_compile, i.e. inside the
  // retried unit.
  exec::JitConfig jit;
  std::string stem;
  const auto compile = [&] {
    if (stem.empty()) {
      jit = jit_config();
      stem = exec::artifact_stem(spec, canon, jit);
      std::lock_guard lock(mu_);
      ++native_inflight_stems_[stem];
    }
    return exec::jit_compile(spec, canon, jit);
  };
  const auto unpin = [&] {
    if (stem.empty()) return;
    std::lock_guard lock(mu_);
    if (--native_inflight_stems_[stem] == 0) native_inflight_stems_.erase(stem);
  };
  exec::NativeModulePtr module;
  try {
    module = get_or_fill(native_, cache_key(spec, canon) + "/native", nullptr,
                         [](const auto& m) { return m == nullptr; }, compile,
                         std::identity{});
  } catch (...) {
    unpin();
    throw;
  }
  unpin();
  return module;
}

void KernelCache::set_jit(exec::JitConfig config) {
  std::lock_guard lock(mu_);
  jit_ = std::move(config);
}

exec::JitConfig KernelCache::jit_config() const {
  std::lock_guard lock(mu_);
  return jit_;
}

std::size_t KernelCache::gc_native_artifacts() {
  namespace fs = std::filesystem;
  // Collect the artifact stems of every ready module under the lock, then
  // walk the directory without it (filesystem IO under a hot mutex is rude).
  std::vector<std::string> live_stems;
  std::string dir;
  {
    std::lock_guard lock(mu_);
    dir = exec::resolved_cache_dir(jit_);
    for (const auto& [key, entry] : native_.entries) {
      if (!entry.ready || entry.value == nullptr) continue;
      // "<symbol>.<hash>.so" -> keep every "<symbol>.<hash>.*" sibling
      // (the .cpp kept next to the .so is a debugging aid).
      live_stems.push_back(
          fs::path(entry.value->artifact_path()).stem().string());
    }
    // In-flight fills: their artifact may already exist on disk (disk-warm
    // reuse) with an old mtime; it is live even though no entry is ready.
    for (const auto& pin : native_inflight_stems_) {
      live_stems.push_back(pin.first);
    }
  }

  std::size_t removed = 0;
  std::error_code ec;
  const auto now = fs::file_time_type::clock::now();
  constexpr auto kGrace = std::chrono::seconds(60);
  for (const fs::directory_entry& de : fs::directory_iterator(dir, ec)) {
    if (!de.is_regular_file(ec)) continue;
    const std::string name = de.path().filename().string();
    const auto is_live = [&](const std::string& stem) {
      return name.starts_with(stem);
    };
    if (std::ranges::any_of(live_stems, is_live)) continue;
    // Grace window: a file another thread/process just renamed into place
    // (or is about to dlopen) must not vanish under it.
    const fs::file_time_type mtime = fs::last_write_time(de.path(), ec);
    if (ec || now - mtime < kGrace) continue;
    if (fs::remove(de.path(), ec) && !ec) ++removed;
  }
  return removed;
}

void KernelCache::set_retry(resilience::RetryPolicy policy,
                            resilience::Clock* clock) {
  std::lock_guard lock(mu_);
  retry_ = policy;
  retry_clock_ = clock;
}

KernelCacheStats KernelCache::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

std::size_t KernelCache::size() const {
  std::lock_guard lock(mu_);
  return ir_.lru.size();
}

std::size_t KernelCache::native_size() const {
  std::lock_guard lock(mu_);
  return native_.lru.size();
}

void KernelCache::clear() {
  std::lock_guard lock(mu_);
  // Drop ready entries only; an in-flight compile still owns its map slot
  // (erasing it would let a concurrent miss start a duplicate compile whose
  // publication then collides with the first one's).
  for (const std::string& key : ir_.lru) ir_.entries.erase(key);
  ir_.lru.clear();
  for (const std::string& key : native_.lru) native_.entries.erase(key);
  native_.lru.clear();
  stats_ = KernelCacheStats{};
}

void KernelCache::publish_counters_locked() const {
  obs::MetricsRegistry* reg = obs::MetricsRegistry::installed();
  if (reg == nullptr) return;
  const std::pair<std::string_view, u64> values[] = {
      {"pipeline.cache.hits", stats_.hits},
      {"pipeline.cache.misses", stats_.misses},
      {"pipeline.cache.coalesced", stats_.coalesced},
      {"pipeline.cache.evictions", stats_.evictions},
      {"pipeline.cache.poisoned", stats_.poisoned},
      {"pipeline.cache.fill_retries", stats_.fill_retries},
      {"pipeline.cache.size", ir_.lru.size()},
      {"pipeline.cache.native_hits", stats_.native_hits},
      {"pipeline.cache.native_misses", stats_.native_misses},
      {"pipeline.cache.native_coalesced", stats_.native_coalesced},
      {"pipeline.cache.native_evictions", stats_.native_evictions},
      {"pipeline.cache.native_size", native_.lru.size()},
  };
  for (const auto& [name, v] : values) reg->set(name, static_cast<f64>(v));
}

KernelCache& KernelCache::global() {
  static KernelCache cache;
  return cache;
}

}  // namespace ispb::pipeline
