// Compiled-kernel cache: memoizes dsl::compile_kernel results.
//
// Compiling a StencilSpec (trace -> IR -> pass pipeline -> regalloc) costs
// orders of magnitude more than a sampled launch, and the serving workloads
// of the pipeline runtime compile the same handful of kernels over and over.
// The cache keys on the *structure* of the spec (a 64-bit FNV-1a fingerprint
// over name, inputs and every DAG node) and the full CodegenOptions
// (pattern, variant, constant, optimization toggles, warp width), so two
// structurally identical specs traced independently share one entry. The
// device is not part of the key: compilation never sees it (it enters only
// at launch), so every device target of a server shares one entry per
// kernel. IR kernels and native modules live in two tables of the same
// single-flight LRU, filled by one code path.
//
// Concurrency contract (single-flight): when several threads request the
// same missing key at once, exactly one compiles while the rest block on a
// shared future — a key is never compiled twice. Ready entries are returned
// without blocking. Eviction is LRU over ready entries only; in-flight
// compiles are never evicted (the map may transiently exceed capacity).
//
// Observability: each IR compile runs under a ScopedSpan ("pipeline.cache
// .compile"; a native JIT fill has its own "exec.native.compile") and
// hit/miss/eviction counters plus a size gauge are published to the
// installed obs::MetricsRegistry (null fast path when none is).
//
// Resilience: an IR fill's publication step is the `cache.insert` fault
// point (native fills have `backend.compile` inside jit_compile). A
// kThrow rule fails the fill exactly like a compiler error (waiters get the
// exception, the key is forgotten so a later request retries); a kCorrupt
// rule poisons the *stored* entry while the filling caller still gets the
// good kernel — every lookup validates the entry it is about to serve and
// heals a poisoned one by recompiling (counted in stats().poisoned), so a
// corrupt entry can never reach a launch. Fills can be wrapped in a
// RetryPolicy via set_retry(); ContractError/VerifyError are never retried.
#pragma once

#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "dsl/runtime.hpp"
#include "exec/backend.hpp"
#include "exec/jit.hpp"
#include "resilience/retry.hpp"

namespace ispb::pipeline {

/// Structural fingerprint of a spec: FNV-1a over name, num_inputs, output
/// id and every node (kind, f32 bit pattern, input, offsets, operand ids).
[[nodiscard]] u64 spec_fingerprint(const codegen::StencilSpec& spec);

/// The full cache key: fingerprint + every CodegenOptions field. `device`
/// is not part of the key (kept for callers that still pass one).
[[nodiscard]] std::string cache_key(const codegen::StencilSpec& spec,
                                    const codegen::CodegenOptions& options,
                                    std::string_view device = {});

/// Lookup counters of one table of the cache. `coalesced` counts requests
/// that arrived while the same key was compiling and waited for it instead
/// of recompiling.
struct CacheTableCounters {
  u64 hits = 0;
  u64 misses = 0;  ///< actual compiles
  u64 coalesced = 0;
  u64 evictions = 0;
  /// Fraction of lookups served without compiling (coalesced waits count as
  /// served). 0 when there were no lookups.
  [[nodiscard]] f64 hit_rate() const {
    const u64 total = hits + coalesced + misses;
    return total == 0 ? 0.0 : static_cast<f64>(hits + coalesced) /
                                  static_cast<f64>(total);
  }
};

/// Monotonic cache counters: the IR-kernel table's in the plain fields, the
/// native-module table's in the `native_*` ones.
struct KernelCacheStats {
  u64 hits = 0;
  u64 misses = 0;  ///< actual compiles
  u64 coalesced = 0;
  u64 evictions = 0;
  u64 poisoned = 0;      ///< corrupt entries detected and healed on lookup
  u64 fill_retries = 0;  ///< compile attempts beyond the first (set_retry)
  // Native-module entries (get_or_compile_native) are accounted
  // separately: a serving stack running both backends sees both stories.
  u64 native_hits = 0;
  u64 native_misses = 0;  ///< actual JIT compiles (or disk-artifact loads)
  u64 native_coalesced = 0;
  u64 native_evictions = 0;
  /// The counters of the table `backend` looks up: IR kernels for the
  /// interpreted engine, native modules for the native one.
  [[nodiscard]] CacheTableCounters of(exec::Backend backend) const {
    if (backend == exec::Backend::kNative) {
      return {native_hits, native_misses, native_coalesced, native_evictions};
    }
    return {hits, misses, coalesced, evictions};
  }
  /// hit_rate of the IR-kernel table.
  [[nodiscard]] f64 hit_rate() const {
    return of(exec::Backend::kInterpreted).hit_rate();
  }
};

/// Thread-safe LRU cache of compiled kernels with single-flight compiles.
class KernelCache {
 public:
  using KernelPtr = std::shared_ptr<const dsl::CompiledKernel>;

  /// Keeps at most `capacity` ready entries (>= 1).
  explicit KernelCache(std::size_t capacity = 256);

  KernelCache(const KernelCache&) = delete;
  KernelCache& operator=(const KernelCache&) = delete;

  /// Returns the cached kernel for (spec, options), compiling it on first
  /// use. Blocks only when another thread is already compiling the same
  /// key. Rethrows the compiler's exception to every waiter. `device` is not
  /// part of the key.
  [[nodiscard]] KernelPtr get_or_compile(const codegen::StencilSpec& spec,
                                         const codegen::CodegenOptions& options,
                                         std::string_view device = {});

  /// Returns the cached native module for (spec, options), JIT compiling it
  /// on first use (exec::jit_compile under set_jit()'s config). Same
  /// single-flight contract as get_or_compile; `device` is not part of the
  /// key either. The key canonicalizes
  /// options the C++ lowering ignores (kIspWarp folds to kIsp; warp width,
  /// optimize and row_blocks are IR-pipeline knobs), so variants that lower
  /// identically share one module. Eviction only drops the cache's
  /// reference — a module stays dlopened while any executor still holds it.
  [[nodiscard]] exec::NativeModulePtr get_or_compile_native(
      const codegen::StencilSpec& spec, const codegen::CodegenOptions& options,
      std::string_view device = {});

  /// JIT configuration for native fills (artifact dir, compiler, flags).
  void set_jit(exec::JitConfig config);
  [[nodiscard]] exec::JitConfig jit_config() const;

  /// Removes on-disk artifacts in the JIT cache directory that neither a
  /// ready native entry nor an in-flight native fill references and that
  /// are older than ~60 s (the grace window covers a concurrent compile's
  /// rename->dlopen gap). In-flight fills pin their expected artifact stem
  /// explicitly: an old artifact about to be disk-warm reused by a
  /// re-compile (e.g. after its entry was evicted) must not vanish between
  /// the fill's existence check and its dlopen. Returns the number of files
  /// removed.
  std::size_t gc_native_artifacts();

  [[nodiscard]] KernelCacheStats stats() const;
  [[nodiscard]] std::size_t size() const;      ///< ready IR entries
  [[nodiscard]] std::size_t native_size() const;  ///< ready native entries
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Drops all ready entries and resets the counters. In-flight compiles
  /// finish and publish into the cleared cache.
  void clear();

  /// Wraps every fill (compile) in `policy` with backoff slept on `clock`
  /// (nullptr = wall clock). Default: one attempt, no retry.
  void set_retry(resilience::RetryPolicy policy,
                 resilience::Clock* clock = nullptr);

  /// Process-wide cache used by every PipelineExecutor run without its own
  /// cache (ExecutorConfig::cache == nullptr) and by the bench harness, so
  /// identical (app, pattern, variant) compiles happen once per process.
  [[nodiscard]] static KernelCache& global();

 private:
  /// One single-flight LRU: entries by key, ready keys in LRU order, and
  /// the stats fields its lookups count into.
  template <typename V>
  struct Table {
    struct Entry {
      std::shared_future<V> future;  ///< what coalesced waiters get
      V value;  ///< what lookups serve; valid iff ready
      std::list<std::string>::iterator lru_it;  ///< valid iff ready
      bool ready = false;
    };
    using Counter = u64 KernelCacheStats::*;
    Table(Counter h, Counter m, Counter c, Counter e)
        : hits(h), misses(m), coalesced(c), evictions(e) {}
    const Counter hits, misses, coalesced, evictions;
    std::unordered_map<std::string, Entry> entries;
    std::list<std::string> lru;  ///< most recently used first; ready keys only
  };

  /// The one lookup/fill path of both tables (see kernel_cache.cpp).
  template <typename V, typename Poisoned, typename Make, typename Store>
  V get_or_fill(Table<V>& table, const std::string& key, const char* span,
                Poisoned poisoned, Make make, Store store);

  void publish_counters_locked() const;

  const std::size_t capacity_;
  mutable std::mutex mu_;
  resilience::RetryPolicy retry_;  ///< guarded by mu_
  resilience::Clock* retry_clock_ = nullptr;  ///< guarded by mu_
  exec::JitConfig jit_;  ///< guarded by mu_
  using S = KernelCacheStats;
  Table<KernelPtr> ir_{&S::hits, &S::misses, &S::coalesced, &S::evictions};
  Table<exec::NativeModulePtr> native_{&S::native_hits, &S::native_misses,
                                       &S::native_coalesced,
                                       &S::native_evictions};
  /// Artifact stems of in-flight native fills (stem -> fill count), pinned
  /// against gc_native_artifacts until the fill publishes or fails.
  std::unordered_map<std::string, u32> native_inflight_stems_;
  KernelCacheStats stats_;
};

}  // namespace ispb::pipeline
