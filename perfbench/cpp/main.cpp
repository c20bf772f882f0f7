// ispb_perfbench: one benchmark run of one workload (see bench.hpp).
//
//   ispb_perfbench --workload=fleet-small --seed=1 --seconds=10 --trace=0
//                  --work-dir=.bench_build/work --results=out.json
//                  [--trace-out=trace.json] [--setup-repeats=N] [--corrupt-one]
//
// The last line of stdout is the result object {correct, attempted, failed,
// metrics}; the detailed result file carries the host description, the raw
// counts and every intermediate value.
#include <cpuid.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "bench.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"

namespace perfbench {
namespace {

std::string cpu_model() {
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
}

obs::Json host_json(i32 nproc) {
  obs::Json h = obs::Json::object();
  h["nproc"] = nproc;
  h["cpu_model"] = cpu_model();
  h["llc_bytes"] = static_cast<i64>(llc_bytes());
  h["compiler"] = std::string("g++ ") + __VERSION__;
  return h;
}

obs::Json metric(f64 value, std::string_view unit) {
  obs::Json m = obs::Json::object();
  m["value"] = value;
  m["unit"] = unit;
  return m;
}

obs::Json tally_json(const Tally& t) {
  obs::Json j = obs::Json::object();
  j["attempted"] = t.attempted;
  j["ok"] = t.ok;
  j["failed"] = t.failed;
  j["mismatched"] = t.mismatched;
  j["latency_samples"] = static_cast<u64>(t.latency_ms.size());
  return j;
}

f64 peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<f64>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// CPU time the hypervisor gave to other guests (steal) and all CPU time,
/// in ticks, from the first line of /proc/stat; zeros where it is missing.
struct HostTicks {
  u64 steal = 0;
  u64 total = 0;
};
HostTicks host_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  HostTicks t;
  u64 v = 0;
  for (i32 i = 0; i < 8 && (f >> v); ++i) {  // user .. steal
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

/// A measurement that ran while more than this share of the host's CPU
/// time was stolen by other guests ran on a machine partly taken away.
constexpr f64 kMaxSteal = 0.01;

/// Measurements of one kind across a run, each with the share of host CPU
/// time stolen while it ran.
template <typename T>
struct Samples {
  std::vector<std::pair<f64, T>> all;

  template <typename Fn>
  void measure(Fn fn) {
    const HostTicks a = host_ticks();
    T v = fn();
    const HostTicks b = host_ticks();
    const f64 stolen = b.total > a.total
                           ? static_cast<f64>(b.steal - a.steal) /
                                 static_cast<f64>(b.total - a.total)
                           : 0.0;
    all.emplace_back(stolen, std::move(v));
  }

  [[nodiscard]] i32 clean() const {
    return static_cast<i32>(
        std::count_if(all.begin(), all.end(),
                      [](const auto& x) { return x.first <= kMaxSteal; }));
  }

  /// The samples a metric is taken from, in run order: the clean ones, or,
  /// when fewer than half the `want` planned are clean, that half of them
  /// least stolen. `log` lists every sample's stolen share and whether it
  /// was kept.
  std::vector<T> kept(i32 want, obs::Json& log) const {
    std::vector<std::size_t> order(all.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t x, std::size_t y) {
                       return all[x].first < all[y].first;
                     });
    const i32 n = std::max(std::min(clean(), want), (want + 1) / 2);
    order.resize(std::min(order.size(), static_cast<std::size_t>(n)));
    std::sort(order.begin(), order.end());
    log = obs::Json::array();
    std::vector<T> out;
    for (std::size_t i = 0, k = 0; i < all.size(); ++i) {
      const bool keep = k < order.size() && order[k] == i;
      obs::Json entry = obs::Json::object();
      entry["stolen"] = all[i].first;
      entry["kept"] = keep;
      log.push_back(std::move(entry));
      if (keep) {
        out.push_back(all[i].second);
        ++k;
      }
    }
    return out;
  }
};

/// Untraced run: set-up, then the serving phases. Returns the metrics.
obs::Json run_end_to_end(Workload& w, obs::Json& detail, Tally& total) {
  const Params& p = w.params;
  const bool open = w.def.offered_rps > 0.0;
  const f64 s = p.seconds;
  // Every measurement runs in rounds spread over the whole run, the kinds
  // interleaved, and each metric is the median over its kept samples, so
  // each sees the machine as it was across the run, not during one phase.
  // A sample taken while more than kMaxSteal of the host's CPU time was
  // stolen is made up by extra rounds (up to half as many again); see
  // Samples::kept for the samples a metric is taken from. Every request of
  // every round is checked and counted. A closed-loop or kernel-only sample
  // serves whole permutation cycles of every slice, so an interpreted one (a
  // cycle takes about 0.4 s) lasts longer than asked.
  const i32 rounds = open ? 8 : 5;
  const i32 setups =
      p.setup_repeats > 0 ? p.setup_repeats : w.def.setup_repeats;
  // Latency: an open loop at the workload's fixed rate, or, for a
  // closed-loop-only workload, unloaded service latency (one caller, whole
  // cycles of every slice), which, unlike closed-loop latency, does not
  // depend on which requests happen to overlap.
  const i32 lat_per_round = open ? 2 : 1;
  const i32 lat_want = rounds * lat_per_round;
  struct Throughput {
    f64 served_rps = 0.0;
    f64 kernel_rps = 0.0;
  };
  Samples<f64> setup_samples;
  Samples<Throughput> tput_samples;
  Samples<Tally> lat_samples;
  PhaseResult closed, lat_phase;
  f64 peak_rss = 0.0;
  i32 setup_index = 0;
  for (i32 r = 0; r < rounds + rounds / 2; ++r) {
    const bool extra = r >= rounds;
    const bool need_setup = setup_samples.clean() < setups;
    const bool need_tput = tput_samples.clean() < rounds;
    const bool need_lat = lat_samples.clean() < lat_want;
    if (extra && !need_setup && !need_tput && !need_lat) break;
    // Planned set-ups are spread evenly over the planned rounds, the first
    // in round 0.
    const auto done_by = [&](i32 round) {
      return (round * setups + rounds - 1) / rounds;
    };
    const i32 n_setup =
        extra ? (need_setup ? 1 : 0) : done_by(r + 1) - done_by(r);
    for (i32 k = 0; k < n_setup; ++k) {
      setup_samples.measure([&] { return w.setup(setup_index++); });
    }
    if (r == 0) {
      w.compute_references();  // outside setup_s
      total.merge(w.closed_loop(0.05 * s, w.nproc, w.nproc).tally);  // warm-up
    }
    if (!extra || need_tput) {
      tput_samples.measure([&] {
        const PhaseResult c = w.closed_loop((open ? 0.25 : 0.4) * s / rounds,
                                            w.nproc, w.nproc);
        closed.tally.merge(c.tally);
        closed.wall_s += c.wall_s;
        const f64 k = w.kernel_only((open ? 0.1 : 0.2) * s / rounds);
        return Throughput{c.ok_rps(), k};
      });
    }
    // Peak RSS through set-up and the first closed loop: an open loop's
    // backlog after a machine stall made the lifetime peak unsteady. The
    // lifetime peak is in the result file.
    if (r == 0) peak_rss = peak_rss_mib();
    for (i32 k = 0; k < lat_per_round && (!extra || need_lat); ++k) {
      lat_samples.measure([&] {
        PhaseResult l =
            open ? w.open_loop(0.55 * s / lat_want, w.def.offered_rps)
                 : w.closed_loop(0.3 * s / lat_want, 1, w.nproc);
        lat_phase.tally.merge(l.tally);
        lat_phase.wall_s += l.wall_s;
        return std::move(l.tally);
      });
    }
  }

  const std::vector<f64> setup_kept =
      setup_samples.kept(setups, detail["setup_samples"]);
  std::vector<f64> served, kernel, efficiency;
  for (const Throughput& t :
       tput_samples.kept(rounds, detail["throughput_samples"])) {
    served.push_back(t.served_rps);
    kernel.push_back(t.kernel_rps);
    efficiency.push_back(t.kernel_rps > 0.0 ? t.served_rps / t.kernel_rps
                                            : 0.0);
  }
  const f64 served_rps = median(served);
  const f64 kernel_rps = median(kernel);
  const std::vector<Tally> lat_kept =
      lat_samples.kept(lat_want, detail["latency_samples"]);
  std::vector<f64> p50, p90, slo;
  for (const Tally& t : lat_kept) {
    p50.push_back(percentile(t.latency_ms, 50.0));
    p90.push_back(percentile(t.latency_ms, 90.0));
    slo.push_back(t.attempted > 0 ? static_cast<f64>(t.within_limit) /
                                        static_cast<f64>(t.attempted)
                                  : 0.0);
  }
  obs::Json lat_rounds = obs::Json::array();
  for (std::size_t r = 0; r < lat_kept.size(); ++r) {
    obs::Json round = obs::Json::object();
    round["p50_ms"] = p50[r];
    round["p90_ms"] = p90[r];
    round["p99_ms"] = percentile(lat_kept[r].latency_ms, 99.0);
    round["lag_p99_ms"] = percentile(lat_kept[r].lag_ms, 99.0);
    round["requests"] = lat_kept[r].attempted;
    lat_rounds.push_back(std::move(round));
  }

  total.merge(closed.tally);
  total.merge(w.kernel_only_tally);
  total.merge(lat_phase.tally);

  const Tally& lat = lat_phase.tally;
  obs::Json m = obs::Json::object();
  m["setup_s"] = metric(median(setup_kept), "s");
  m["served_rps"] = metric(served_rps, "req/s");
  m["latency_p50_ms"] = metric(median(p50), "ms");
  m["latency_p90_ms"] = metric(median(p90), "ms");
  m["slo_attainment"] = metric(median(slo), "fraction");
  m["ok_frac"] = metric(total.attempted > 0
                            ? static_cast<f64>(total.attempted - total.failed) /
                                  static_cast<f64>(total.attempted)
                            : 0.0,
                        "fraction");
  m["serving_efficiency"] = metric(median(efficiency), "ratio");
  m["peak_rss_mb"] = metric(peak_rss, "MiB");

  obs::Json setup_list = obs::Json::array();
  for (f64 v : setup_kept) setup_list.push_back(v);
  detail["setup_s_kept"] = std::move(setup_list);
  detail["kernel_only_rps"] = kernel_rps;
  detail["peak_rss_mb_lifetime"] = peak_rss_mib();
  obs::Json fills = obs::Json::object();
  for (const auto& [key, ms] : w.fill_ms) fills[key] = ms;
  detail["setup_fill_ms"] = std::move(fills);
  detail["closed_loop"] = tally_json(closed.tally);
  detail["closed_loop"]["wall_s"] = closed.wall_s;
  detail["closed_loop"]["clients"] = w.nproc;
  detail["closed_loop"]["workers"] = w.nproc;
  detail["latency_phase"] = tally_json(lat);
  detail["latency_phase"]["wall_s"] = lat_phase.wall_s;
  detail["latency_phase"]["pooled_p50_ms"] = percentile(lat.latency_ms, 50.0);
  detail["latency_phase"]["pooled_p90_ms"] = percentile(lat.latency_ms, 90.0);
  detail["latency_phase"]["pooled_p95_ms"] = percentile(lat.latency_ms, 95.0);
  detail["latency_phase"]["pooled_p99_ms"] = percentile(lat.latency_ms, 99.0);
  if (open) {
    detail["latency_phase"]["offered_rps"] = w.def.offered_rps;
    detail["latency_phase"]["offered_share_of_served"] =
        served_rps > 0.0 ? w.def.offered_rps / served_rps : 0.0;
    detail["latency_phase"]["lag_p99_ms"] = percentile(lat.lag_ms, 99.0);
  }
  detail["latency_phase"]["kept_rounds"] = std::move(lat_rounds);
  obs::Json served_rounds = obs::Json::array();
  for (f64 v : served) served_rounds.push_back(v);
  detail["closed_loop"]["rps_rounds"] = std::move(served_rounds);
  obs::Json kernel_rounds = obs::Json::array();
  for (f64 v : kernel) kernel_rounds.push_back(v);
  detail["kernel_only_rps_rounds"] = std::move(kernel_rounds);
  detail["latency_source"] = open ? "open_loop" : "unloaded_one_client";
  detail["failed_frac"] =
      total.attempted > 0 ? static_cast<f64>(total.failed) /
                                static_cast<f64>(total.attempted)
                          : 0.0;
  return m;
}

int run(int argc, char** argv) {
  Cli cli(argc, argv);
  cli.option("workload", "fleet-small|interp-sweep")
      .option("seed", "workload seed")
      .option("seconds", "measured seconds")
      .option("trace", "0 = end-to-end metrics, 1 = per-layer metrics")
      .option("setup-repeats", "cold set-ups per run (default: the workload's)")
      .option("work-dir", "scratch directory for JIT artifacts")
      .option("results", "detailed result file")
      .option("trace-out", "Chrome trace file (traced run)")
      .option("corrupt-one", "flip one output bit (output-check self-test)");
  if (cli.finish()) {
    std::cout << cli.help();
    return 0;
  }

  Params p;
  p.workload = cli.get_string("workload", "");
  p.seed = static_cast<u64>(cli.get_int("seed", 1));
  p.seconds = cli.get_double("seconds", 10.0);
  p.trace = cli.get_int("trace", 0) != 0;
  p.setup_repeats = static_cast<i32>(cli.get_int("setup-repeats", 0));
  p.work_dir = cli.get_string("work-dir", "");
  p.results_path = cli.get_string("results", "");
  p.trace_path = cli.get_string("trace-out", "");
  p.corrupt_one = cli.get_flag("corrupt-one");
  if (p.work_dir.empty() || p.seconds <= 0.0 || p.setup_repeats < 0) {
    throw ContractError("--work-dir, --seconds > 0 and --setup-repeats >= 0 "
                        "are required");
  }
  std::filesystem::create_directories(p.work_dir);

  Workload w(workload_def(p.workload), p);
  obs::Json detail = obs::Json::object();
  detail["host"] = host_json(w.nproc);
  detail["workload"] = p.workload;
  detail["seed"] = p.seed;
  detail["seconds"] = p.seconds;
  detail["trace"] = p.trace;

  Tally total;
  obs::Json metrics =
      p.trace ? run_layers(w, detail, total) : run_end_to_end(w, detail, total);
  detail["metrics"] = metrics;
  detail["attempted"] = total.attempted;
  detail["failed"] = total.failed;
  detail["mismatched"] = total.mismatched;
  std::filesystem::remove_all(p.work_dir);

  if (!p.results_path.empty()) {
    std::ofstream(p.results_path) << detail.dump(2) << "\n";
  }
  obs::Json out = obs::Json::object();
  out["correct"] = total.mismatched == 0;
  out["attempted"] = total.attempted;
  out["failed"] = total.failed;
  out["metrics"] = std::move(metrics);
  std::cout << out.dump() << std::endl;
  if (total.mismatched != 0) {
    std::cerr << "ispb_perfbench: " << total.mismatched
              << " output(s) differ from the reference\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "ispb_perfbench: " << e.what() << "\n";
    return 2;
  }
}
