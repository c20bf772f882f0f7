// Black-box CLI contract of the ispb_run front end: bad arguments must
// fail with a nonzero exit and an error naming the offending value and the
// accepted ones — for the subcommand itself and for every enumerated option
// (app, pattern, variant, device). Runs the real binary via popen.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace {

struct CmdResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved, unless stderr is dropped
};

/// `stderr_to` " 2>/dev/null" captures stdout alone.
CmdResult run_cmd(const std::string& args, const char* stderr_to = " 2>&1") {
  const std::string cmd = std::string(ISPB_RUN_PATH) + " " + args + stderr_to;
  CmdResult result;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return result;
  char buf[256];
  while (fgets(buf, sizeof(buf), pipe) != nullptr) result.output += buf;
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

TEST(IspbRunCli, UnknownSubcommandFailsAndNamesIt) {
  const CmdResult r = run_cmd("bogus");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("unknown subcommand 'bogus'"), std::string::npos)
      << r.output;
  // The error doubles as help: it lists what would have been accepted.
  EXPECT_NE(r.output.find("serve"), std::string::npos) << r.output;
}

TEST(IspbRunCli, UnknownAppFailsAndListsValidNames) {
  const CmdResult r = run_cmd("run --app=nope --size=32");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("unknown --app 'nope'"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("gaussian"), std::string::npos) << r.output;
}

TEST(IspbRunCli, UnknownPatternFailsConsistently) {
  const CmdResult r = run_cmd("analyze --pattern=weird");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("unknown --pattern 'weird'"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("clamp|mirror|repeat|constant"), std::string::npos)
      << r.output;
}

TEST(IspbRunCli, UnknownVariantFailsConsistently) {
  const CmdResult r = run_cmd("analyze --variant=weird --size=32");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("unknown --variant 'weird'"), std::string::npos)
      << r.output;
}

TEST(IspbRunCli, UnknownDeviceFailsInsteadOfSilentlyDefaulting) {
  const CmdResult r = run_cmd("run --device=weird --size=32");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("unknown --device 'weird'"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("gtx680|rtx2080"), std::string::npos) << r.output;
}

TEST(IspbRunCli, AnalyzeUnknownDeviceFailsConsistently) {
  const CmdResult r = run_cmd("analyze --device=weird --size=32");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("unknown --device 'weird'"), std::string::npos)
      << r.output;
}

TEST(IspbRunCli, AnalyzeCostCalibratesAndEmitsJsonReport) {
  const CmdResult r =
      run_cmd("analyze --cost --app=gaussian --pattern=clamp --size=64 --json");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  for (const char* key :
       {"\"ok_verdict\": true", "\"combos\"", "\"gain\"", "\"violations\""}) {
    EXPECT_NE(r.output.find(key), std::string::npos) << key << "\n" << r.output;
  }
}

TEST(IspbRunCli, AnalyzeCostBareJsonIsOneDocumentOnStdout) {
  const CmdResult r = run_cmd(
      "analyze --cost --app=gaussian --pattern=clamp --size=64 --json",
      " 2>/dev/null");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const ispb::obs::Json report = ispb::obs::Json::parse(r.output);
  ASSERT_NE(report.find("ok_verdict"), nullptr) << r.output;
  EXPECT_TRUE(report.find("ok_verdict")->as_bool()) << r.output;
}

TEST(IspbRunCli, HelpListsAllSubcommands) {
  const CmdResult r = run_cmd("help");
  EXPECT_EQ(r.exit_code, 0);
  for (const char* sub : {"run", "analyze", "profile", "serve", "chaos"}) {
    EXPECT_NE(r.output.find(sub), std::string::npos) << sub << "\n" << r.output;
  }
}

TEST(IspbRunCli, ChaosGoodSeedsHoldInvariantsAndExitZero) {
  // Two full seeded schedules across the 5 app x 4 pattern matrix: every
  // future settles, every kOk response matches the reference bit-exactly.
  const CmdResult r = run_cmd("chaos --schedules=2 --requests=1 --seed=1");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("chaos invariants hold"), std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("chaos violation"), std::string::npos) << r.output;
}

TEST(IspbRunCli, ChaosUnrecoverableFaultExitsOneNamingThePoint) {
  const CmdResult r = run_cmd(
      "chaos --schedules=1 --requests=1 --force-fail=compile.lower");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("fault point 'compile.lower'"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("chaos FAILED"), std::string::npos) << r.output;
}

TEST(IspbRunCli, ChaosEmitsJsonReport) {
  const CmdResult r = run_cmd("chaos --schedules=1 --requests=1 --json");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  for (const char* field :
       {"fault_fires", "violations", "ok_verdict", "fallbacks_served"}) {
    EXPECT_NE(r.output.find(field), std::string::npos)
        << field << "\n" << r.output;
  }
}

TEST(IspbRunCli, ChaosReportHasOneShapeInBothModes) {
  // One driver: the single-target and the device run report the same
  // totals, whichever counters their mode can move.
  std::vector<std::vector<std::string>> key_sets;
  for (const char* cmd :
       {"chaos --schedules=1 --requests=1 --json",
        "chaos --devices=gtx680,rtx2080 --device-fault=kill --schedules=1 "
        "--requests=1 --json"}) {
    // Bare --json: stdout is the report alone (the verdict is on stderr).
    const CmdResult r = run_cmd(cmd, " 2>/dev/null");
    ASSERT_EQ(r.exit_code, 0) << cmd << "\n" << r.output;
    const ispb::obs::Json report = ispb::obs::Json::parse(r.output);
    ASSERT_NE(report.find("ok_verdict"), nullptr) << r.output;
    EXPECT_TRUE(report.find("ok_verdict")->as_bool()) << r.output;
    const ispb::obs::Json* totals = report.find("totals");
    ASSERT_TRUE(totals != nullptr && totals->is_object()) << r.output;
    std::vector<std::string> keys;
    for (const auto& [key, value] : totals->members()) keys.push_back(key);
    key_sets.push_back(std::move(keys));
  }
  EXPECT_EQ(key_sets[0], key_sets[1]);
}

TEST(IspbRunCli, NativeServeReportsTheNativeCacheTable) {
  // The default engine is native: its module table is the one that served,
  // so repeated requests must show up as cache hits.
  const CmdResult r = run_cmd(
      "serve --requests=4 --concurrency=2 --size=64 --json");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const ispb::obs::Json report = ispb::obs::Json::parse(r.output);
  EXPECT_EQ(report.find("backend")->as_string(), "native") << r.output;
  const ispb::obs::Json* cache = report.find("cache");
  ASSERT_NE(cache, nullptr) << r.output;
  EXPECT_GT(cache->find("hit_rate")->as_number(), 0.0) << r.output;
}

TEST(IspbRunCli, ServeEmitsJsonReport) {
  const CmdResult r = run_cmd(
      "serve --requests=4 --concurrency=2 --size=32 --sampled --json");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  for (const char* field :
       {"throughput_rps", "p99_ms", "hit_rate", "completed"}) {
    EXPECT_NE(r.output.find(field), std::string::npos)
        << field << "\n" << r.output;
  }
}

TEST(IspbRunCli, ServeWithoutDevicesReportsOneTarget) {
  // One serve path: without --devices the report has the multi-device
  // shape with a single target, the --device.
  const CmdResult r = run_cmd(
      "serve --device=rtx2080 --requests=4 --concurrency=2 --size=32 "
      "--sampled --json");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const ispb::obs::Json report = ispb::obs::Json::parse(r.output);
  const ispb::obs::Json* devices = report.find("devices");
  ASSERT_TRUE(devices != nullptr && devices->is_array()) << r.output;
  ASSERT_EQ(devices->size(), 1u) << r.output;
  const ispb::obs::Json& target = devices->items()[0];
  EXPECT_EQ(target.find("device")->as_string(), "RTX2080");
  EXPECT_EQ(target.find("routed")->as_int(), 4);
  // Exactly the per-target counters, in order: no always-zero placeholder.
  std::vector<std::string> keys;
  for (const auto& [key, value] : target.members()) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"device", "routed", "completed",
                                            "errors", "probes",
                                            "quarantines"}))
      << r.output;
  ASSERT_NE(report.find("admission"), nullptr) << r.output;
  EXPECT_EQ(report.find("admission")->size(), 1u) << r.output;
}

TEST(IspbRunCli, UnknownFleetDeviceFailsAcrossSubcommands) {
  for (const char* cmd :
       {"serve --devices=gtx680,tpu9 --requests=1 --size=32",
        "chaos --devices=gtx680,tpu9 --schedules=1"}) {
    const CmdResult r = run_cmd(cmd);
    EXPECT_EQ(r.exit_code, 1) << cmd << "\n" << r.output;
    EXPECT_NE(r.output.find("unknown device 'tpu9'"), std::string::npos)
        << cmd << "\n" << r.output;
    EXPECT_NE(r.output.find("gtx680|rtx2080"), std::string::npos) << r.output;
  }
}

TEST(IspbRunCli, UnknownDeviceFaultModeFailsAndNamesIt) {
  const CmdResult r = run_cmd(
      "chaos --devices=gtx680,rtx2080 --device-fault=nuke --schedules=1");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("unknown --device-fault 'nuke'"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("kill|flap|stall|mix"), std::string::npos)
      << r.output;
}

TEST(IspbRunCli, ShedTiersOutOfRangeFails) {
  const CmdResult r = run_cmd(
      "serve --devices=gtx680,rtx2080 --shed-tiers=0 --requests=1 --size=32");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("--shed-tiers"), std::string::npos) << r.output;
}

TEST(IspbRunCli, FleetServeReportsPerDevicePlacement) {
  const CmdResult r = run_cmd(
      "serve --devices=gtx680,rtx2080 --requests=8 --concurrency=2 "
      "--size=32 --sampled --json");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  for (const char* field :
       {"\"devices\"", "GTX680", "RTX2080", "\"admission\"", "\"routed\"",
        "\"failovers\""}) {
    EXPECT_NE(r.output.find(field), std::string::npos)
        << field << "\n" << r.output;
  }
}

}  // namespace
