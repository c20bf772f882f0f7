// Black-box CLI contract of the ispb_run front end: bad arguments must
// fail with a nonzero exit and an error naming the offending value and the
// accepted ones — for the subcommand itself and for every enumerated option
// (app, pattern, variant, device). Runs the real binary via popen.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "obs/json.hpp"

namespace {

struct CmdResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

CmdResult run_cmd(const std::string& args) {
  const std::string cmd = std::string(ISPB_RUN_PATH) + " " + args + " 2>&1";
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

TEST(IspbRunCli, LoadtestQuickWritesSchemaValidArtifact) {
  const std::string path = ::testing::TempDir() + "ispb_loadtest_smoke.json";
  const CmdResult r = run_cmd(
      "loadtest --quick --tiers=0.5 --duration-ms=150 --json=" + path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("loadtest tiers"), std::string::npos) << r.output;
  std::string artifact;
  {
    FILE* f = fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr) << "artifact not written to " << path;
    char buf[256];
    while (fgets(buf, sizeof(buf), f) != nullptr) artifact += buf;
    fclose(f);
    remove(path.c_str());
  }
  for (const char* field :
       {"\"bench\": \"loadtest\"", "\"schema_version\"", "\"capacity_rps\"",
        "\"tiers\"", "\"throughput_rps\"", "\"rejection_rate\"",
        "\"obs_overhead\"", "\"critical_path\"", "\"slo_timeline\""}) {
    EXPECT_NE(artifact.find(field), std::string::npos)
        << field << "\n" << artifact;
  }
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
  EXPECT_EQ(devices->items()[0].find("device")->as_string(), "RTX2080");
  EXPECT_EQ(devices->items()[0].find("routed")->as_int(), 4);
  ASSERT_NE(report.find("admission"), nullptr) << r.output;
  EXPECT_EQ(report.find("admission")->size(), 1u) << r.output;
}

TEST(IspbRunCli, UnknownFleetDeviceFailsAcrossSubcommands) {
  for (const char* cmd :
       {"serve --devices=gtx680,tpu9 --requests=1 --size=32",
        "loadtest --quick --devices=tpu9",
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
