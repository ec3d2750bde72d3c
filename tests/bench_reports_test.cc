// Copyright 2026 The pkgstream Authors.
// End-to-end tests over the real bench binaries (spawned as subprocesses):
//  * determinism — every paper bench run twice at --quick with the same
//    seed produces byte-identical JSON reports (bench_latency_under_load
//    and bench_threaded_manyworkers, which record wall-clock injection
//    lag, must be identical after dropping their host_metrics sections);
//  * export failure — a bench whose --json/--csv write fails must exit
//    non-zero (a silently missing report would vacuously pass the gate);
//  * schema — reports carry the fields bench_check keys on;
//  * invalid flags — a malformed or out-of-range integer flag exits 2
//    naming the flag before anything runs; an out-of-range --service_us
//    dies by CHECK (SIGABRT naming the flag), never by undefined behaviour.
//
// Requires the bench binaries next to the test binary (the ctest working
// directory); override with PKGSTREAM_BENCH_DIR. Not built when
// PKGSTREAM_BUILD_BENCH is off.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "bench/report.h"
#include "common/json.h"

namespace pkgstream {
namespace {

const char* kPaperBenches[] = {
    "bench_table1_datasets",     "bench_table2_imbalance",
    "bench_fig2_local_vs_global", "bench_fig3_time_series",
    "bench_fig4_skewed_sources",  "bench_fig5a_throughput",
    "bench_fig5b_memory",         "bench_ablation_choices",
    "bench_ablation_probing",     "bench_ablation_rebalance",
    "bench_latency_under_load",   "bench_threaded_manyworkers",
    "bench_reconfig",
};

std::string BenchDir() {
  const char* dir = std::getenv("PKGSTREAM_BENCH_DIR");
  if (dir != nullptr && dir[0] != '\0') return dir;
  // ctest runs suites from the build directory, where the benches land;
  // "build" covers running the test binary from the repo root by hand.
  std::ifstream probe("./bench_table1_datasets");
  return probe.good() ? "." : "build";
}

/// Runs `command`, discarding stdout; returns the process exit code, or -1
/// when it did not exit normally.
int RunCommand(const std::string& command) {
  const int status = std::system((command + " > /dev/null 2>&1").c_str());
  if (status == -1 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream f(path);
  EXPECT_TRUE(f.good()) << "missing " << path;
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

/// Extra flags keeping a bench fast enough for a doubled CI run.
std::string QuickFlags(const std::string& bench) {
  std::string flags = "--quick --seed=42";
  if (bench == "bench_latency_under_load") flags += " --cell_ms=100";
  if (bench == "bench_threaded_manyworkers") flags += " --messages=4000";
  if (bench == "bench_reconfig") flags += " --messages=4000";
  return flags;
}

class BenchDeterminismTest : public testing::TestWithParam<const char*> {};

TEST_P(BenchDeterminismTest, SameSeedSameQuickScaleByteIdenticalReport) {
  const std::string bench = GetParam();
  const std::string binary = BenchDir() + "/" + bench;
  const std::string out1 = testing::TempDir() + "/" + bench + "_run1.json";
  const std::string out2 = testing::TempDir() + "/" + bench + "_run2.json";
  for (const std::string& out : {out1, out2}) {
    ASSERT_EQ(RunCommand(binary + " " + QuickFlags(bench) + " --json=" + out), 0)
        << binary << " failed";
  }
  const std::string text1 = ReadFileOrDie(out1);
  const std::string text2 = ReadFileOrDie(out2);
  if (bench == "bench_latency_under_load" ||
      bench == "bench_threaded_manyworkers") {
    // These benches measure wall-clock injection lag; everything
    // *outside* host_metrics must still be byte-identical.
    auto doc1 = JsonValue::Parse(text1);
    auto doc2 = JsonValue::Parse(text2);
    ASSERT_TRUE(doc1.ok() && doc2.ok());
    doc1->Set("host_metrics", JsonValue::Object());
    doc2->Set("host_metrics", JsonValue::Object());
    EXPECT_EQ(doc1->ToString(), doc2->ToString());
  } else {
    EXPECT_EQ(text1, text2) << bench << " report is not deterministic";
  }

  // Schema spot-check on the last report.
  auto doc = JsonValue::Parse(text2);
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->StringOr("bench", "?"), bench);
  EXPECT_EQ(doc->StringOr("scale", "?"), "quick");
  EXPECT_EQ(doc->NumberOr("seed", -1), 42.0);
  EXPECT_EQ(doc->NumberOr("schema_version", -1),
            bench::kReportSchemaVersion);
  ASSERT_NE(doc->FindObject("metrics"), nullptr);
  EXPECT_GT(doc->FindObject("metrics")->members().size(), 0u);
  EXPECT_NE(doc->FindObject("host"), nullptr);
  std::remove(out1.c_str());
  std::remove(out2.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllBenches, BenchDeterminismTest,
                         testing::ValuesIn(kPaperBenches),
                         [](const testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

TEST(BenchExportFailureTest, FailedJsonExportExitsNonZero) {
  const std::string binary = BenchDir() + "/bench_ablation_probing";
  EXPECT_EQ(RunCommand(binary + " --quick --json=/nonexistent-dir-xyz/report.json"),
            1);
}

TEST(BenchExportFailureTest, FailedCsvExportExitsNonZero) {
  const std::string binary = BenchDir() + "/bench_ablation_probing";
  EXPECT_EQ(RunCommand(binary + " --quick --csv=/nonexistent-dir-xyz/table.csv"), 1);
}

TEST(BenchExportFailureTest, SuccessfulExportsExitZeroAndParse) {
  const std::string binary = BenchDir() + "/bench_ablation_probing";
  const std::string json = testing::TempDir() + "/probing_ok.json";
  const std::string csv = testing::TempDir() + "/probing_ok.csv";
  ASSERT_EQ(RunCommand(binary + " --quick --json=" + json + " --csv=" + csv), 0);
  auto doc = ReadJsonFile(json);
  EXPECT_TRUE(doc.ok()) << doc.status();
  const std::string csv_text = ReadFileOrDie(csv);
  EXPECT_NE(csv_text.find("Estimator"), std::string::npos);
  std::remove(json.c_str());
  std::remove(csv.c_str());
}

struct BadIntFlag {
  const char* bench;
  const char* flag;
  const char* value;
  const char* label;  // test-name suffix for `value`
};

void PrintTo(const BadIntFlag& c, std::ostream* os) {
  *os << c.bench << " --" << c.flag << "=" << c.value;
}

// Cast to an unsigned count, -1 would wrap to billions of sinks or messages
// (or a 2^64-1 seed), and "abc" would silently run the default. Every value
// here is rejected while the flags are read, before any runtime or thread
// exists.
const BadIntFlag kBadIntFlags[] = {
    {"bench_latency_under_load", "workers", "-1", "negative"},
    {"bench_latency_under_load", "workers", "0", "zero"},
    {"bench_latency_under_load", "workers", "abc", "malformed"},
    {"bench_latency_under_load", "workers", "65", "over_cap"},
    {"bench_threaded_manyworkers", "shards", "-1", "negative"},
    {"bench_threaded_manyworkers", "shards", "0", "zero"},
    {"bench_threaded_manyworkers", "shards", "abc", "malformed"},
    {"bench_reconfig", "messages", "-1", "negative"},
    {"bench_reconfig", "messages", "0", "zero"},
    {"bench_reconfig", "messages", "abc", "malformed"},
    // --seed is read by every bench's shared ParseBenchArgs; a bad seed
    // would otherwise run (and stamp the report with) the default 42.
    {"bench_table1_datasets", "seed", "abc", "malformed"},
    {"bench_table1_datasets", "seed", "-1", "negative"},
};

class BenchIntFlagValidationTest : public testing::TestWithParam<BadIntFlag> {};

TEST_P(BenchIntFlagValidationTest, BadIntegerFlagExitsTwoNamingTheFlag) {
  const BadIntFlag& c = GetParam();
  const std::string flag = std::string("--") + c.flag;
  const std::string err = testing::TempDir() + "/" + c.bench + "_" + c.flag +
                          "_" + c.label + ".err";
  const int status =
      std::system(("exec " + BenchDir() + "/" + c.bench + " --quick " + flag +
                   "=" + c.value + " > /dev/null 2> " + err)
                      .c_str());
  ASSERT_TRUE(status != -1 && WIFEXITED(status))
      << c.bench << " " << flag << "=" << c.value << " did not exit";
  EXPECT_EQ(WEXITSTATUS(status), 2) << c.bench << " " << flag << "=" << c.value;
  EXPECT_NE(ReadFileOrDie(err).find("flag error: " + flag + "="),
            std::string::npos)
      << c.bench << " stderr does not name " << flag;
  std::remove(err.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    AllBenches, BenchIntFlagValidationTest, testing::ValuesIn(kBadIntFlags),
    [](const testing::TestParamInfo<BadIntFlag>& info) {
      return std::string(info.param.bench) + "_" + info.param.flag + "_" +
             info.param.label;
    });

TEST(BenchFlagValidationTest, OutOfRangeServiceUsAbortsNamingTheFlag) {
  // Above 1e6 us a virtual-service sink serves under one msg/sec, so the
  // offered load (20% of W * 1e6/service_us, integer) rounds to 0: the
  // benches must reject the flag by CHECK, not divide by zero (SIGFPE).
  for (const std::string bench :
       {"bench_threaded_manyworkers", "bench_reconfig"}) {
    const std::string err = testing::TempDir() + "/" + bench + "_flag.err";
    // `exec` hands the shell's place to the bench, so a fatal signal shows
    // in the wait status itself rather than as the shell's 128+N exit code.
    const int status = std::system(
        ("exec " + BenchDir() + "/" + bench +
         " --quick --service_us=2000000 --messages=1000 > /dev/null 2> " + err)
            .c_str());
    ASSERT_TRUE(status != -1 && WIFSIGNALED(status))
        << bench << " was not killed by a signal (status " << status << ")";
    EXPECT_EQ(WTERMSIG(status), SIGABRT) << bench;
    EXPECT_NE(ReadFileOrDie(err).find("--service_us"), std::string::npos)
        << bench << " stderr does not name the flag";
    std::remove(err.c_str());
  }
}

}  // namespace
}  // namespace pkgstream
