// Copyright 2026 The pkgstream Authors.
// Tests for the reproduction gate (tools/bench_check_lib): invariant
// evaluation semantics, metric-agreement diffing, document validation — and
// an audit of the committed golden baselines in bench/baselines/, so that
// deleting a declared invariant or corrupting a baseline file fails the
// suite even before `ctest -L repro` runs a bench.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "bench/report.h"
#include "common/json.h"
#include "tools/bench_check_lib.h"

namespace pkgstream {
namespace {

/// Minimal report document with the given deterministic metrics.
JsonValue MakeReport(const std::map<std::string, double>& metrics,
                     const std::map<std::string, double>& host_metrics = {}) {
  JsonValue doc = JsonValue::Object();
  doc.Set("schema_version", JsonValue::Number(bench::kReportSchemaVersion));
  doc.Set("bench", JsonValue::Str("bench_fake"));
  doc.Set("scale", JsonValue::Str("quick"));
  doc.Set("seed", JsonValue::Number(42));
  JsonValue m = JsonValue::Object();
  for (const auto& [k, v] : metrics) m.Set(k, JsonValue::Number(v));
  doc.Set("metrics", std::move(m));
  JsonValue hm = JsonValue::Object();
  for (const auto& [k, v] : host_metrics) hm.Set(k, JsonValue::Number(v));
  doc.Set("host_metrics", std::move(hm));
  return doc;
}

/// Baseline whose captured section is `captured` and whose invariants are
/// given as JSON text (an array).
JsonValue MakeBaseline(const JsonValue& captured,
                       const std::string& invariants_json) {
  JsonValue doc = JsonValue::Object();
  doc.Set("schema_version", JsonValue::Number(bench::kReportSchemaVersion));
  doc.Set("bench", JsonValue::Str("bench_fake"));
  doc.Set("tolerance", JsonValue::Number(1e-6));
  auto inv = JsonValue::Parse(invariants_json);
  EXPECT_TRUE(inv.ok()) << inv.status();
  doc.Set("invariants", *inv);
  doc.Set("captured", captured);
  return doc;
}

TEST(BenchCheckTest, IdenticalReportWithHoldingInvariantPasses) {
  JsonValue report = MakeReport({{"a", 10.0}, {"b", 1.0}});
  JsonValue baseline = MakeBaseline(
      report, R"([{"name": "a >> b", "type": "ge", "left": "a",
                   "right": "b", "factor": 5}])");
  auto outcome = repro::CheckReport(report, baseline);
  EXPECT_TRUE(outcome.ok()) << outcome.failures[0];
  EXPECT_EQ(outcome.passed.size(), 2u);  // agreement + 1 invariant
}

TEST(BenchCheckTest, ViolatedOrderingInvariantFails) {
  JsonValue report = MakeReport({{"a", 10.0}, {"b", 1.0}});
  JsonValue baseline = MakeBaseline(
      report, R"([{"name": "b beats a", "type": "ge", "left": "b",
                   "right": "a"}])");
  auto outcome = repro::CheckReport(report, baseline);
  ASSERT_FALSE(outcome.ok());
  EXPECT_NE(outcome.failures[0].find("VIOLATED"), std::string::npos);
}

TEST(BenchCheckTest, RatioToleranceSemantics) {
  JsonValue report = MakeReport({{"pkg", 1.0}, {"greedy", 0.95}});
  // PKG <= 1.1x Off-Greedy style claim: 1.0 <= 1.1 * 0.95 holds...
  JsonValue ok_baseline = MakeBaseline(
      report, R"([{"name": "pkg close", "type": "le", "left": "pkg",
                   "right": "greedy", "factor": 1.1}])");
  EXPECT_TRUE(repro::CheckReport(report, ok_baseline).ok());
  // ...but without the tolerance factor it fails.
  JsonValue tight = MakeBaseline(
      report, R"([{"name": "pkg strictly under", "type": "le",
                   "left": "pkg", "right": "greedy"}])");
  EXPECT_FALSE(repro::CheckReport(report, tight).ok());
}

TEST(BenchCheckTest, EqAndConstOperands) {
  JsonValue report = MakeReport({{"jaccard", 0.47}});
  JsonValue baseline = MakeBaseline(
      report,
      R"([{"name": "well below 1", "type": "le", "left": "jaccard",
           "right_const": 1.0, "factor": 0.9},
          {"name": "around the paper value", "type": "eq",
           "left": "jaccard", "right_const": 0.5, "rel_tol": 0.2}])");
  auto outcome = repro::CheckReport(report, baseline);
  EXPECT_TRUE(outcome.ok()) << outcome.failures[0];
  JsonValue off = MakeBaseline(
      report, R"([{"name": "exactly half", "type": "eq", "left": "jaccard",
                   "right_const": 0.5, "rel_tol": 0.01}])");
  EXPECT_FALSE(repro::CheckReport(report, off).ok());
}

TEST(BenchCheckTest, RatioOfRatiosViaDivOperands) {
  // "KG declines faster": (kg_start/kg_end) >= 1.2 * (pkg_start/pkg_end).
  JsonValue report = MakeReport({{"kg_start", 8000.0},
                                 {"kg_end", 3200.0},
                                 {"pkg_start", 9500.0},
                                 {"pkg_end", 6000.0}});
  JsonValue baseline = MakeBaseline(
      report,
      R"([{"name": "kg declines fastest", "type": "ge", "left": "kg_start",
           "left_div": "kg_end", "right": "pkg_start",
           "right_div": "pkg_end", "factor": 1.2}])");
  EXPECT_TRUE(repro::CheckReport(report, baseline).ok());
}

TEST(BenchCheckTest, MonotoneInvariants) {
  JsonValue report =
      MakeReport({{"w5", 1.0}, {"w10", 1.4}, {"w50", 90.0}});
  JsonValue up = MakeBaseline(
      report, R"([{"name": "degrades with W", "type":
                   "monotone_nondecreasing", "keys": ["w5", "w10", "w50"],
                   "slack": 1.05}])");
  EXPECT_TRUE(repro::CheckReport(report, up).ok());
  JsonValue down = MakeBaseline(
      report, R"([{"name": "improves with W", "type":
                   "monotone_nonincreasing", "keys": ["w5", "w10", "w50"]}])");
  EXPECT_FALSE(repro::CheckReport(report, down).ok());
  // Slack forgives a small wiggle.
  JsonValue wiggly =
      MakeReport({{"w5", 1.0}, {"w10", 0.97}, {"w50", 90.0}});
  JsonValue forgiving = MakeBaseline(
      wiggly, R"([{"name": "degrades with W", "type":
                   "monotone_nondecreasing", "keys": ["w5", "w10", "w50"],
                   "slack": 1.05}])");
  EXPECT_TRUE(repro::CheckReport(wiggly, forgiving).ok());
  // Slack must loosen (never tighten) for negative series too: a constant
  // negative sequence is trivially monotone in both directions.
  JsonValue negative = MakeReport({{"d1", -10.0}, {"d2", -10.0}});
  for (const char* type :
       {"monotone_nonincreasing", "monotone_nondecreasing"}) {
    JsonValue b = MakeBaseline(
        negative, std::string(R"([{"name": "constant", "type": ")") + type +
                      R"(", "keys": ["d1", "d2"], "slack": 1.05}])");
    EXPECT_TRUE(repro::CheckReport(negative, b).ok()) << type;
  }
}

TEST(BenchCheckTest, CrossBenchOperandsResolveFromSiblingBaselines) {
  // A "<bench>::<metric>" operand reads the *captured metrics* of the named
  // sibling baseline in the provided directory — never the fresh report.
  const std::string dir = testing::TempDir() + "cross_bench_ok";
  JsonValue sibling_captured = MakeReport({{"imbalance/kg", 600.0},
                                           {"imbalance/pkg", 3.0}});
  JsonValue sibling = MakeBaseline(
      sibling_captured, R"([{"name": "kg positive", "type": "ge",
                             "left": "imbalance/kg", "right_const": 0}])");
  sibling.Set("bench", JsonValue::Str("bench_sibling"));
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(WriteJsonFile(sibling, dir + "/bench_sibling.json").ok());

  JsonValue report = MakeReport({{"gap", 150.0}});
  // 150 >= 0.5 * (600/3) = 100 holds; at factor 1 it fails.
  JsonValue holds = MakeBaseline(
      report, R"([{"name": "gap consistent", "type": "ge", "left": "gap",
                   "right": "bench_sibling::imbalance/kg",
                   "right_div": "bench_sibling::imbalance/pkg",
                   "factor": 0.5}])");
  auto outcome = repro::CheckReport(report, holds, dir);
  EXPECT_TRUE(outcome.ok()) << outcome.failures[0];
  JsonValue tight = MakeBaseline(
      report, R"([{"name": "gap too tight", "type": "ge", "left": "gap",
                   "right": "bench_sibling::imbalance/kg",
                   "right_div": "bench_sibling::imbalance/pkg"}])");
  EXPECT_FALSE(repro::CheckReport(report, tight, dir).ok());
}

TEST(BenchCheckTest, CrossBenchReadsCapturedMetricsNotHostMetrics) {
  const std::string dir = testing::TempDir() + "cross_bench_host";
  JsonValue sibling_captured =
      MakeReport({{"det", 2.0}}, {{"wall_clock", 777.0}});
  JsonValue sibling = MakeBaseline(
      sibling_captured, R"([{"name": "p", "type": "ge", "left": "det",
                             "right_const": 0}])");
  sibling.Set("bench", JsonValue::Str("bench_sibling"));
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(WriteJsonFile(sibling, dir + "/bench_sibling.json").ok());

  JsonValue report = MakeReport({{"a", 1.0}});
  // Deterministic captured metric: resolvable.
  JsonValue det = MakeBaseline(
      report, R"([{"name": "det readable", "type": "ge",
                   "left": "bench_sibling::det", "right_const": 1}])");
  EXPECT_TRUE(repro::CheckReport(report, det, dir).ok());
  // Captured *host* metric: deliberately not resolvable (another host's
  // wall clock is not a reproducible operand).
  JsonValue host = MakeBaseline(
      report, R"([{"name": "wall clock off limits", "type": "ge",
                   "left": "bench_sibling::wall_clock", "right_const": 0}])");
  EXPECT_FALSE(repro::CheckReport(report, host, dir).ok());
}

TEST(BenchCheckTest, CrossBenchFailsClosedWithoutDirectoryOrSibling) {
  JsonValue report = MakeReport({{"a", 1.0}});
  JsonValue baseline = MakeBaseline(
      report, R"([{"name": "x", "type": "ge",
                   "left": "bench_missing::metric", "right_const": 0}])");
  // No directory: red, with a message naming the problem.
  auto no_dir = repro::CheckReport(report, baseline);
  ASSERT_FALSE(no_dir.ok());
  EXPECT_NE(no_dir.failures[0].find("no baseline directory"),
            std::string::npos);
  // Directory without the sibling file: red too.
  const std::string dir = testing::TempDir() + "cross_bench_empty";
  std::filesystem::create_directories(dir);
  auto no_file = repro::CheckReport(report, baseline, dir);
  ASSERT_FALSE(no_file.ok());
  EXPECT_NE(no_file.failures[0].find("bench_missing"), std::string::npos);
  // A sibling file whose document identifies as a *different* bench (a
  // misnamed or miscopied baseline): red, not another bench's numbers.
  JsonValue imposter = MakeBaseline(
      MakeReport({{"metric", 1.0}}), R"([{"name": "p", "type": "ge",
                                          "left": "metric",
                                          "right_const": 0}])");
  imposter.Set("bench", JsonValue::Str("bench_other"));
  ASSERT_TRUE(WriteJsonFile(imposter, dir + "/bench_missing.json").ok());
  auto misnamed = repro::CheckReport(report, baseline, dir);
  ASSERT_FALSE(misnamed.ok());
  EXPECT_NE(misnamed.failures[0].find("declares bench 'bench_other'"),
            std::string::npos);
}

TEST(BenchCheckTest, MissingSiblingInputsAreDistinguishableFromMetricDrift) {
  // A missing gate *input* (wrong --baseline-dir, never-committed sibling,
  // corrupt file) must read as a configuration problem, not as metric
  // drift — each case gets a distinct, self-diagnosing message.
  JsonValue report = MakeReport({{"a", 1.0}});
  JsonValue baseline = MakeBaseline(
      report, R"([{"name": "x", "type": "ge",
                   "left": "bench_missing::metric", "right_const": 0}])");

  // Directory itself absent: the message names the directory, not the file.
  const std::string ghost_dir = testing::TempDir() + "cross_bench_ghost_dir";
  std::filesystem::remove_all(ghost_dir);
  auto no_dir = repro::CheckReport(report, baseline, ghost_dir);
  ASSERT_FALSE(no_dir.ok());
  EXPECT_NE(no_dir.failures[0].find("missing gate input"), std::string::npos);
  EXPECT_NE(no_dir.failures[0].find(ghost_dir), std::string::npos);
  EXPECT_NE(no_dir.failures[0].find("itself is missing"), std::string::npos);

  // Directory present, sibling file absent: names the file, still flagged
  // as a gate input problem.
  const std::string dir = testing::TempDir() + "cross_bench_no_sibling";
  std::filesystem::remove_all(dir);  // TempDir persists across runs
  std::filesystem::create_directories(dir);
  auto no_file = repro::CheckReport(report, baseline, dir);
  ASSERT_FALSE(no_file.ok());
  EXPECT_NE(no_file.failures[0].find("does not exist"), std::string::npos);
  EXPECT_NE(no_file.failures[0].find("bench_missing.json"),
            std::string::npos);
  EXPECT_NE(no_file.failures[0].find("missing gate input"),
            std::string::npos);

  // File present but unparsable: "cannot parse", never "does not exist".
  {
    std::ofstream corrupt(dir + "/bench_missing.json");
    corrupt << "{ not json";
  }
  auto bad_parse = repro::CheckReport(report, baseline, dir);
  ASSERT_FALSE(bad_parse.ok());
  EXPECT_NE(bad_parse.failures[0].find("cannot parse"), std::string::npos);
  EXPECT_EQ(bad_parse.failures[0].find("does not exist"), std::string::npos);
}

TEST(BenchCheckTest, SkipHostInvariantsSkipsOnlyTimingClaims) {
  // Sanitizer runs pass skip_host_invariants: a wall-clock ratio that
  // would fail is skipped (and counted), while a violated deterministic
  // invariant and metric drift still go red.
  JsonValue captured = MakeReport({{"det", 5.0}}, {{"rate_a", 1.0}});
  JsonValue report = MakeReport({{"det", 5.0}}, {{"rate_a", 1.0}});
  JsonValue baseline = MakeBaseline(
      captured, R"([{"name": "timing ratio", "type": "ge", "left": "rate_a",
                     "right_const": 50},
                    {"name": "det positive", "type": "ge", "left": "det",
                     "right_const": 0}])");
  // Without the option the timing claim fails...
  EXPECT_FALSE(repro::CheckReport(report, baseline).ok());
  // ...with it, it is skipped and everything else holds.
  repro::CheckOptions skip;
  skip.skip_host_invariants = true;
  auto outcome = repro::CheckReport(report, baseline, "", skip);
  EXPECT_TRUE(outcome.ok()) << outcome.failures[0];
  EXPECT_EQ(outcome.skipped, 1u);

  // A violated *deterministic* invariant is still a failure under skip.
  JsonValue det_broken = MakeBaseline(
      captured, R"([{"name": "det huge", "type": "ge", "left": "det",
                     "right_const": 1000}])");
  auto det_outcome = repro::CheckReport(report, det_broken, "", skip);
  ASSERT_FALSE(det_outcome.ok());
  EXPECT_EQ(det_outcome.skipped, 0u);

  // Deterministic metric drift is still a failure under skip.
  JsonValue drifted = MakeReport({{"det", 6.0}}, {{"rate_a", 1.0}});
  EXPECT_FALSE(repro::CheckReport(drifted, baseline, "", skip).ok());
}

TEST(BenchCheckTest, HostMetricsResolvableInInvariantsButNotDiffed) {
  JsonValue captured = MakeReport({{"det", 1.0}}, {{"mps", 100.0}});
  JsonValue report = MakeReport({{"det", 1.0}}, {{"mps", 977.0}});
  // Wall-clock drift between capture and fresh run must not fail...
  JsonValue baseline = MakeBaseline(
      captured, R"([{"name": "made progress", "type": "ge", "left": "mps",
                     "right_const": 0, "factor": 1}])");
  auto outcome = repro::CheckReport(report, baseline);
  EXPECT_TRUE(outcome.ok()) << outcome.failures[0];
}

TEST(BenchCheckTest, MetricDriftAgainstCapturedFails) {
  JsonValue captured = MakeReport({{"a", 1.0}});
  JsonValue drifted = MakeReport({{"a", 1.001}});
  JsonValue baseline = MakeBaseline(
      captured, R"([{"name": "positive", "type": "ge", "left": "a",
                     "right_const": 0}])");
  auto outcome = repro::CheckReport(drifted, baseline);
  ASSERT_FALSE(outcome.ok());
  EXPECT_NE(outcome.failures[0].find("drifted"), std::string::npos);
}

TEST(BenchCheckTest, MissingAndUnknownMetricsFail) {
  JsonValue captured = MakeReport({{"a", 1.0}, {"gone", 2.0}});
  JsonValue fresh = MakeReport({{"a", 1.0}, {"new", 3.0}});
  JsonValue baseline = MakeBaseline(
      captured, R"([{"name": "positive", "type": "ge", "left": "a",
                     "right_const": 0}])");
  auto outcome = repro::CheckReport(fresh, baseline);
  ASSERT_EQ(outcome.failures.size(), 2u);
  EXPECT_NE(outcome.failures[0].find("'gone' missing"), std::string::npos);
  EXPECT_NE(outcome.failures[1].find("'new'"), std::string::npos);
}

TEST(BenchCheckTest, EmptyInvariantsAreARedGate) {
  JsonValue report = MakeReport({{"a", 1.0}});
  JsonValue baseline = MakeBaseline(report, "[]");
  auto outcome = repro::CheckReport(report, baseline);
  ASSERT_FALSE(outcome.ok());
  EXPECT_NE(outcome.failures[0].find("no invariants"), std::string::npos);
}

TEST(BenchCheckTest, UnknownInvariantTypeAndMissingKeyFail) {
  JsonValue report = MakeReport({{"a", 1.0}});
  JsonValue unknown = MakeBaseline(
      report, R"([{"name": "x", "type": "approximately"}])");
  EXPECT_FALSE(repro::CheckReport(report, unknown).ok());
  JsonValue missing = MakeBaseline(
      report, R"([{"name": "x", "type": "ge", "left": "nope",
                   "right": "a"}])");
  EXPECT_FALSE(repro::CheckReport(report, missing).ok());
}

TEST(BenchCheckTest, MismatchedDocumentsFail) {
  JsonValue report = MakeReport({{"a", 1.0}});
  JsonValue baseline = MakeBaseline(
      report, R"([{"name": "positive", "type": "ge", "left": "a",
                   "right_const": 0}])");

  JsonValue wrong_bench = report;
  wrong_bench.Set("bench", JsonValue::Str("bench_other"));
  EXPECT_FALSE(repro::CheckReport(wrong_bench, baseline).ok());

  JsonValue wrong_scale = report;
  wrong_scale.Set("scale", JsonValue::Str("full"));
  EXPECT_FALSE(repro::CheckReport(wrong_scale, baseline).ok());

  JsonValue wrong_seed = report;
  wrong_seed.Set("seed", JsonValue::Number(7));
  EXPECT_FALSE(repro::CheckReport(wrong_seed, baseline).ok());

  JsonValue wrong_schema = report;
  wrong_schema.Set("schema_version", JsonValue::Number(99));
  EXPECT_FALSE(repro::CheckReport(wrong_schema, baseline).ok());
}

// ---------------------------------------------------------------------------
// Audit of the committed baselines: every paper bench has one, every file is
// self-consistent (its captured report satisfies its own declared
// invariants), and the declared invariant counts match this manifest —
// deleting an invariant from a baseline file fails here.
// ---------------------------------------------------------------------------

struct BaselineSpec {
  const char* bench;
  size_t invariants;
};

constexpr BaselineSpec kBaselines[] = {
    {"bench_table1_datasets", 16},
    {"bench_table2_imbalance", 16},
    {"bench_fig2_local_vs_global", 18},
    {"bench_fig3_time_series", 6},
    {"bench_fig4_skewed_sources", 7},
    {"bench_fig5a_throughput", 12},
    {"bench_fig5b_memory", 11},
    {"bench_ablation_choices", 14},
    {"bench_ablation_probing", 7},
    {"bench_ablation_rebalance", 8},
    {"bench_seq_dchoices", 24},
    {"bench_micro_route", 14},
    {"bench_latency_under_load", 21},
    {"bench_threaded_manyworkers", 28},
    {"bench_reconfig", 44},
};

class BaselineAuditTest : public testing::TestWithParam<BaselineSpec> {};

TEST_P(BaselineAuditTest, CommittedBaselineIsSelfConsistent) {
  const BaselineSpec& spec = GetParam();
  const std::string path =
      std::string(PKGSTREAM_BASELINE_DIR) + "/" + spec.bench + ".json";
  auto baseline = ReadJsonFile(path);
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  EXPECT_EQ(baseline->StringOr("bench", "?"), spec.bench);
  EXPECT_EQ(baseline->NumberOr("schema_version", -1),
            bench::kReportSchemaVersion);

  const JsonValue* invariants = baseline->Find("invariants");
  ASSERT_NE(invariants, nullptr);
  ASSERT_TRUE(invariants->is_array());
  EXPECT_EQ(invariants->size(), spec.invariants)
      << "declared invariants changed for " << spec.bench
      << "; review the paper-shape coverage and update this manifest";

  const JsonValue* captured = baseline->FindObject("captured");
  ASSERT_NE(captured, nullptr) << "baseline has no captured report";
  EXPECT_EQ(captured->StringOr("scale", "?"), "quick")
      << "baselines are captured at --quick (the scale the repro gate runs)";
  const JsonValue* metrics = captured->FindObject("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_GT(metrics->members().size(), 0u);

  // The captured report must satisfy its own invariants: a baseline that
  // fails itself can only ever go red, which hides real regressions. The
  // committed baseline directory doubles as the cross-bench sibling root.
  auto outcome =
      repro::CheckReport(*captured, *baseline, PKGSTREAM_BASELINE_DIR);
  EXPECT_TRUE(outcome.ok())
      << spec.bench << " self-check: " << outcome.failures[0];
}

INSTANTIATE_TEST_SUITE_P(
    AllBaselines, BaselineAuditTest, testing::ValuesIn(kBaselines),
    [](const testing::TestParamInfo<BaselineSpec>& info) {
      return std::string(info.param.bench);
    });

}  // namespace
}  // namespace pkgstream
