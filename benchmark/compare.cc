// Copyright 2026 The pkgstream Authors.
// compare: summarizes and compares sets of pkgbench results against the
// regression bounds in BENCHMARK.json.
//
//   compare --summary=A.jsonl [--bench=BENCHMARK.json]
//   compare --base=A.jsonl --change=B.jsonl --bench=BENCHMARK.json
//
// A result set is the JSON-lines file `pkgbench --record` appends to (one
// {"fingerprint", "result"} line per run; benchmark/run.sh --repeat=N writes
// one). Quartiles follow Python's statistics.quantiles(n=4) ("exclusive"),
// and a metric's spread is (q3 - q1) / |median|.
//
// --summary prints each workload's median, quartiles and spread per metric.
// --base/--change prints one row per workload and marks every end-to-end
// metric:
//   ok          the change's median is not worse than the base's by more
//               than the metric's bound;
//   regressed   it is worse by more than the bound;
//   unresolved  either side's spread is wider than the bound, so the runs
//               cannot tell (unless every change run beats every base run).
//
// Exit codes: 0 everything ok; 1 a metric regressed or is unresolved, or a
// run failed its oracles or is marked invalid; 2 usage or unreadable input.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/json.h"
#include "common/table.h"

namespace pkgstream {
namespace {

struct Bound {
  std::string name;
  bool higher_is_better = false;
  double bound = 0;
};

/// workload -> metric -> one value per run (traced runs are kept apart under
/// "<workload> (traced)").
struct ResultSet {
  std::map<std::string, std::map<std::string, std::vector<double>>> values;
  std::map<std::string, std::string> units;
  size_t runs = 0;
  size_t incorrect = 0;
  size_t invalid = 0;  ///< runs the host disturbed (fingerprint "valid")
};

Status ReadResults(const std::string& path, ResultSet* out) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    auto doc = JsonValue::Parse(line);
    const std::string where = path + ":" + std::to_string(lineno);
    if (!doc.ok()) {
      return Status::InvalidArgument(where + ": " + doc.status().ToString());
    }
    const JsonValue* fp = doc->FindObject("fingerprint");
    const JsonValue* result = doc->FindObject("result");
    const JsonValue* metrics =
        result == nullptr ? nullptr : result->FindObject("metrics");
    if (fp == nullptr || metrics == nullptr) {
      return Status::InvalidArgument(where + ": not a pkgbench record");
    }
    std::string workload = fp->StringOr("workload", "?");
    const JsonValue* traced = fp->Find("trace");
    if (traced != nullptr && traced->is_bool() && traced->bool_value()) {
      workload += " (traced)";
    }
    const JsonValue* correct = result->Find("correct");
    if (correct == nullptr || !correct->is_bool() || !correct->bool_value()) {
      ++out->incorrect;
    }
    const JsonValue* valid = fp->Find("valid");
    if (valid != nullptr && valid->is_bool() && !valid->bool_value()) {
      ++out->invalid;
    }
    for (const auto& [name, metric] : metrics->members()) {
      const JsonValue* value = metric.Find("value");
      if (value == nullptr || !value->is_number()) {
        return Status::InvalidArgument(where + ": metric " + name +
                                       " has no value");
      }
      out->values[workload][name].push_back(value->number());
      out->units[name] = metric.StringOr("unit", "");
    }
    ++out->runs;
  }
  if (out->runs == 0) return Status::InvalidArgument(path + " holds no runs");
  return Status::OK();
}

Status ReadBounds(const std::string& path, std::vector<Bound>* out) {
  auto doc = ReadJsonFile(path);
  if (!doc.ok()) return doc.status();
  const JsonValue* list = doc->Find("end_to_end");
  if (list == nullptr || !list->is_array()) {
    return Status::InvalidArgument(path + " has no end_to_end list");
  }
  for (size_t i = 0; i < list->size(); ++i) {
    const JsonValue& m = list->at(i);
    Bound b;
    b.name = m.StringOr("name", "");
    b.higher_is_better = m.StringOr("better", "") == "higher";
    b.bound = m.NumberOr("bound", -1);
    if (b.name.empty() || b.bound < 0) {
      return Status::InvalidArgument(path + ": malformed end_to_end entry");
    }
    out->push_back(b);
  }
  return Status::OK();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Python's statistics.quantiles(data, n=4), method "exclusive".
std::vector<double> Quartiles(std::vector<double> d) {
  std::sort(d.begin(), d.end());
  const long ld = static_cast<long>(d.size());
  if (ld < 2) return {d[0], d[0], d[0]};
  const long m = ld + 1;
  std::vector<double> q;
  for (long i = 1; i < 4; ++i) {
    long j = i * m / 4;
    j = std::min(std::max(j, 1L), ld - 1);
    const long delta = i * m - j * 4;
    q.push_back((d[j - 1] * static_cast<double>(4 - delta) +
                 d[j] * static_cast<double>(delta)) /
                4);
  }
  return q;
}

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

double Spread(const std::vector<double>& v) {
  const std::vector<double> q = Quartiles(v);
  const double med = Median(v);
  if (med == 0) return q[2] == q[0] ? 0 : INFINITY;
  return (q[2] - q[0]) / std::fabs(med);
}

int Summary(const ResultSet& set, const std::vector<Bound>& bounds) {
  std::map<std::string, double> bound_of;
  for (const Bound& b : bounds) bound_of[b.name] = b.bound;
  Table table({"workload", "metric", "n", "median", "q1", "q3", "spread",
               "bound", "unit"});
  for (const auto& [workload, metrics] : set.values) {
    for (const auto& [name, values] : metrics) {
      const std::vector<double> q = Quartiles(values);
      auto it = bound_of.find(name);
      const bool has_bound = it != bound_of.end();
      const double spread = Spread(values);
      std::string spread_cell = FormatFixed(100 * spread, 2) + "%";
      if (has_bound && spread > it->second) {
        spread_cell += " WIDE";
      }
      table.AddRow({workload, name, std::to_string(values.size()),
                    Num(Median(values)), Num(q[0]), Num(q[2]), spread_cell,
                    has_bound ? FormatFixed(100 * it->second, 0) + "%" : "-",
                    set.units.at(name)});
    }
  }
  table.Print(std::cout);
  std::cout << set.runs << " run(s), " << set.incorrect
            << " failed their oracles, " << set.invalid << " invalid\n";
  return set.incorrect + set.invalid == 0 ? 0 : 1;
}

int Compare(const ResultSet& base, const ResultSet& change,
            const std::vector<Bound>& bounds) {
  std::vector<std::string> header = {"workload"};
  for (const Bound& b : bounds) header.push_back(b.name);
  Table table(header);
  size_t bad = 0;
  for (const auto& [workload, base_metrics] : base.values) {
    if (workload.find("(traced)") != std::string::npos) continue;
    auto change_it = change.values.find(workload);
    if (change_it == change.values.end()) {
      std::cout << workload << ": no runs in the change set\n";
      ++bad;
      continue;
    }
    std::vector<std::string> row = {workload};
    for (const Bound& b : bounds) {
      auto bv = base_metrics.find(b.name);
      auto cv = change_it->second.find(b.name);
      if (bv == base_metrics.end() || cv == change_it->second.end()) {
        row.push_back("missing");
        ++bad;
        continue;
      }
      const double bm = Median(bv->second);
      const double cm = Median(cv->second);
      // Positive = the change is worse.
      const double worse = (b.higher_is_better ? bm - cm : cm - bm) /
                           (bm == 0 ? 1 : std::fabs(bm));
      const auto [bmin, bmax] =
          std::minmax_element(bv->second.begin(), bv->second.end());
      const auto [cmin, cmax] =
          std::minmax_element(cv->second.begin(), cv->second.end());
      const bool every_run_better =
          b.higher_is_better ? *cmin > *bmax : *cmax < *bmin;
      const bool wide =
          std::max(Spread(bv->second), Spread(cv->second)) > b.bound;
      std::string status = "ok";
      if (wide && !every_run_better) {
        status = "unresolved";
      } else if (worse > b.bound) {
        status = "regressed";
      }
      if (status != "ok") ++bad;
      row.push_back(status + " " + (worse > 0 ? "+" : "") +
                    FormatFixed(100 * worse, 1) + "%");
    }
    table.AddRow(row);
  }
  table.Print(std::cout);
  std::cout << "(cells: status and how much worse the change's median is; "
               "negative = better)\n";
  if (base.incorrect + change.incorrect > 0) {
    std::cout << base.incorrect + change.incorrect
              << " run(s) failed their oracles\n";
    return 1;
  }
  if (base.invalid + change.invalid > 0) {
    std::cout << base.invalid + change.invalid
              << " run(s) invalid: the host disturbed them\n";
    return 1;
  }
  return bad == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  Flags flags;
  Status s = Flags::Parse(argc, argv, &flags);
  const std::string summary = flags.GetString("summary", "");
  const std::string base = flags.GetString("base", "");
  const std::string change = flags.GetString("change", "");
  const std::string bench = flags.GetString("bench", "");
  const bool compare = !base.empty() && !change.empty() && !bench.empty();
  if (!s.ok() || (summary.empty() == !compare)) {
    std::cerr << "usage: compare --summary=RESULTS.jsonl "
                 "[--bench=BENCHMARK.json]\n"
                 "       compare --base=A.jsonl --change=B.jsonl "
                 "--bench=BENCHMARK.json\n";
    return 2;
  }
  std::vector<Bound> bounds;
  if (!bench.empty()) {
    Status b = ReadBounds(bench, &bounds);
    if (!b.ok()) {
      std::cerr << b << "\n";
      return 2;
    }
  }
  ResultSet a, b;
  Status read = ReadResults(compare ? base : summary, &a);
  if (read.ok() && compare) read = ReadResults(change, &b);
  if (!read.ok()) {
    std::cerr << read << "\n";
    return 2;
  }
  return compare ? Compare(a, b, bounds) : Summary(a, bounds);
}

}  // namespace
}  // namespace pkgstream

int main(int argc, char** argv) { return pkgstream::Main(argc, argv); }
