// compare: the gain/regression verdict between two sets of --out results;
// history: one trajectory line per workload from a set of results.
//
// compare pairs parent and change runs of the same workload and seed, and
// for every end-to-end metric x workload prints one row:
//   improved    the change wins at least 9 of 10 pairs (ties count for
//               neither), over at least 10 pairs, and the medians differ by
//               more than the parent's interquartile range;
//   regressed   the change's median is worse than the parent's by more than
//               the metric's bound;
//   unresolved  the parent's own spread is wider than the bound and not
//               every change run beats every parent run;
//   unchanged   otherwise.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "bench.hpp"
#include "src/common/error.hpp"

namespace capart::e2e {
namespace {

namespace fs = std::filesystem;

struct Result {
  std::string file;
  std::string workload;
  std::uint64_t seed = 0;
  std::string outputs;  ///< outputs_digest
  std::map<std::string, double> metrics;
  obs::JsonValue host;
};

/// Every untraced result JSON in `dir`, in file-name order.
std::vector<Result> load_results(const std::string& dir) {
  std::vector<fs::path> files;
  std::error_code ec;
  for (const fs::directory_entry& e : fs::directory_iterator(dir, ec)) {
    if (e.path().extension() == ".json") files.push_back(e.path());
  }
  if (ec) throw Error("cannot read " + dir + ": " + ec.message());
  std::sort(files.begin(), files.end());
  std::vector<Result> out;
  for (const fs::path& path : files) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string error;
    const std::optional<obs::JsonValue> doc = obs::parse_json(buf.str(), &error);
    if (!doc || doc->find("workload") == nullptr ||
        doc->find("metrics") == nullptr) {
      throw Error(path.string() + ": not a capart_bench result " + error);
    }
    const obs::JsonValue* traced = doc->find("traced");
    if (traced != nullptr && traced->boolean) continue;
    Result r;
    r.file = path.filename().string();
    r.workload = std::string(doc->find("workload")->as_string());
    r.seed = doc->find("seed") != nullptr ? doc->find("seed")->as_u64() : 0;
    if (const obs::JsonValue* outputs = doc->find("outputs_digest")) {
      r.outputs = std::string(outputs->as_string());
    }
    for (const auto& [name, m] : doc->find("metrics")->object) {
      if (const obs::JsonValue* v = m.find("value")) {
        r.metrics[name] = v->as_double();
      }
    }
    if (const obs::JsonValue* host = doc->find("host")) r.host = *host;
    out.push_back(std::move(r));
  }
  return out;
}

std::map<std::string, std::vector<const Result*>> by_workload(
    const std::vector<Result>& results) {
  std::map<std::string, std::vector<const Result*>> out;
  for (const Result& r : results) out[r.workload].push_back(&r);
  return out;
}

/// Parent/change pairs of one workload: same seed, in file order.
std::vector<std::pair<const Result*, const Result*>> pair_runs(
    const std::vector<const Result*>& parent,
    const std::vector<const Result*>& change) {
  std::vector<std::pair<const Result*, const Result*>> pairs;
  std::vector<bool> used(change.size(), false);
  for (const Result* p : parent) {
    for (std::size_t k = 0; k < change.size(); ++k) {
      if (!used[k] && change[k]->seed == p->seed) {
        used[k] = true;
        pairs.emplace_back(p, change[k]);
        break;
      }
    }
  }
  return pairs;
}

std::string verdict(const MetricSpec& spec, const std::vector<double>& parent,
                    const std::vector<double>& change, std::size_t* wins) {
  const auto better = [&](double c, double p) {
    return spec.higher_is_better ? c > p : c < p;
  };
  *wins = 0;
  for (std::size_t i = 0; i < parent.size(); ++i) {
    if (better(change[i], parent[i])) ++*wins;
  }
  const double p_med = median(parent);
  const double c_med = median(change);
  const std::array<double, 3> q = quartiles(parent);
  const double iqr = q[2] - q[0];
  const double gain = spec.higher_is_better ? c_med - p_med : p_med - c_med;
  const std::size_t n = parent.size();
  if (n >= 10 && *wins * 10 >= n * 9 && gain > iqr) return "improved";

  // failed_arm_frac's bound is absolute; the others are shares of the
  // parent's median.
  const bool absolute = spec.name == "failed_arm_frac";
  const double scale = absolute || p_med == 0.0 ? 1.0 : std::abs(p_med);
  const double spread = absolute ? 0.0 : iqr / scale;
  bool all_better = !parent.empty();
  for (const double c : change) {
    for (const double p : parent) all_better = all_better && better(c, p);
  }
  if (spread > spec.bound && !all_better) return "unresolved";
  if (-gain / scale > spec.bound) return "regressed";
  return "unchanged";
}

void write_value(obs::JsonWriter& w, const obs::JsonValue& v) {
  switch (v.kind) {
    case obs::JsonValue::Kind::kString:
      w.value(v.string);
      break;
    case obs::JsonValue::Kind::kNumber:
      if (v.is_integer) {
        w.value(v.u64);
      } else {
        w.value(v.number);
      }
      break;
    case obs::JsonValue::Kind::kBool:
      w.value(v.boolean);
      break;
    case obs::JsonValue::Kind::kObject:
      w.begin_object();
      for (const auto& [key, member] : v.object) {
        w.key(key);
        write_value(w, member);
      }
      w.end_object();
      break;
    case obs::JsonValue::Kind::kArray:
      w.begin_array();
      for (const obs::JsonValue& item : v.array) write_value(w, item);
      w.end_array();
      break;
    case obs::JsonValue::Kind::kNull:
      w.null();
      break;
  }
}

}  // namespace

int compare_main(const std::string& parent_dir, const std::string& change_dir) {
  const std::vector<Result> parent = load_results(parent_dir);
  const std::vector<Result> change = load_results(change_dir);
  const auto parent_by = by_workload(parent);
  const auto change_by = by_workload(change);
  bool regressed = false;
  std::printf("%-16s %-18s %14s %14s %7s  %s\n", "workload", "metric",
              "parent_med", "change_med", "wins", "verdict");
  for (const auto& [workload, parent_runs] : parent_by) {
    const auto it = change_by.find(workload);
    if (it == change_by.end()) {
      std::printf("%-16s (no change runs)\n", workload.c_str());
      continue;
    }
    const auto pairs = pair_runs(parent_runs, it->second);
    for (const MetricSpec& spec : end_to_end_specs()) {
      std::vector<double> p;
      std::vector<double> c;
      for (const auto& [pr, cr] : pairs) {
        const auto pv = pr->metrics.find(std::string(spec.name));
        const auto cv = cr->metrics.find(std::string(spec.name));
        if (pv == pr->metrics.end() || cv == cr->metrics.end()) continue;
        p.push_back(pv->second);
        c.push_back(cv->second);
      }
      if (p.empty()) continue;
      std::size_t wins = 0;
      const std::string v = verdict(spec, p, c, &wins);
      regressed = regressed || v == "regressed";
      std::printf("%-16s %-18.*s %14.6g %14.6g %3zu/%-3zu  %s\n",
                  workload.c_str(), static_cast<int>(spec.name.size()),
                  spec.name.data(), median(p), median(c), wins, p.size(),
                  v.c_str());
    }
    // A change that claims only speed must simulate the same outputs.
    std::size_t differ = 0;
    for (const auto& [pr, cr] : pairs) differ += pr->outputs != cr->outputs;
    std::printf("%-16s simulated outputs %s in %zu of %zu pairs\n",
                workload.c_str(), differ == 0 ? "identical" : "DIFFER",
                differ == 0 ? pairs.size() : differ, pairs.size());
    if (pairs.size() < 10) {
      std::printf("%-16s only %zu pairs: a gain needs at least 10\n",
                  workload.c_str(), pairs.size());
    }
  }
  return regressed ? 1 : 0;
}

int history_main(const std::string& dir, const std::string& label) {
  const std::vector<Result> results = load_results(dir);
  for (const auto& [workload, runs] : by_workload(results)) {
    obs::JsonWriter w;
    w.begin_object().key("label").value(label).key("workload").value(workload);
    w.key("runs").value(runs.size()).key("host");
    write_value(w, runs.front()->host);
    w.key("seeds").begin_array();
    for (const Result* r : runs) w.value(r->seed);
    w.end_array().key("metrics").begin_object();
    for (const MetricSpec& spec : end_to_end_specs()) {
      std::vector<double> values;
      for (const Result* r : runs) {
        const auto v = r->metrics.find(std::string(spec.name));
        if (v != r->metrics.end()) values.push_back(v->second);
      }
      if (values.empty()) continue;
      const std::array<double, 3> q = quartiles(values);
      w.key(spec.name).begin_object()
          .key("median").value(median(values))
          .key("q1").value(q[0])
          .key("q3").value(q[2])
          .key("unit").value(spec.unit)
          .end_object();
    }
    w.end_object().end_object();
    std::printf("%s\n", w.str().c_str());
  }
  return 0;
}

}  // namespace capart::e2e
