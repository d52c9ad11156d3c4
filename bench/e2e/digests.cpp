// Output check: per-arm FNV-1a64 digests of the simulated results and the
// committed expected files (expected/seed<N>.json, expected/smoke.json).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "src/common/error.hpp"

namespace capart::e2e {
namespace {

class Fnv64 {
 public:
  void add(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFu;
      h_ *= 0x100000001B3ull;
    }
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

void add_interval(Fnv64& h, const sim::IntervalRecord& record) {
  h.add(record.index);
  h.add(record.threads.size());
  for (const sim::ThreadIntervalRecord& t : record.threads) {
    h.add(t.instructions);
    h.add(t.exec_cycles);
    h.add(t.stall_cycles);
    h.add(t.l1_misses);
    h.add(t.l2_accesses);
    h.add(t.l2_hits);
    h.add(t.l2_misses);
    h.add(t.ways);
  }
}

std::string hex(std::uint64_t v, int digits) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%0*llx", digits,
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t parse_hex(std::string_view text, const std::string& path) {
  std::uint64_t v = 0;
  if (text.empty() || text.size() > 16) {
    throw Error(path + ": bad digest '" + std::string(text) + "'");
  }
  for (const char c : text) {
    const int d = c >= '0' && c <= '9'   ? c - '0'
                  : c >= 'a' && c <= 'f' ? c - 'a' + 10
                                         : -1;
    if (d < 0) throw Error(path + ": bad digest '" + std::string(text) + "'");
    v = v << 4 | static_cast<std::uint64_t>(d);
  }
  return v;
}

std::optional<obs::JsonValue> read_json(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string error;
  std::optional<obs::JsonValue> doc = obs::parse_json(buf.str(), &error);
  if (!doc || !doc->is_object()) {
    throw Error(path + ": not a JSON object: " + error);
  }
  return doc;
}

DigestSet parse_set(const obs::JsonValue& set, const std::string& path) {
  DigestSet out;
  for (const auto& [arm, entry] : set.object) {
    const obs::JsonValue* total = entry.find("digest");
    const obs::JsonValue* intervals = entry.find("intervals");
    if (total == nullptr || !total->is_string() || intervals == nullptr ||
        !intervals->is_array()) {
      throw Error(path + ": arm " + arm + " lacks digest/intervals");
    }
    NamedDigest d{arm, {parse_hex(total->string, path), {}}};
    for (const obs::JsonValue& iv : intervals->array) {
      d.digest.intervals.push_back(
          static_cast<std::uint32_t>(parse_hex(iv.as_string(), path)));
    }
    out.push_back(std::move(d));
  }
  return out;
}

/// One arm per line, so a regenerated file diffs arm by arm.
void write_set(std::string& out, const DigestSet& set) {
  out += "{\n";
  for (std::size_t i = 0; i < set.size(); ++i) {
    const NamedDigest& d = set[i];
    out += "      \"";
    obs::append_json_escaped(out, d.arm);
    out += "\": {\"digest\": \"" + hex(d.digest.total, 16) +
           "\", \"intervals\": [";
    for (std::size_t k = 0; k < d.digest.intervals.size(); ++k) {
      out += (k == 0 ? "\"" : ", \"") + hex(d.digest.intervals[k], 8) + "\"";
    }
    out += i + 1 < set.size() ? "]},\n" : "]}\n";
  }
  out += "    }";
}

const NamedDigest* find_arm(const DigestSet& set, const std::string& arm) {
  for (const NamedDigest& d : set) {
    if (d.arm == arm) return &d;
  }
  return nullptr;
}

/// "" when equal, else where the two digests of one arm first differ.
std::string arm_difference(const std::string& arm, const ArmDigest& want,
                           const ArmDigest& got) {
  if (want == got) return "";
  const std::size_t n = std::min(want.intervals.size(), got.intervals.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (want.intervals[i] != got.intervals[i]) {
      return "arm " + arm + ", interval " + std::to_string(i);
    }
  }
  if (want.intervals.size() != got.intervals.size()) {
    return "arm " + arm + ", interval " + std::to_string(n) +
           " (interval count " + std::to_string(got.intervals.size()) +
           " vs " + std::to_string(want.intervals.size()) + ")";
  }
  return "arm " + arm + ", run totals";
}

}  // namespace

ArmDigest digest_result(const sim::ExperimentResult& result) {
  ArmDigest d;
  Fnv64 total;
  total.add(result.outcome.total_cycles);
  total.add(result.outcome.intervals_completed);
  total.add(result.outcome.instructions_retired);
  for (ThreadId t = 0; t < result.l2_stats.num_threads(); ++t) {
    const mem::ThreadCacheCounters& c = result.l2_stats.thread(t);
    total.add(c.accesses);
    total.add(c.hits);
    total.add(c.misses);
    total.add(c.inter_thread_hits);
    total.add(c.inter_thread_evictions_caused);
    total.add(c.inter_thread_evictions_suffered);
    total.add(c.intra_thread_evictions);
    total.add(c.writebacks);
  }
  for (const sim::IntervalRecord& record : result.intervals) {
    add_interval(total, record);
    Fnv64 one;
    add_interval(one, record);
    d.intervals.push_back(static_cast<std::uint32_t>(one.value() ^
                                                     (one.value() >> 32)));
  }
  d.total = total.value();
  return d;
}

std::string first_mismatch(const DigestSet& expected, const DigestSet& got) {
  for (const NamedDigest& g : got) {
    const NamedDigest* want = find_arm(expected, g.arm);
    if (want == nullptr) return "arm " + g.arm + " has no expected digest";
    std::string diff = arm_difference(g.arm, want->digest, g.digest);
    if (!diff.empty()) return diff;
  }
  return "";
}

std::size_t count_mismatches(const DigestSet& expected, const DigestSet& got) {
  std::size_t n = 0;
  for (const NamedDigest& g : got) {
    const NamedDigest* want = find_arm(expected, g.arm);
    if (want == nullptr || !(want->digest == g.digest)) ++n;
  }
  return n;
}

std::string set_digest(const DigestSet& digests) {
  Fnv64 h;
  for (const NamedDigest& d : digests) {
    for (const char c : d.arm) h.add(static_cast<unsigned char>(c));
    h.add(d.digest.total);
  }
  return hex(h.value(), 16);
}

std::string expected_path(const std::string& dir, std::uint64_t seed,
                          Scale scale) {
  return dir + (scale == Scale::kSmoke
                    ? std::string("/smoke.json")
                    : "/seed" + std::to_string(seed) + ".json");
}

std::optional<DigestSet> load_expected(const std::string& path,
                                       const std::string& set) {
  const std::optional<obs::JsonValue> doc = read_json(path);
  if (!doc) return std::nullopt;
  const obs::JsonValue* sets = doc->find("sets");
  const obs::JsonValue* entry = sets != nullptr ? sets->find(set) : nullptr;
  if (entry == nullptr) return std::nullopt;
  return parse_set(*entry, path);
}

void store_expected(const std::string& path, std::uint64_t seed,
                    const std::string& set, const DigestSet& digests) {
  std::vector<std::pair<std::string, DigestSet>> sets;
  if (const std::optional<obs::JsonValue> doc = read_json(path)) {
    if (const obs::JsonValue* old = doc->find("sets")) {
      for (const auto& [name, entry] : old->object) {
        if (name != set) sets.emplace_back(name, parse_set(entry, path));
      }
    }
  }
  sets.emplace_back(set, digests);
  std::sort(sets.begin(), sets.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  std::string text = "{\n  \"seed\": " + std::to_string(seed) +
                     ",\n  \"sets\": {\n";
  for (std::size_t i = 0; i < sets.size(); ++i) {
    text += "    \"" + sets[i].first + "\": ";
    write_set(text, sets[i].second);
    text += i + 1 < sets.size() ? ",\n" : "\n";
  }
  text += "  }\n}\n";
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) throw Error("cannot write " + path);
}

}  // namespace capart::e2e
