// JSON codec of sim::ExperimentConfig. The manifest event (event_log.cpp)
// records a run's config through write_config_fields, and capart_serve's
// spec codec (src/serve/spec_json.hpp) reads configs back through
// config_from_json: one set of field names and enum spellings ("profile",
// "policy": "model-based", "l2_mode": "partitioned-shared",
// "l2": {"sets","ways","line_bytes","repl"}, ...), so the config a JSONL
// events file records is directly resubmittable. Execution knobs
// (trace_spool_dir, trace_spool_max_bytes) are not part of a run's identity
// and are not written.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/error.hpp"
#include "src/obs/json.hpp"
#include "src/sim/experiment.hpp"

namespace capart::obs {

/// Reads one JSON object with unknown-key rejection: every getter marks its
/// key consumed; finish() throws on whatever was never asked for. Getters
/// throw on type mismatches, naming the full JSON path.
class ObjectReader {
 public:
  /// Throws ConfigError(path, "<path>: <message>").
  [[noreturn]] static void fail(const std::string& path,
                                const std::string& message) {
    throw ConfigError(path, path + ": " + message);
  }

  ObjectReader(const JsonValue& json, std::string where)
      : json_(json), where_(std::move(where)) {
    if (!json_.is_object()) fail(where_, "expected a JSON object");
    used_.assign(json_.object.size(), false);
  }

  std::string path(std::string_view key) const {
    return where_ + "." + std::string(key);
  }

  /// The member named `key`, marked consumed; nullptr when absent.
  const JsonValue* take(std::string_view key) {
    for (std::size_t i = 0; i < json_.object.size(); ++i) {
      if (json_.object[i].first == key) {
        used_[i] = true;
        return &json_.object[i].second;
      }
    }
    return nullptr;
  }

  template <class T>
  void u_int(std::string_view key, T& out,
             std::uint64_t max = std::numeric_limits<T>::max()) {
    const JsonValue* v = take(key);
    if (v == nullptr) return;
    if (!v->is_number() || !v->is_integer) {
      fail(path(key), "expected a non-negative integer");
    }
    if (v->u64 > max) {
      fail(path(key), "value " + std::to_string(v->u64) + " exceeds maximum " +
                          std::to_string(max));
    }
    out = static_cast<T>(v->u64);
  }

  void number(std::string_view key, double& out) {
    const JsonValue* v = take(key);
    if (v == nullptr) return;
    if (!v->is_number()) fail(path(key), "expected a number");
    out = v->as_double();
  }

  void boolean(std::string_view key, bool& out) {
    const JsonValue* v = take(key);
    if (v == nullptr) return;
    if (v->kind != JsonValue::Kind::kBool) {
      fail(path(key), "expected true or false");
    }
    out = v->boolean;
  }

  void string(std::string_view key, std::string& out) {
    const JsonValue* v = take(key);
    if (v == nullptr) return;
    if (!v->is_string()) fail(path(key), "expected a string");
    out = v->string;
  }

  /// Enum via a parse callback returning false on unknown spellings.
  template <class E, class Parse>
  void enumeration(std::string_view key, E& out, Parse parse,
                   std::string_view expected) {
    const JsonValue* v = take(key);
    if (v == nullptr) return;
    if (!v->is_string()) fail(path(key), "expected a string");
    if (!parse(v->string, out)) {
      fail(path(key), "unknown value '" + v->string + "' (expected " +
                          std::string(expected) + ")");
    }
  }

  /// Throws on the first key no getter consumed — unknown keys are the
  /// difference between "this field defaulted" and "this field was silently
  /// dropped", which matters for a content-addressed cache.
  void finish() const {
    for (std::size_t i = 0; i < json_.object.size(); ++i) {
      if (!used_[i]) {
        fail(where_, "unknown key \"" + json_.object[i].first + "\"");
      }
    }
  }

 private:
  const JsonValue& json_;
  std::string where_;
  std::vector<bool> used_;
};

/// Writes every ExperimentConfig field into the writer's currently open
/// object — the single source of truth for config serialization, shared by
/// the manifest event and capart_serve's canonical spec form.
void write_config_fields(JsonWriter& w, const sim::ExperimentConfig& c);

/// One config as a standalone JSON object document.
std::string config_to_json(const sim::ExperimentConfig& c);

/// Parses one config object. `where` prefixes error paths (e.g.
/// "arms[0].config"). Every field is optional and defaults to
/// ExperimentConfig's default. Throws ConfigError on non-object input,
/// unknown keys, type mismatches and out-of-range values; does NOT run
/// ExperimentConfig::validate().
sim::ExperimentConfig config_from_json(const JsonValue& json,
                                       const std::string& where);

}  // namespace capart::obs
