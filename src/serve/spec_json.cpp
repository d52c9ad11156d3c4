#include "src/serve/spec_json.hpp"

#include <cmath>
#include <vector>

#include "src/common/error.hpp"
#include "src/trace/benchmarks.hpp"

namespace capart::serve {

using obs::ObjectReader;

SpecRequest spec_request_from_json(const obs::JsonValue& json) {
  SpecRequest request;
  ObjectReader r(json, "spec");
  request.spec.name = "spec";
  r.string("name", request.spec.name);
  r.number("deadline_seconds", request.deadline_seconds);
  if (!(request.deadline_seconds >= 0.0) ||
      !std::isfinite(request.deadline_seconds)) {
    ObjectReader::fail("spec.deadline_seconds", "expected a finite value >= 0");
  }
  const obs::JsonValue* arms = r.take("arms");
  const obs::JsonValue* shorthand = r.take("config");
  r.finish();
  if ((arms != nullptr) == (shorthand != nullptr)) {
    ObjectReader::fail("spec",
                       "expected exactly one of \"arms\" or \"config\"");
  }
  if (shorthand != nullptr) {
    request.spec.add("run", obs::config_from_json(*shorthand, "spec.config"));
  } else {
    if (!arms->is_array() || arms->array.empty()) {
      ObjectReader::fail("spec.arms", "expected a non-empty array");
    }
    for (std::size_t i = 0; i < arms->array.size(); ++i) {
      const std::string where = "spec.arms[" + std::to_string(i) + "]";
      ObjectReader a(arms->array[i], where);
      std::string name = "arm" + std::to_string(i);
      a.string("name", name);
      const obs::JsonValue* config = a.take("config");
      a.finish();
      if (config == nullptr) ObjectReader::fail(where, "missing \"config\"");
      request.spec.add(name, obs::config_from_json(*config, where + ".config"));
    }
  }
  // Reject what the simulator could never run *before* the request costs an
  // admission slot; the BatchRunner would only discover it inside the arm.
  const std::vector<std::string>& known = trace::benchmark_names();
  for (const sim::ExperimentArm& arm : request.spec.arms) {
    arm.config.validate();
    bool found = false;
    for (const std::string& name : known) found = found || name == arm.config.profile;
    if (!found) {
      throw ConfigError("profile", "spec arm '" + arm.name +
                                       "': unknown profile '" +
                                       arm.config.profile + "'");
    }
  }
  return request;
}

SpecRequest parse_spec_request(std::string_view body,
                               const obs::JsonLimits& limits) {
  std::string error;
  const std::optional<obs::JsonValue> json =
      obs::parse_json(body, &error, limits);
  if (!json.has_value()) {
    // `error` carries the byte offset ("offset 17: ..."); keep it verbatim
    // so clients can point at the broken byte of what they sent.
    throw ConfigError("spec", "spec JSON: " + error);
  }
  return spec_request_from_json(*json);
}

std::string canonical_spec_json(const SpecRequest& request) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("name").value(request.spec.name);
  w.key("deadline_seconds").value(request.deadline_seconds);
  w.key("arms").begin_array();
  for (const sim::ExperimentArm& arm : request.spec.arms) {
    w.begin_object().key("name").value(arm.name).key("config").begin_object();
    obs::write_config_fields(w, arm.config);
    w.end_object().end_object();
  }
  w.end_array().end_object();
  return w.str();
}

std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char ch : bytes) {
    hash ^= static_cast<unsigned char>(ch);
    hash *= 0x00000100000001b3ull;
  }
  return hash;
}

std::string batch_result_to_json(const sim::BatchResult& batch) {
  obs::JsonWriter w;
  w.begin_object()
      .key("type").value("result")
      .key("spec").value(batch.spec_name)
      .key("ok").value(batch.all_ok())
      .key("arms").begin_array();
  for (const sim::ArmOutcome& arm : batch.arms) {
    w.begin_object()
        .key("name").value(arm.name)
        .key("status").value(sim::to_string(arm.status))
        .key("error").value(arm.error)
        .key("retries").value(arm.retries)
        .key("total_cycles").value(arm.result.outcome.total_cycles)
        .key("instructions_retired")
        .value(arm.result.outcome.instructions_retired)
        .key("intervals_completed")
        .value(arm.result.outcome.intervals_completed)
        .key("wall_seconds").value(arm.wall_seconds)
        .end_object();
  }
  w.end_array().end_object();
  return w.str();
}

}  // namespace capart::serve
