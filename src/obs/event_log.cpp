#include "src/obs/event_log.hpp"

#include <istream>

#include "src/common/check.hpp"
#include "src/obs/config_json.hpp"

namespace capart::obs {
namespace {

void write_header(JsonWriter& w, std::string_view type, std::string_view run) {
  w.begin_object().key("type").value(type).key("run").value(run);
}

}  // namespace

std::string to_jsonl(const ManifestEvent& event) {
  JsonWriter w;
  write_header(w, "manifest", event.run);
  // The config body is the one capart_serve's spec codec reads, so a config
  // recorded in an events file is directly resubmittable to the daemon.
  write_config_fields(w, event.config);
  w.end_object();
  return w.str();
}

std::string to_jsonl(const IntervalEvent& event) {
  JsonWriter w;
  write_header(w, "interval", event.run);
  w.key("interval").value(event.record.index).key("threads").begin_array();
  for (ThreadId t = 0; t < event.record.threads.size(); ++t) {
    const sim::ThreadIntervalRecord& r = event.record.threads[t];
    w.begin_object()
        .key("thread").value(t)
        .key("instructions").value(r.instructions)
        .key("exec_cycles").value(r.exec_cycles)
        .key("stall_cycles").value(r.stall_cycles)
        .key("l1_misses").value(r.l1_misses)
        .key("l2_accesses").value(r.l2_accesses)
        .key("l2_hits").value(r.l2_hits)
        .key("l2_misses").value(r.l2_misses)
        .key("ways").value(r.ways)
        .end_object();
  }
  w.end_array().end_object();
  return w.str();
}

std::string to_jsonl(const RepartitionEvent& event) {
  JsonWriter w;
  write_header(w, "repartition", event.run);
  w.key("interval").value(event.interval).key("policy").value(event.policy);
  w.key("old_ways").begin_array();
  for (std::uint32_t ways : event.old_ways) w.value(ways);
  w.end_array();
  w.key("new_ways").begin_array();
  for (std::uint32_t ways : event.new_ways) w.value(ways);
  w.end_array();
  w.key("predicted_cpi").begin_array();
  for (double cpi : event.predicted_cpi) w.value(cpi);
  w.end_array().end_object();
  return w.str();
}

std::string to_jsonl(const BarrierStallEvent& event) {
  JsonWriter w;
  write_header(w, "barrier_stall", event.run);
  w.key("group").value(event.group)
      .key("section").value(event.section)
      .key("release_cycle").value(event.release_cycle);
  w.key("stalls").begin_array();
  for (const auto& [thread, cycles] : event.stalls) {
    w.begin_object()
        .key("thread").value(thread)
        .key("cycles").value(cycles)
        .end_object();
  }
  w.end_array().end_object();
  return w.str();
}

std::string to_jsonl(const ThreadMigrationEvent& event) {
  JsonWriter w;
  write_header(w, "migration", event.run);
  w.key("interval").value(event.interval)
      .key("a").value(event.a)
      .key("b").value(event.b)
      .end_object();
  return w.str();
}

std::string to_jsonl(const RunEndEvent& event) {
  JsonWriter w;
  write_header(w, "run_end", event.run);
  w.key("total_cycles").value(event.total_cycles)
      .key("intervals_completed").value(event.intervals_completed)
      .key("instructions_retired").value(event.instructions_retired)
      .key("wall_seconds").value(event.wall_seconds)
      .end_object();
  return w.str();
}

std::string to_jsonl(const ArmFailedEvent& event) {
  JsonWriter w;
  write_header(w, "arm_failed", event.run);
  w.key("arm").value(event.arm)
      .key("status").value(event.status)
      .key("error").value(event.error)
      .key("retries").value(event.retries)
      .end_object();
  return w.str();
}

namespace {

/// Required-field table entry: a top-level member and its expected kind.
struct FieldRule {
  const char* name;
  JsonValue::Kind kind;
};

const std::vector<FieldRule>& rules_for(std::string_view type) {
  using K = JsonValue::Kind;
  static const std::vector<FieldRule> kManifest = {
      {"profile", K::kString},      {"policy", K::kString},
      {"l2_mode", K::kString},      {"threads", K::kNumber},
      {"intervals", K::kNumber},    {"interval_instructions", K::kNumber},
      {"seed", K::kNumber},         {"l1", K::kObject},
      {"l2", K::kObject},           {"timing", K::kObject},
      {"policy_options", K::kObject}, {"migrations", K::kArray},
  };
  static const std::vector<FieldRule> kInterval = {
      {"interval", K::kNumber},
      {"threads", K::kArray},
  };
  static const std::vector<FieldRule> kRepartition = {
      {"interval", K::kNumber},
      {"policy", K::kString},
      {"old_ways", K::kArray},
      {"new_ways", K::kArray},
      {"predicted_cpi", K::kArray},
  };
  static const std::vector<FieldRule> kBarrierStall = {
      {"group", K::kNumber},
      {"section", K::kNumber},
      {"release_cycle", K::kNumber},
      {"stalls", K::kArray},
  };
  static const std::vector<FieldRule> kMigration = {
      {"interval", K::kNumber},
      {"a", K::kNumber},
      {"b", K::kNumber},
  };
  static const std::vector<FieldRule> kRunEnd = {
      {"total_cycles", K::kNumber},
      {"intervals_completed", K::kNumber},
      {"instructions_retired", K::kNumber},
      {"wall_seconds", K::kNumber},
  };
  static const std::vector<FieldRule> kArmFailed = {
      {"arm", K::kString},
      {"status", K::kString},
      {"error", K::kString},
      {"retries", K::kNumber},
  };
  static const std::vector<FieldRule> kNone = {};
  if (type == "manifest") return kManifest;
  if (type == "interval") return kInterval;
  if (type == "repartition") return kRepartition;
  if (type == "barrier_stall") return kBarrierStall;
  if (type == "migration") return kMigration;
  if (type == "run_end") return kRunEnd;
  if (type == "arm_failed") return kArmFailed;
  return kNone;
}

bool known_type(std::string_view type) {
  return type == "manifest" || type == "interval" || type == "repartition" ||
         type == "barrier_stall" || type == "migration" ||
         type == "run_end" || type == "arm_failed";
}

const char* kind_name(JsonValue::Kind kind) {
  switch (kind) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return "bool";
    case JsonValue::Kind::kNumber: return "number";
    case JsonValue::Kind::kString: return "string";
    case JsonValue::Kind::kArray: return "array";
    case JsonValue::Kind::kObject: return "object";
  }
  return "unknown";
}

/// The per-thread members an interval event's thread entries must carry.
const std::vector<FieldRule>& interval_thread_rules() {
  using K = JsonValue::Kind;
  static const std::vector<FieldRule> kRules = {
      {"thread", K::kNumber},      {"instructions", K::kNumber},
      {"exec_cycles", K::kNumber}, {"stall_cycles", K::kNumber},
      {"l1_misses", K::kNumber},   {"l2_accesses", K::kNumber},
      {"l2_hits", K::kNumber},     {"l2_misses", K::kNumber},
      {"ways", K::kNumber},
  };
  return kRules;
}

void validate_event(const ParsedEvent& event,
                    std::vector<ValidationIssue>& issues) {
  const auto issue = [&](std::string message) {
    issues.push_back({event.line, std::move(message)});
  };
  if (!known_type(event.type)) {
    issue("unknown event type '" + event.type + "'");
    return;
  }
  for (const FieldRule& rule : rules_for(event.type)) {
    const JsonValue* member = event.json.find(rule.name);
    if (member == nullptr) {
      issue(event.type + " event missing field '" + rule.name + "'");
    } else if (member->kind != rule.kind) {
      issue(event.type + " field '" + rule.name + "' is " +
            kind_name(member->kind) + ", expected " + kind_name(rule.kind));
    }
  }
  if (event.type == "interval") {
    const JsonValue* threads = event.json.find("threads");
    if (threads == nullptr || !threads->is_array()) return;
    if (threads->array.empty()) {
      issue("interval event has an empty threads array");
    }
    for (const JsonValue& entry : threads->array) {
      if (!entry.is_object()) {
        issue("interval threads entries must be objects");
        break;
      }
      for (const FieldRule& rule : interval_thread_rules()) {
        const JsonValue* member = entry.find(rule.name);
        if (member == nullptr || member->kind != rule.kind) {
          issue(std::string("interval thread entry missing numeric '") +
                rule.name + "'");
        }
      }
    }
  }
  if (event.type == "repartition") {
    const JsonValue* old_ways = event.json.find("old_ways");
    const JsonValue* new_ways = event.json.find("new_ways");
    if (old_ways != nullptr && new_ways != nullptr && old_ways->is_array() &&
        new_ways->is_array() &&
        old_ways->array.size() != new_ways->array.size()) {
      issue("repartition old_ways and new_ways differ in length");
    }
  }
}

}  // namespace

EventLog read_event_log(std::istream& is) {
  EventLog log;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::string error;
    std::optional<JsonValue> json = parse_json(line, &error);
    if (!json.has_value()) {
      log.issues.push_back({line_no, "not valid JSON: " + error});
      continue;
    }
    if (!json->is_object()) {
      log.issues.push_back({line_no, "line is not a JSON object"});
      continue;
    }
    ParsedEvent event;
    event.line = line_no;
    const JsonValue* type = json->find("type");
    const JsonValue* run = json->find("run");
    if (type == nullptr || !type->is_string()) {
      log.issues.push_back({line_no, "missing string field 'type'"});
      continue;
    }
    if (run == nullptr || !run->is_string()) {
      log.issues.push_back({line_no, "missing string field 'run'"});
      continue;
    }
    event.type = type->string;
    event.run = run->string;
    event.json = std::move(*json);
    validate_event(event, log.issues);
    log.events.push_back(std::move(event));
  }
  return log;
}

sim::IntervalRecord to_interval_record(const JsonValue& json) {
  sim::IntervalRecord record;
  const JsonValue* interval = json.find("interval");
  const JsonValue* threads = json.find("threads");
  CAPART_CHECK(interval != nullptr && threads != nullptr &&
                   threads->is_array(),
               "interval event did not pass validation");
  record.index = interval->as_u64();
  record.threads.resize(threads->array.size());
  for (std::size_t i = 0; i < threads->array.size(); ++i) {
    const JsonValue& entry = threads->array[i];
    const JsonValue* thread = entry.find("thread");
    CAPART_CHECK(thread != nullptr && thread->as_u64() == i,
                 "interval thread entries must be in thread order");
    sim::ThreadIntervalRecord& r = record.threads[i];
    const auto u64_field = [&](const char* name) {
      const JsonValue* member = entry.find(name);
      CAPART_CHECK(member != nullptr, "interval thread field missing");
      return member->as_u64();
    };
    r.instructions = u64_field("instructions");
    r.exec_cycles = u64_field("exec_cycles");
    r.stall_cycles = u64_field("stall_cycles");
    r.l1_misses = u64_field("l1_misses");
    r.l2_accesses = u64_field("l2_accesses");
    r.l2_hits = u64_field("l2_hits");
    r.l2_misses = u64_field("l2_misses");
    r.ways = static_cast<std::uint32_t>(u64_field("ways"));
  }
  return record;
}

EventLogSummary summarize(const EventLog& log) {
  EventLogSummary summary;
  summary.total_events = log.events.size();
  static const char* kTypeOrder[] = {"manifest",      "interval",
                                     "repartition",   "barrier_stall",
                                     "migration",     "run_end",
                                     "arm_failed"};
  for (const char* type : kTypeOrder) {
    std::uint64_t count = 0;
    for (const ParsedEvent& event : log.events) {
      if (event.type == type) ++count;
    }
    if (count > 0) summary.per_type.emplace_back(type, count);
  }
  for (const ParsedEvent& event : log.events) {
    RunLogSummary* run = nullptr;
    for (RunLogSummary& candidate : summary.runs) {
      if (candidate.run == event.run) {
        run = &candidate;
        break;
      }
    }
    if (run == nullptr) {
      summary.runs.push_back({});
      run = &summary.runs.back();
      run->run = event.run;
    }
    ++run->events;
    if (event.type == "interval") {
      ++run->intervals;
      const JsonValue* threads = event.json.find("threads");
      if (run->threads == 0 && threads != nullptr && threads->is_array()) {
        run->threads = static_cast<ThreadId>(threads->array.size());
      }
    } else if (event.type == "repartition") {
      ++run->repartitions;
    } else if (event.type == "barrier_stall") {
      ++run->barrier_stalls;
    } else if (event.type == "migration") {
      ++run->migrations;
    } else if (event.type == "manifest") {
      run->has_manifest = true;
    } else if (event.type == "run_end") {
      run->has_run_end = true;
      if (const JsonValue* cycles = event.json.find("total_cycles")) {
        run->total_cycles = cycles->as_u64();
      }
      if (const JsonValue* wall = event.json.find("wall_seconds")) {
        run->wall_seconds = wall->as_double();
      }
    } else if (event.type == "arm_failed") {
      run->failed = true;
      if (const JsonValue* status = event.json.find("status")) {
        if (status->is_string()) run->failure_status = status->string;
      }
    }
  }
  return summary;
}

}  // namespace capart::obs
