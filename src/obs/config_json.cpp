#include "src/obs/config_json.hpp"

#include "src/core/clos_mapper.hpp"
#include "src/core/partitioner_registry.hpp"
#include "src/core/policy.hpp"
#include "src/mem/l2_organization.hpp"
#include "src/mem/replacement.hpp"

namespace capart::obs {
namespace {

std::string_view to_string(core::ModelKind kind) noexcept {
  return kind == core::ModelKind::kCubicSpline ? "cubic-spline"
                                               : "piecewise-linear";
}

bool parse_l2_mode(std::string_view name, mem::L2Mode& out) noexcept {
  for (mem::L2Mode mode :
       {mem::L2Mode::kSharedUnpartitioned, mem::L2Mode::kPartitionedShared,
        mem::L2Mode::kPrivatePerThread, mem::L2Mode::kFlushReconfigureShared,
        mem::L2Mode::kSetPartitionedShared}) {
    if (name == mem::to_string(mode)) {
      out = mode;
      return true;
    }
  }
  return false;
}

bool parse_model_kind(std::string_view name, core::ModelKind& out) noexcept {
  if (name == "cubic-spline") {
    out = core::ModelKind::kCubicSpline;
  } else if (name == "piecewise-linear") {
    out = core::ModelKind::kPiecewiseLinear;
  } else {
    return false;
  }
  return true;
}

void geometry_from_json(const JsonValue& json, const std::string& where,
                        mem::CacheGeometry& g) {
  ObjectReader r(json, where);
  r.u_int("sets", g.sets);
  r.u_int("ways", g.ways);
  r.u_int("line_bytes", g.line_bytes);
  r.enumeration("repl", g.repl, mem::parse_replacement, "lru, plru or srrip");
  r.finish();
}

void write_geometry(JsonWriter& w, const mem::CacheGeometry& g) {
  w.begin_object()
      .key("sets").value(g.sets)
      .key("ways").value(g.ways)
      .key("line_bytes").value(g.line_bytes)
      .key("repl").value(mem::to_string(g.repl))
      .end_object();
}

}  // namespace

void write_config_fields(JsonWriter& w, const sim::ExperimentConfig& c) {
  w.key("profile").value(c.profile)
      .key("policy").value(c.policy)
      .key("l2_mode").value(mem::to_string(c.l2_mode))
      .key("threads").value(c.num_threads)
      .key("intervals").value(c.num_intervals)
      .key("interval_instructions").value(c.interval_instructions)
      .key("sections").value(c.sections)
      .key("seed").value(c.seed);
  w.key("l1");
  write_geometry(w, c.l1);
  w.key("l2");
  write_geometry(w, c.l2);
  w.key("timing").begin_object()
      .key("base_cycles_per_instruction")
      .value(c.timing.base_cycles_per_instruction)
      .key("private_l2_hit_penalty").value(c.timing.private_l2_hit_penalty)
      .key("l2_hit_penalty").value(c.timing.l2_hit_penalty)
      .key("memory_penalty").value(c.timing.memory_penalty)
      .key("streaming_memory_penalty").value(c.timing.streaming_memory_penalty)
      .end_object();
  w.key("l2_banks").value(c.l2_banks)
      .key("l2_bank_service_cycles").value(c.l2_bank_service_cycles)
      .key("l2_enforce").value(mem::to_string(c.l2_enforce))
      .key("clos_budget").value(c.clos_budget)
      .key("clos_mapper").value(core::to_string(c.clos_mapper))
      .key("clos_mask_update_cycles").value(c.clos_mask_update_cycles)
      .key("enable_private_l2").value(c.enable_private_l2);
  w.key("private_l2");
  write_geometry(w, c.private_l2);
  w.key("runtime_overhead_cycles").value(c.runtime_overhead_cycles)
      .key("reconfigure_flush_cost_per_line")
      .value(c.reconfigure_flush_cost_per_line)
      .key("barrier_release_cost").value(c.barrier_release_cost);
  w.key("policy_options").begin_object()
      .key("model_kind").value(to_string(c.policy_options.model_kind))
      .key("ewma_alpha").value(c.policy_options.ewma_alpha)
      .key("max_moves_per_interval")
      .value(c.policy_options.max_moves_per_interval)
      .key("time_shared_big_fraction")
      .value(c.policy_options.time_shared_big_fraction)
      .key("time_shared_quantum").value(c.policy_options.time_shared_quantum)
      .end_object();
  w.key("migrations").begin_array();
  for (const sim::MigrationEvent& m : c.migrations) {
    w.begin_object()
        .key("interval").value(m.interval)
        .key("a").value(m.a)
        .key("b").value(m.b)
        .end_object();
  }
  w.end_array();
}

std::string config_to_json(const sim::ExperimentConfig& c) {
  JsonWriter w;
  w.begin_object();
  write_config_fields(w, c);
  w.end_object();
  return w.str();
}

sim::ExperimentConfig config_from_json(const JsonValue& json,
                                       const std::string& where) {
  sim::ExperimentConfig c;
  ObjectReader r(json, where);
  r.string("profile", c.profile);
  if (const JsonValue* v = r.take("policy")) {
    if (!v->is_string()) {
      ObjectReader::fail(r.path("policy"), "expected a string");
    }
    // Resolve against the live registry (aliases canonicalize, so the spec
    // that comes back from config_to_json round-trips byte-identically).
    const std::string_view canonical =
        core::registry().canonical(v->string);
    if (canonical.empty()) {
      ObjectReader::fail(r.path("policy"),
           "unknown policy '" + v->string + "' (expected " +
               core::registry().known_names(/*include_none=*/true) + ")");
    }
    c.policy = std::string(canonical);
  }
  r.enumeration("l2_mode", c.l2_mode, parse_l2_mode,
                "shared-unpartitioned, partitioned-shared, "
                "private-per-thread, set-partitioned-shared or "
                "flush-reconfigure-shared");
  r.u_int("threads", c.num_threads);
  r.u_int("intervals", c.num_intervals);
  r.u_int("interval_instructions", c.interval_instructions);
  r.u_int("sections", c.sections);
  r.u_int("seed", c.seed);
  if (const JsonValue* v = r.take("l1")) {
    geometry_from_json(*v, r.path("l1"), c.l1);
  }
  if (const JsonValue* v = r.take("l2")) {
    geometry_from_json(*v, r.path("l2"), c.l2);
  }
  if (const JsonValue* v = r.take("timing")) {
    ObjectReader t(*v, r.path("timing"));
    t.u_int("base_cycles_per_instruction",
            c.timing.base_cycles_per_instruction);
    t.u_int("private_l2_hit_penalty", c.timing.private_l2_hit_penalty);
    t.u_int("l2_hit_penalty", c.timing.l2_hit_penalty);
    t.u_int("memory_penalty", c.timing.memory_penalty);
    t.u_int("streaming_memory_penalty", c.timing.streaming_memory_penalty);
    t.finish();
  }
  r.u_int("l2_banks", c.l2_banks);
  r.u_int("l2_bank_service_cycles", c.l2_bank_service_cycles);
  r.enumeration("l2_enforce", c.l2_enforce, mem::parse_l2_enforce,
                "default, eviction-control or clos");
  r.u_int("clos_budget", c.clos_budget);
  r.enumeration("clos_mapper", c.clos_mapper, core::parse_clos_mapper,
                "none, nearest, minmax or lfoc");
  r.u_int("clos_mask_update_cycles", c.clos_mask_update_cycles);
  r.boolean("enable_private_l2", c.enable_private_l2);
  if (const JsonValue* v = r.take("private_l2")) {
    geometry_from_json(*v, r.path("private_l2"), c.private_l2);
  }
  r.u_int("runtime_overhead_cycles", c.runtime_overhead_cycles);
  r.u_int("reconfigure_flush_cost_per_line",
          c.reconfigure_flush_cost_per_line);
  r.u_int("barrier_release_cost", c.barrier_release_cost);
  if (const JsonValue* v = r.take("policy_options")) {
    ObjectReader p(*v, r.path("policy_options"));
    p.enumeration("model_kind", c.policy_options.model_kind, parse_model_kind,
                  "cubic-spline or piecewise-linear");
    p.number("ewma_alpha", c.policy_options.ewma_alpha);
    p.u_int("max_moves_per_interval", c.policy_options.max_moves_per_interval);
    p.number("time_shared_big_fraction",
             c.policy_options.time_shared_big_fraction);
    p.u_int("time_shared_quantum", c.policy_options.time_shared_quantum);
    p.finish();
  }
  if (const JsonValue* v = r.take("migrations")) {
    if (!v->is_array()) {
      ObjectReader::fail(r.path("migrations"), "expected an array");
    }
    for (std::size_t i = 0; i < v->array.size(); ++i) {
      sim::MigrationEvent m;
      ObjectReader e(v->array[i],
                     r.path("migrations") + "[" + std::to_string(i) + "]");
      e.u_int("interval", m.interval);
      e.u_int("a", m.a);
      e.u_int("b", m.b);
      e.finish();
      c.migrations.push_back(m);
    }
  }
  r.finish();
  return c;
}

}  // namespace capart::obs
