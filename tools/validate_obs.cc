// Schema checker for the observability exports, run by CTest after the
// quickstart example (see examples/CMakeLists.txt):
//
//   validate_obs <metrics.json> <trace.json>
//   validate_obs --campaign <BENCH_fault_campaign.json>
//   validate_obs --lint <xoar_lint_report.json>
//   validate_obs --flow <BENCH_analysis.json>
//   validate_obs --sim <BENCH_sim_core.json>
//   validate_obs --density <BENCH_density.json>
//   validate_obs --replay <BENCH_replay.json>
//   validate_obs --fleet <BENCH_fleet.json>
//
// Every mode first checks the generic BENCH shape, then its own rules. A
// mode's single-metric bounds are rows of one MetricRule table, checked by
// CheckRules; the checks that relate two metrics, or read an extra
// top-level array, follow in code.
//
// The --fleet mode checks a fleet-resilience campaign report
// (bench/fleet_campaign, RESILIENCE.md "Fleet") beyond the generic BENCH
// shape: the fleet.* summary metrics must be present with sane values —
// at least two hosts, zero invariant violations, at least one completed
// migration and evacuation, at least one injected migration stream drop —
// plus the scenario cross-checks: the clean upgrade wave must have
// completed without aborting, the storm wave's health gate must have
// tripped and the fleet must have converged after the storm, rebalancing
// must not have widened the load spread, per-step wave gauges must be
// present, and p999 must dominate p99.
//
// The --replay mode checks a record/replay selftest report
// (tools/xoar_replay selftest, DEBUGGING.md) beyond the generic BENCH
// shape: the replay.* gauges must be present, the journal's hash chain
// must have verified on load, the re-executed run must have matched every
// journaled event (zero divergences, verified count == record count), the
// two-seed structural diff must have found a divergence at an index inside
// the journal, and the injected single-event perturbation must have been
// caught at exactly the index where it was planted.
//
// The --density mode checks a density-trajectory report
// (bench/ablation_density, SCALING.md) beyond the generic BENCH shape: the
// density.* summary metrics must be present, the create path must have
// performed zero O(n) domain-table scans, the top-level "sweep" array must
// be well-formed with strictly ascending domain targets, and per-domain
// control-plane bytes and BlkBack's first-fit gaps visited per create must
// stay flat — no more than 10% growth from one sweep point to the next
// (the §2.3.1 hosting-density requirement).
//
// The --sim mode checks a simulator-core bench report (bench/micro_sim_core,
// DESIGN.md §5f) beyond the generic BENCH shape: every sim_core.* gauge
// must be present and positive, and the simulator-deterministic
// ring-drain cost (sim events per block request) must stay within the
// batched-drain budget. Wall-clock throughputs are host-dependent and get
// no upper bound here.
//
// The --lint mode checks an xoar_lint JSON report (ANALYSIS.md) beyond the
// generic BENCH shape: the lint.* summary metrics must be present, every
// entry in the "findings" array must be well-formed (rule/file/line/
// message/suppressed), the blocking, warning, and suppressed counts must
// agree with the exported totals, and every suppressed finding must carry
// a non-empty justification (the suppression contract).
//
// The --flow mode checks an xoar_flow report (ANALYSIS.md "Whole-program
// flow analysis") the same way — flow.* summary metrics, well-formed
// findings with consistent blocking/warning/suppressed totals, justified
// suppressions — plus the flow-specific surface: the call-graph gauges
// must show a non-trivial graph, the side-by-side containment metrics
// (flow.containment.declared.* / .derived.*) must both be present, the
// "comm_graph" array must be well-formed, and when the report carries the
// bench timing gauge (lint_cost.full_tree_us, written only by
// bench/micro_lint) it must be positive.
//
// The --campaign mode checks a fault-campaign report (bench/fault_campaign,
// RESILIENCE.md) beyond the generic BENCH shape: the campaign.* summary
// metrics must be present with sane values — availability in [0,1], zero
// invariant violations, at least one fault injected and at least one
// absorbed by retry/backoff — and at least one per-type fault.injected.*
// counter must be non-zero. Supervision fields (RESILIENCE.md
// "Supervision") are checked too: the watchdog counters must be present,
// every corrupted recovery box must have been rejected, and the worst
// hang-detection latency must not exceed the heartbeat timeout.
//
// Checks the metrics file against the BENCH_*.json family shape (top-level
// "context" + "benchmarks" array) and the trace file against the Chrome
// trace_event format chrome://tracing actually accepts: a "traceEvents"
// array of {"name","cat","ph","ts","pid","tid"} records with ph one of
// "X" (complete span, requires "dur"), "i" (instant), or "M" (metadata).
// Also enforces the measurement-story acceptance bar: a boot trace must
// carry at least 5 distinct span categories. Exits non-zero with a message
// on the first violation.
#include <cstdio>
#include <initializer_list>
#include <limits>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>

#include "src/obs/json.h"

namespace xoar {
namespace {

#define CHECK_OR_FAIL(cond, ...)          \
  do {                                    \
    if (!(cond)) {                        \
      std::fprintf(stderr, __VA_ARGS__);  \
      std::fprintf(stderr, "\n");         \
      return false;                       \
    }                                     \
  } while (0)

bool ValidateMetrics(const std::string& path, const JsonValue& doc) {
  const JsonValue* context = doc.Find("context");
  CHECK_OR_FAIL(context != nullptr && context->is_object(),
                "%s: missing \"context\" object", path.c_str());
  const JsonValue* executable = context->Find("executable");
  CHECK_OR_FAIL(executable != nullptr && executable->is_string(),
                "%s: context.executable missing or not a string",
                path.c_str());
  const JsonValue* sim_time = context->Find("sim_time_ns");
  CHECK_OR_FAIL(sim_time != nullptr && sim_time->is_number(),
                "%s: context.sim_time_ns missing or not a number",
                path.c_str());

  const JsonValue* benchmarks = doc.Find("benchmarks");
  CHECK_OR_FAIL(benchmarks != nullptr && benchmarks->is_array(),
                "%s: missing \"benchmarks\" array", path.c_str());
  CHECK_OR_FAIL(!benchmarks->array().empty(),
                "%s: \"benchmarks\" array is empty — nothing was recorded",
                path.c_str());
  for (const JsonValue& entry : benchmarks->array()) {
    CHECK_OR_FAIL(entry.is_object(), "%s: benchmark entry is not an object",
                  path.c_str());
    const JsonValue* name = entry.Find("name");
    CHECK_OR_FAIL(name != nullptr && name->is_string() &&
                      !name->string().empty(),
                  "%s: benchmark entry without a \"name\"", path.c_str());
    const JsonValue* run_type = entry.Find("run_type");
    CHECK_OR_FAIL(run_type != nullptr && run_type->is_string(),
                  "%s: %s: missing \"run_type\"", path.c_str(),
                  name->string().c_str());
    const std::string& rt = run_type->string();
    CHECK_OR_FAIL(rt == "counter" || rt == "gauge" || rt == "histogram",
                  "%s: %s: unknown run_type \"%s\"", path.c_str(),
                  name->string().c_str(), rt.c_str());
  }
  std::printf("%s: OK (%zu metrics)\n", path.c_str(),
              benchmarks->array().size());
  return true;
}

bool ValidateTrace(const std::string& path, const JsonValue& doc) {
  const JsonValue* events = doc.Find("traceEvents");
  CHECK_OR_FAIL(events != nullptr && events->is_array(),
                "%s: missing \"traceEvents\" array", path.c_str());

  std::set<std::string> span_categories;
  std::size_t spans = 0;
  for (const JsonValue& event : events->array()) {
    CHECK_OR_FAIL(event.is_object(), "%s: trace event is not an object",
                  path.c_str());
    const JsonValue* name = event.Find("name");
    CHECK_OR_FAIL(name != nullptr && name->is_string(),
                  "%s: trace event without a \"name\"", path.c_str());
    const JsonValue* ph = event.Find("ph");
    CHECK_OR_FAIL(ph != nullptr && ph->is_string(),
                  "%s: event \"%s\": missing \"ph\"", path.c_str(),
                  name->string().c_str());
    const std::string& phase = ph->string();
    CHECK_OR_FAIL(phase == "X" || phase == "i" || phase == "M",
                  "%s: event \"%s\": unsupported phase \"%s\"", path.c_str(),
                  name->string().c_str(), phase.c_str());
    const JsonValue* pid = event.Find("pid");
    CHECK_OR_FAIL(pid != nullptr && pid->is_number(),
                  "%s: event \"%s\": missing \"pid\"", path.c_str(),
                  name->string().c_str());
    if (phase == "M") {
      continue;  // metadata records carry "args", not timestamps
    }
    const JsonValue* ts = event.Find("ts");
    CHECK_OR_FAIL(ts != nullptr && ts->is_number() && ts->number() >= 0,
                  "%s: event \"%s\": missing or negative \"ts\"",
                  path.c_str(), name->string().c_str());
    const JsonValue* cat = event.Find("cat");
    CHECK_OR_FAIL(cat != nullptr && cat->is_string(),
                  "%s: event \"%s\": missing \"cat\"", path.c_str(),
                  name->string().c_str());
    if (phase == "X") {
      const JsonValue* dur = event.Find("dur");
      CHECK_OR_FAIL(dur != nullptr && dur->is_number() && dur->number() >= 0,
                    "%s: span \"%s\": missing or negative \"dur\"",
                    path.c_str(), name->string().c_str());
      ++spans;
      span_categories.insert(cat->string());
    }
  }
  CHECK_OR_FAIL(spans > 0, "%s: no \"X\" span events recorded", path.c_str());
  CHECK_OR_FAIL(span_categories.size() >= 5,
                "%s: only %zu distinct span categories (need >= 5)",
                path.c_str(), span_categories.size());
  std::printf("%s: OK (%zu events, %zu spans, %zu span categories)\n",
              path.c_str(), events->array().size(), spans,
              span_categories.size());
  return true;
}

// The numeric "value" of the first "benchmarks" entry named `name`;
// nothing if there is no such entry or its value is not a number.
std::optional<double> FindMetric(const JsonValue& benchmarks,
                                 std::string_view name) {
  for (const JsonValue& entry : benchmarks.array()) {
    const JsonValue* n = entry.Find("name");
    if (n != nullptr && n->is_string() && n->string() == name) {
      const JsonValue* value = entry.Find("value");
      if (value == nullptr || !value->is_number()) {
        return std::nullopt;
      }
      return value->number();
    }
  }
  return std::nullopt;
}

// FindMetric for the cross-field checks, which run after the rule table
// has proved each metric they read present.
double MetricValue(const JsonValue& benchmarks, std::string_view name) {
  return FindMetric(benchmarks, name).value_or(0);
}

constexpr double kInf = std::numeric_limits<double>::infinity();

// One row of a mode's schema table: a metric that must be present with a
// numeric value in [min, max], or in (min, max] when `above` is set.
// Omitted bounds leave the value unbounded on that side.
struct MetricRule {
  const char* name;
  double min = -kInf;
  double max = kInf;
  bool above = false;
};

bool CheckRules(const std::string& path, const JsonValue& benchmarks,
                std::span<const MetricRule> rules) {
  for (const MetricRule& rule : rules) {
    const std::optional<double> value = FindMetric(benchmarks, rule.name);
    CHECK_OR_FAIL(value.has_value(), "%s: missing metric \"%s\"",
                  path.c_str(), rule.name);
    CHECK_OR_FAIL(rule.above ? *value > rule.min : *value >= rule.min,
                  "%s: %s = %g %s %g", path.c_str(), rule.name, *value,
                  rule.above ? "not above" : "below minimum", rule.min);
    CHECK_OR_FAIL(*value <= rule.max, "%s: %s = %g above maximum %g",
                  path.c_str(), rule.name, *value, rule.max);
  }
  return true;
}

constexpr MetricRule kCampaignRules[] = {
    {"campaign.availability", 0.0, 1.0},
    {"campaign.invariant_violations", 0.0, 0.0},
    {"campaign.faults_injected", 1.0},
    {"campaign.absorbed_by_retry", 1.0},
    {"campaign.mean_recovery_ms", 0.0},
    {"campaign.probes_issued", 1.0},
    // Supervision summary (watchdog + recovery-box validation). Counts can
    // legitimately be zero for a campaign that injects no hangs/corruption,
    // but the fields themselves must always be exported.
    {"campaign.hangs_injected", 0.0},
    {"campaign.box_corrupts_injected", 0.0},
    {"campaign.boxes_rejected", 0.0},
    {"campaign.heartbeat_timeout_ms", 0.0},
    {"campaign.hang_detection_max_ms", 0.0},
    {"campaign.watchdog_hangs_detected", 0.0},
    {"campaign.watchdog_hangs_absorbed", 0.0},
    {"campaign.watchdog_deaths_detected", 0.0},
    {"campaign.watchdog_auto_restarts", 0.0},
    {"campaign.watchdog_quarantines", 0.0},
};

bool ValidateCampaign(const std::string& path, const JsonValue& doc) {
  const JsonValue& benchmarks = *doc.Find("benchmarks");
  if (!CheckRules(path, benchmarks, kCampaignRules)) {
    return false;
  }

  // At least one per-type injection counter must have fired, or the
  // campaign exercised nothing.
  double injected = 0;
  std::size_t injected_counters = 0;
  for (const JsonValue& entry : benchmarks.array()) {
    const JsonValue* n = entry.Find("name");
    if (n == nullptr || !n->is_string() ||
        n->string().rfind("fault.injected.", 0) != 0) {
      continue;
    }
    ++injected_counters;
    const JsonValue* value = entry.Find("value");
    CHECK_OR_FAIL(value != nullptr && value->is_number(),
                  "%s: %s has no numeric \"value\"", path.c_str(),
                  n->string().c_str());
    injected += value->number();
  }
  CHECK_OR_FAIL(injected_counters > 0,
                "%s: no fault.injected.* counters exported", path.c_str());
  CHECK_OR_FAIL(injected > 0,
                "%s: every fault.injected.* counter is zero", path.c_str());

  // Cross-field supervision invariants. Single-field bounds live in
  // kCampaignRules; these relate two exported values.
  auto value = [&](const char* name) { return MetricValue(benchmarks, name); };
  const double hangs_injected = value("campaign.hangs_injected");
  const double hangs_handled = value("campaign.watchdog_hangs_detected") +
                               value("campaign.watchdog_hangs_absorbed");
  CHECK_OR_FAIL(hangs_handled == hangs_injected,
                "%s: %g hangs injected but %g detected+absorbed",
                path.c_str(), hangs_injected, hangs_handled);
  CHECK_OR_FAIL(value("campaign.hang_detection_max_ms") <=
                    value("campaign.heartbeat_timeout_ms"),
                "%s: hang detection latency %g ms exceeds heartbeat "
                "timeout %g ms",
                path.c_str(), value("campaign.hang_detection_max_ms"),
                value("campaign.heartbeat_timeout_ms"));
  CHECK_OR_FAIL(value("campaign.boxes_rejected") ==
                    value("campaign.box_corrupts_injected"),
                "%s: %g recovery boxes corrupted but %g rejected",
                path.c_str(), value("campaign.box_corrupts_injected"),
                value("campaign.boxes_rejected"));

  std::printf("%s: campaign OK (%zu fault types tracked, %g injections)\n",
              path.c_str(), injected_counters, injected);
  return true;
}

// Wall-clock throughput gauges and speedup ratios vary with the host and
// with iteration count (the smoke test runs tiny workloads), so they are
// only required to be present and positive; the ≥5x acceptance evidence is
// the committed BENCH_sim_core.json from a full run. The events-per-request
// cost of the batched ring-drain path is simulator-deterministic, so it
// gets a real upper bound: the pre-batching design paid one event per
// request on the backend alone (plus frontend timers and delivery hops);
// the drain-batched path must stay under 12 total events per request even
// with a 16-deep pipeline of 4 KiB writes.
constexpr MetricRule kSimRules[] = {
    {"sim_core.schedule_fire.events_per_sec", 0.0, kInf, true},
    {"sim_core.schedule_fire.baseline_events_per_sec", 0.0, kInf, true},
    {"sim_core.schedule_fire.speedup", 0.0, kInf, true},
    {"sim_core.schedule_cancel.ops_per_sec", 0.0, kInf, true},
    {"sim_core.schedule_cancel.baseline_ops_per_sec", 0.0, kInf, true},
    {"sim_core.schedule_cancel.speedup", 0.0, kInf, true},
    {"sim_core.timer_churn.ops_per_sec", 0.0, kInf, true},
    {"sim_core.timer_churn.baseline_ops_per_sec", 0.0, kInf, true},
    {"sim_core.timer_churn.speedup", 0.0, kInf, true},
    {"sim_core.ring_drain.requests_per_sec", 0.0, kInf, true},
    {"sim_core.ring_drain.sim_events_per_request", 0.0, 12.0, true},
};

bool ValidateSimCore(const std::string& path, const JsonValue& doc) {
  if (!CheckRules(path, *doc.Find("benchmarks"), kSimRules)) {
    return false;
  }
  std::printf("%s: sim-core OK (%zu gauges checked)\n", path.c_str(),
              std::size(kSimRules));
  return true;
}

constexpr MetricRule kDensityRules[] = {
    {"density.sweep_points", 1.0},
    {"density.max_domains", 1.0},
    {"density.total_created", 1.0},
    {"xs.shard.count", 1.0},
    // 1 when the create path performed no O(n) domain-table scans.
    {"density.scan_free_create_path", 1.0, 1.0},
};

bool ValidateDensity(const std::string& path, const JsonValue& doc) {
  if (!CheckRules(path, *doc.Find("benchmarks"), kDensityRules)) {
    return false;
  }

  const JsonValue* sweep = doc.Find("sweep");
  CHECK_OR_FAIL(sweep != nullptr && sweep->is_array(),
                "%s: missing \"sweep\" array", path.c_str());
  CHECK_OR_FAIL(!sweep->array().empty(), "%s: \"sweep\" array is empty",
                path.c_str());
  double prev_domains = 0;
  double prev_bytes = -1;
  double prev_gaps = -1;
  for (const JsonValue& entry : sweep->array()) {
    CHECK_OR_FAIL(entry.is_object(), "%s: sweep entry is not an object",
                  path.c_str());
    auto field = [&](const char* name) -> const JsonValue* {
      const JsonValue* v = entry.Find(name);
      return v != nullptr && v->is_number() ? v : nullptr;
    };
    const JsonValue* domains = field("domains");
    CHECK_OR_FAIL(domains != nullptr && domains->number() >= 1,
                  "%s: sweep entry without a positive \"domains\"",
                  path.c_str());
    CHECK_OR_FAIL(domains->number() > prev_domains,
                  "%s: sweep domains not strictly ascending (%g after %g)",
                  path.c_str(), domains->number(), prev_domains);
    prev_domains = domains->number();
    const JsonValue* created = field("created");
    CHECK_OR_FAIL(created != nullptr && created->number() >= 1,
                  "%s: sweep@%g: nothing created", path.c_str(),
                  domains->number());
    const JsonValue* shard_count = field("shard_count");
    CHECK_OR_FAIL(shard_count != nullptr && shard_count->number() >= 1,
                  "%s: sweep@%g: missing \"shard_count\"", path.c_str(),
                  domains->number());
    const JsonValue* ops = field("create_ops_per_sec");
    CHECK_OR_FAIL(ops != nullptr && ops->number() > 0,
                  "%s: sweep@%g: missing \"create_ops_per_sec\"",
                  path.c_str(), domains->number());
    const JsonValue* scans = field("create_path_scans");
    CHECK_OR_FAIL(scans != nullptr && scans->number() == 0,
                  "%s: sweep@%g: %g O(n) domain-table scans on the create "
                  "path",
                  path.c_str(), domains->number(),
                  scans == nullptr ? -1 : scans->number());
    const JsonValue* gaps = field("first_fit_gaps_per_create");
    CHECK_OR_FAIL(gaps != nullptr && gaps->number() >= 0,
                  "%s: sweep@%g: missing \"first_fit_gaps_per_create\"",
                  path.c_str(), domains->number());
    // Flat allocator work: <= 10% growth per sweep step, like the bytes.
    CHECK_OR_FAIL(prev_gaps < 0 || gaps->number() <= prev_gaps * 1.10,
                  "%s: first-fit gaps visited per create grew %g -> %g "
                  "(> 10%%)",
                  path.c_str(), prev_gaps, gaps->number());
    prev_gaps = gaps->number();
    const JsonValue* bytes = field("per_domain_control_bytes");
    CHECK_OR_FAIL(bytes != nullptr && bytes->number() > 0,
                  "%s: sweep@%g: missing \"per_domain_control_bytes\"",
                  path.c_str(), domains->number());
    // Flatness: <= 10% growth per sweep step (§2.3.1 via SCALING.md).
    CHECK_OR_FAIL(prev_bytes < 0 || bytes->number() <= prev_bytes * 1.10,
                  "%s: per-domain control bytes grew %g -> %g (> 10%%)",
                  path.c_str(), prev_bytes, bytes->number());
    prev_bytes = bytes->number();
  }

  std::printf("%s: density OK (%zu sweep points, scan-free create path)\n",
              path.c_str(), sweep->array().size());
  return true;
}


constexpr MetricRule kReplayRules[] = {
    {"replay.seed", 0.0},
    {"replay.records", 1.0},
    {"replay.journal_bytes", 1.0},
    // Hard invariants of a passing selftest: the chain verified, the
    // replay matched everything, the diff and the planted perturbation
    // were both caught.
    {"replay.chain_verified", 1.0, 1.0},
    {"replay.replay_divergences", 0.0, 0.0},
    {"replay.replay_verified", 1.0},
    {"replay.diff_seed_b", 0.0},
    {"replay.diff_diverged", 1.0, 1.0},
    {"replay.diff_index", 0.0},
    {"replay.perturb_index", 0.0},
    {"replay.perturb_caught", 1.0, 1.0},
    {"replay.perturb_caught_index", 0.0},
};

bool ValidateReplay(const std::string& path, const JsonValue& doc) {
  const JsonValue& benchmarks = *doc.Find("benchmarks");
  if (!CheckRules(path, benchmarks, kReplayRules)) {
    return false;
  }

  // Cross-field invariants: the replay verified the whole journal, the
  // perturbation was caught exactly where it was planted, and the diff
  // divergence lies inside the journal.
  auto value = [&](const char* name) { return MetricValue(benchmarks, name); };
  CHECK_OR_FAIL(value("replay.replay_verified") == value("replay.records"),
                "%s: replay verified %g of %g journaled events",
                path.c_str(), value("replay.replay_verified"),
                value("replay.records"));
  CHECK_OR_FAIL(value("replay.perturb_caught_index") ==
                    value("replay.perturb_index"),
                "%s: perturbation planted at %g but caught at %g",
                path.c_str(), value("replay.perturb_index"),
                value("replay.perturb_caught_index"));
  CHECK_OR_FAIL(value("replay.diff_index") <= value("replay.records"),
                "%s: diff divergence index %g past journal end %g",
                path.c_str(), value("replay.diff_index"),
                value("replay.records"));

  std::printf("%s: replay OK (%g records, chain verified, perturbation "
              "caught at %g)\n",
              path.c_str(), value("replay.records"),
              value("replay.perturb_caught_index"));
  return true;
}

constexpr MetricRule kFleetRules[] = {
    {"fleet.seed", 0.0},
    {"fleet.hosts", 2.0},
    {"fleet.guests_placed", 1.0},
    {"fleet.invariant_violations", 0.0, 0.0},
    {"fleet.admission.accepted", 1.0},
    {"fleet.admission.shed", 1.0},  // the whale probe must shed
    {"fleet.migrations.attempted", 1.0},
    {"fleet.migrations.completed", 1.0},
    {"fleet.evacuations.started", 1.0},
    {"fleet.evac.moved", 1.0},
    {"fleet.evac.failed", 0.0, 0.0},
    {"fleet.faults.migration_stream_drops", 1.0},
    {"fleet.controller.supervised", 1.0, 1.0},
    {"fleet.workload.p99_ms", 0.001},
    {"fleet.workload.p999_ms", 0.001},
    {"fleet.wave.clean.steps", 1.0},
    {"fleet.wave.clean.aborted", 0.0, 0.0},
    {"fleet.wave.storm.aborted", 1.0, 1.0},
    {"fleet.wave.storm.converged", 1.0, 1.0},
    {"fleet.rebalance.spread_before", 0.0},
    {"fleet.rebalance.spread_after", 0.0},
};

bool ValidateFleet(const std::string& path, const JsonValue& doc) {
  const JsonValue& benchmarks = *doc.Find("benchmarks");
  if (!CheckRules(path, benchmarks, kFleetRules)) {
    return false;
  }

  // Cross-field scenario invariants.
  auto value = [&](const char* name) { return MetricValue(benchmarks, name); };
  CHECK_OR_FAIL(value("fleet.rebalance.spread_after") <=
                    value("fleet.rebalance.spread_before"),
                "%s: rebalance widened the spread (%g -> %g)", path.c_str(),
                value("fleet.rebalance.spread_before"),
                value("fleet.rebalance.spread_after"));
  CHECK_OR_FAIL(value("fleet.workload.p999_ms") >=
                    value("fleet.workload.p99_ms"),
                "%s: p999 %g ms below p99 %g ms", path.c_str(),
                value("fleet.workload.p999_ms"),
                value("fleet.workload.p99_ms"));
  CHECK_OR_FAIL(value("fleet.migrations.completed") <=
                    value("fleet.migrations.attempted"),
                "%s: %g migrations completed but only %g attempted",
                path.c_str(), value("fleet.migrations.completed"),
                value("fleet.migrations.attempted"));

  // Per-step wave health gauges: the waves must have exported at least one
  // per-step p99 reading each.
  std::size_t wave_step_gauges = 0;
  for (const JsonValue& entry : benchmarks.array()) {
    const JsonValue* n = entry.Find("name");
    if (n != nullptr && n->is_string() &&
        n->string().rfind("fleet.wave.", 0) == 0 &&
        n->string().find(".step.") != std::string::npos) {
      ++wave_step_gauges;
    }
  }
  CHECK_OR_FAIL(wave_step_gauges > 0,
                "%s: no per-step fleet.wave.*.step.* gauges exported",
                path.c_str());

  std::printf("%s: fleet OK (%g hosts, %g guests, %g migrations, %zu "
              "wave-step gauges)\n",
              path.c_str(), value("fleet.hosts"),
              value("fleet.guests_placed"),
              value("fleet.migrations.completed"), wave_step_gauges);
  return true;
}

// Shared finding-array checker for the --lint and --flow modes: every
// entry must be well-formed, suppressed findings must carry a
// justification, and the blocking/suppressed/warning counts must agree
// with the exported `<prefix>.findings.total` / `.suppressed.total` /
// `.warnings.total` metrics (whose presence the mode's rule table checks). The "warning" bool is optional per finding
// (absent means blocking), so older reports stay valid.
bool ValidateFindingsArray(const std::string& path, const JsonValue& doc,
                           const std::string& prefix, std::size_t* blocking,
                           std::size_t* suppressed_out) {
  const JsonValue& benchmarks = *doc.Find("benchmarks");
  const double findings_total =
      MetricValue(benchmarks, prefix + ".findings.total");
  const double suppressed_total =
      MetricValue(benchmarks, prefix + ".suppressed.total");
  const double warnings_total =
      MetricValue(benchmarks, prefix + ".warnings.total");

  const JsonValue* findings = doc.Find("findings");
  CHECK_OR_FAIL(findings != nullptr && findings->is_array(),
                "%s: missing \"findings\" array", path.c_str());
  std::size_t unsuppressed = 0;
  std::size_t suppressed = 0;
  std::size_t warnings = 0;
  for (const JsonValue& finding : findings->array()) {
    CHECK_OR_FAIL(finding.is_object(), "%s: finding is not an object",
                  path.c_str());
    const JsonValue* rule = finding.Find("rule");
    CHECK_OR_FAIL(rule != nullptr && rule->is_string() &&
                      !rule->string().empty(),
                  "%s: finding without a \"rule\"", path.c_str());
    const JsonValue* file = finding.Find("file");
    CHECK_OR_FAIL(file != nullptr && file->is_string() &&
                      !file->string().empty(),
                  "%s: [%s] finding without a \"file\"", path.c_str(),
                  rule->string().c_str());
    const JsonValue* line = finding.Find("line");
    CHECK_OR_FAIL(line != nullptr && line->is_number() &&
                      line->number() >= 0,
                  "%s: %s: missing or negative \"line\"", path.c_str(),
                  file->string().c_str());
    const JsonValue* message = finding.Find("message");
    CHECK_OR_FAIL(message != nullptr && message->is_string() &&
                      !message->string().empty(),
                  "%s: %s: finding without a \"message\"", path.c_str(),
                  file->string().c_str());
    const JsonValue* is_suppressed = finding.Find("suppressed");
    CHECK_OR_FAIL(is_suppressed != nullptr && is_suppressed->is_bool(),
                  "%s: %s: missing \"suppressed\" bool", path.c_str(),
                  file->string().c_str());
    const JsonValue* is_warning = finding.Find("warning");
    CHECK_OR_FAIL(is_warning == nullptr || is_warning->is_bool(),
                  "%s: %s: \"warning\" is not a bool", path.c_str(),
                  file->string().c_str());
    if (is_suppressed->bool_value()) {
      ++suppressed;
      const JsonValue* justification = finding.Find("justification");
      CHECK_OR_FAIL(justification != nullptr && justification->is_string() &&
                        !justification->string().empty(),
                    "%s: %s:%g: suppressed finding without a justification",
                    path.c_str(), file->string().c_str(), line->number());
    } else if (is_warning != nullptr && is_warning->bool_value()) {
      ++warnings;
    } else {
      ++unsuppressed;
    }
  }
  CHECK_OR_FAIL(static_cast<double>(unsuppressed) == findings_total,
                "%s: %zu blocking findings but %s.findings.total = %g",
                path.c_str(), unsuppressed, prefix.c_str(), findings_total);
  CHECK_OR_FAIL(static_cast<double>(suppressed) == suppressed_total,
                "%s: %zu suppressed findings but %s.suppressed.total = %g",
                path.c_str(), suppressed, prefix.c_str(), suppressed_total);
  CHECK_OR_FAIL(static_cast<double>(warnings) == warnings_total,
                "%s: %zu warning findings but %s.warnings.total = %g",
                path.c_str(), warnings, prefix.c_str(), warnings_total);
  *blocking = unsuppressed;
  *suppressed_out = suppressed;
  return true;
}

constexpr MetricRule kLintRules[] = {
    {"lint.files_scanned", 0.0, kInf, true},  // the scan saw sources
    {"lint.findings.total"},
    {"lint.suppressed.total"},
    {"lint.warnings.total"},
};

bool ValidateLint(const std::string& path, const JsonValue& doc) {
  if (!CheckRules(path, *doc.Find("benchmarks"), kLintRules)) {
    return false;
  }
  std::size_t unsuppressed = 0;
  std::size_t suppressed = 0;
  if (!ValidateFindingsArray(path, doc, "lint", &unsuppressed, &suppressed)) {
    return false;
  }

  std::printf("%s: lint OK (%g files, %zu blocking, %zu suppressed)\n",
              path.c_str(),
              MetricValue(*doc.Find("benchmarks"), "lint.files_scanned"),
              unsuppressed, suppressed);
  return true;
}

constexpr MetricRule kFlowRules[] = {
    {"flow.files_scanned", 0.0, kInf, true},  // the scan saw sources
    {"flow.functions", 0.0, kInf, true},      // definitions were recognized
    {"flow.call_edges"},
    {"flow.widened_functions"},
    {"flow.findings.total"},
    {"flow.suppressed.total"},
    {"flow.warnings.total"},
    // Side-by-side containment: both recomputations must be exported.
    {"flow.containment.declared.nodes"},
    {"flow.containment.declared.edges"},
    {"flow.containment.declared.attack_surface"},
    {"flow.containment.declared.max_reach"},
    {"flow.containment.declared.mean_reach_milli"},
    {"flow.containment.derived.nodes"},
    {"flow.containment.derived.edges"},
    {"flow.containment.derived.attack_surface"},
    {"flow.containment.derived.max_reach"},
    {"flow.containment.derived.mean_reach_milli"},
};

bool ValidateFlow(const std::string& path, const JsonValue& doc) {
  const JsonValue& benchmarks = *doc.Find("benchmarks");
  if (!CheckRules(path, benchmarks, kFlowRules)) {
    return false;
  }

  // The bench timing gauge is optional (only bench/micro_lint writes it),
  // but when present it must be a real measurement.
  const std::optional<double> full_tree_us =
      FindMetric(benchmarks, "lint_cost.full_tree_us");
  CHECK_OR_FAIL(!full_tree_us.has_value() || *full_tree_us > 0,
                "%s: lint_cost.full_tree_us present but not positive",
                path.c_str());

  std::size_t unsuppressed = 0;
  std::size_t suppressed = 0;
  if (!ValidateFindingsArray(path, doc, "flow", &unsuppressed, &suppressed)) {
    return false;
  }

  const JsonValue* comm = doc.Find("comm_graph");
  CHECK_OR_FAIL(comm != nullptr && comm->is_array(),
                "%s: missing \"comm_graph\" array", path.c_str());
  for (const JsonValue& edge : comm->array()) {
    CHECK_OR_FAIL(edge.is_object(), "%s: comm_graph entry is not an object",
                  path.c_str());
    for (const char* field : {"from", "to", "kind"}) {
      const JsonValue* value = edge.Find(field);
      CHECK_OR_FAIL(value != nullptr && value->is_string() &&
                        !value->string().empty(),
                    "%s: comm_graph entry without \"%s\"", path.c_str(),
                    field);
    }
    const JsonValue* line = edge.Find("witness_line");
    CHECK_OR_FAIL(line != nullptr && line->is_number() && line->number() >= 0,
                  "%s: comm_graph entry with bad witness_line", path.c_str());
  }

  std::printf(
      "%s: flow OK (%g files, %g functions, %g edges, %zu comm edges, "
      "%zu blocking, %zu suppressed)\n",
      path.c_str(), MetricValue(benchmarks, "flow.files_scanned"),
      MetricValue(benchmarks, "flow.functions"),
      MetricValue(benchmarks, "flow.call_edges"), comm->array().size(),
      unsuppressed, suppressed);
  return true;
}

using Validator = bool (*)(const std::string& path, const JsonValue& doc);

// Parses `path` as a JSON object and runs `checks` on it in order,
// stopping at the first that fails.
bool CheckFile(const std::string& path,
               std::initializer_list<Validator> checks) {
  StatusOr<JsonValue> doc = ParseJsonFile(path);
  CHECK_OR_FAIL(doc.ok(), "%s: parse failed: %s", path.c_str(),
                doc.status().ToString().c_str());
  CHECK_OR_FAIL(doc->is_object(), "%s: top level is not an object",
                path.c_str());
  for (Validator check : checks) {
    if (!check(path, *doc)) {
      return false;
    }
  }
  return true;
}

// Each mode checks one BENCH report: the generic shape first, then its own
// rules.
struct Mode {
  std::string_view flag;
  Validator validate;
  const char* report;  // the usual file name, for the usage text
};

constexpr Mode kModes[] = {
    {"--campaign", ValidateCampaign, "BENCH_fault_campaign.json"},
    {"--lint", ValidateLint, "xoar_lint_report.json"},
    {"--flow", ValidateFlow, "BENCH_analysis.json"},
    {"--sim", ValidateSimCore, "BENCH_sim_core.json"},
    {"--density", ValidateDensity, "BENCH_density.json"},
    {"--replay", ValidateReplay, "BENCH_replay.json"},
    {"--fleet", ValidateFleet, "BENCH_fleet.json"},
};

}  // namespace
}  // namespace xoar

int main(int argc, char** argv) {
  using xoar::CheckFile;
  if (argc != 3) {
    std::fprintf(stderr, "usage: %s <metrics.json> <trace.json>\n", argv[0]);
    for (const xoar::Mode& mode : xoar::kModes) {
      std::fprintf(stderr, "       %s %s <%s>\n", argv[0],
                   std::string(mode.flag).c_str(), mode.report);
    }
    return 2;
  }
  for (const xoar::Mode& mode : xoar::kModes) {
    if (mode.flag == argv[1]) {
      return CheckFile(argv[2], {xoar::ValidateMetrics, mode.validate}) ? 0
                                                                        : 1;
    }
  }
  return CheckFile(argv[1], {xoar::ValidateMetrics}) &&
                 CheckFile(argv[2], {xoar::ValidateTrace})
             ? 0
             : 1;
}
