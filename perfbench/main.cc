// xoar_perfbench: runs one episode of one benchmark workload
// (perfbench/README.md) and prints its raw results. run.py starts it once
// per episode, so every episode gets a fresh process and address-space
// layout, and aggregates the records.
//
//   xoar_perfbench --workload density_churn|guest_io|restart_io
//                  --seed N --trace 0|1 [--trace-out FILE]
//
// The only stdout line is one JSON object:
//   {"correct", "error", "attempted", "failed", "ops", "digest",
//    "call_us": [...], "sim": {name: value}, "wall": {name: value}}
// `ops` counts the completed ops of the measured phase, and `call_us`
// holds the wall time of each of its timed calls, in call order; together
// the calls cover all of the phase's work. `sim` values are simulated or
// counted and must be identical for every episode of a seed; `digest`
// folds them together with the episode's request-level outputs. `wall`
// values are host time.
// With --trace 1 the episode records spans around every timed call and
// writes them to --trace-out as Chrome trace JSON. Exits 1 if an
// invariant broke (the record is still printed), 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/harness.h"
#include "perfbench/workloads.h"
#include "src/base/log.h"

namespace xoar::perfbench {
namespace {

struct Workload {
  const char* name;
  EpisodeResult (*run)(std::uint64_t seed, SpanLog* spans);
};

constexpr Workload kWorkloads[] = {
    {"density_churn", RunDensityChurn},
    {"guest_io", RunGuestIo},
    {"restart_io", RunRestartIo},
};

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  bool trace = false;
  std::string trace_out;
};

bool ParseOptions(int argc, char** argv, Options& options) {
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) {
          options.workload = &w;
        }
      }
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      have_seed = *end == '\0' && *value != '\0';
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
      have_trace = options.trace || std::strcmp(value, "0") == 0;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && options.workload != nullptr && have_seed &&
         have_trace;
}

// Peak resident set of this process image (VmHWM). getrusage's
// ru_maxrss would also count the image this one was exec'd from.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      std::putchar('\\');
    }
    std::putchar(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
  }
  std::putchar('"');
}

void PrintJsonMap(const char* key, const std::map<std::string, double>& map) {
  std::printf(", \"%s\": {", key);
  const char* sep = "";
  for (const auto& [name, value] : map) {
    std::printf("%s\"%s\": %.17g", sep, name.c_str(), value);
    sep = ", ";
  }
  std::printf("}");
}

int Run(const Options& options) {
  Logger::Get().set_level(LogLevel::kError);
  SpanLog spans;
  EpisodeResult r =
      options.workload->run(options.seed, options.trace ? &spans : nullptr);

  r.wall["setup_s"] = r.setup_s;
  r.wall["peak_rss_mb"] = PeakRssMb();
  // Every episode of a seed must make the same calls and reach the same
  // simulated results, traced or not.
  Digest digest;
  digest.Add(r.digest);
  digest.Add(r.call_us.size());
  digest.Add(r.ops);
  for (const auto& [name, value] : r.sim) {
    digest.AddDouble(value);
  }
  if (options.trace && !options.trace_out.empty() &&
      !spans.WriteChromeTrace(options.trace_out)) {
    r.Fail("cannot write " + options.trace_out);
  }

  std::printf("{\"correct\": %s, \"error\": ", r.correct ? "true" : "false");
  PrintJsonString(r.error);
  std::printf(", \"attempted\": %llu, \"failed\": %llu, \"ops\": %llu, "
              "\"digest\": \"%016llx\", \"call_us\": [",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.ops),
              static_cast<unsigned long long>(digest.value()));
  for (std::size_t i = 0; i < r.call_us.size(); ++i) {
    std::printf("%s%.3f", i == 0 ? "" : ", ", r.call_us[i]);
  }
  std::printf("]");
  PrintJsonMap("sim", r.sim);
  PrintJsonMap("wall", r.wall);
  std::printf("}\n");
  return r.correct ? 0 : 1;
}

}  // namespace
}  // namespace xoar::perfbench

int main(int argc, char** argv) {
  xoar::perfbench::Options options;
  if (!xoar::perfbench::ParseOptions(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: %s --workload density_churn|guest_io|restart_io "
                 "--seed N --trace 0|1 [--trace-out FILE]\n",
                 argv[0]);
    return 2;
  }
  return xoar::perfbench::Run(options);
}
