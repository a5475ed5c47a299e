// Benchmark program for the FlexStep simulator.
//
//   perfbench --workload parsec_sweep|manycore_64|vuln_campaign --seed N
//             --seconds S --trace 0|1 [--size full|smoke]
//             [--expected FILE] [--corrupt-op K] [--trace-out FILE]
//   perfbench --setup-only --workload W --seed N [--size full|smoke] [--expected FILE]
//   perfbench --host-probe
//   perfbench --record --workload W --seed N [--size full|smoke]
//
// Untraced run (--trace 0): the workload's set-up, timed from process start
// (setup_s), then passes of its fixed op list until --seconds have elapsed;
// throughput is one pass's work over the median pass time (sim_mips, or
// injections_per_s on vuln_campaign). --setup-only stops after the set-up, so
// set-up can be timed in several fresh processes. --host-probe times the
// host-speed probes and exits.
// Traced run (--trace 1): one set-up, one untraced and one traced pass, then
// the layer probes; the per-layer metrics come from typed records of the
// timed calls. Two more untraced/traced pairs follow, and the median extra
// time of a traced pass over its untraced one is the tracing overhead.
//
// Every op is checked: invariants at any seed, identical results across
// passes, and at the default seed the values stored in the expected file.
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "tracer.h"
#include "workloads.h"

using namespace perfbench;

namespace {

using flexstep::u32;

constexpr u64 kDefaultSeed = 1;

struct Options {
  Params params;
  double seconds = 10.0;
  bool trace = false;
  bool record = false;
  bool setup_only = false;
  int corrupt_op = -1;
  std::string expected_path;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N "
               "--seconds S --trace 0|1 [--size full|smoke] [--expected F] "
               "[--corrupt-op K] [--trace-out F] [--record]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") o.params.workload = value();
    else if (a == "--seed") o.params.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (a == "--seconds") o.seconds = std::strtod(value().c_str(), nullptr);
    else if (a == "--trace") {
      const std::string t = value();
      if (t != "0" && t != "1") usage("--trace must be 0 or 1");
      o.trace = t == "1";
    }
    else if (a == "--size") {
      const std::string s = value();
      if (s != "full" && s != "smoke") usage("--size must be full or smoke");
      o.params.size = s == "full" ? Size::kFull : Size::kSmoke;
    } else if (a == "--expected") o.expected_path = value();
    else if (a == "--corrupt-op") o.corrupt_op = std::atoi(value().c_str());
    else if (a == "--trace-out") o.trace_out = value();
    else if (a == "--record") o.record = true;
    else if (a == "--setup-only") o.setup_only = true;
    else usage(("unknown argument " + a).c_str());
  }
  if (!known_workload(o.params.workload)) usage("unknown --workload");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

/// The simulator reads these at start-up; any of them would change what is
/// measured, so the benchmark clears them and sets engine, trace cache,
/// analysis and thread count in code.
void clear_environment() {
  for (const char* name : {"FLEX_ENGINE", "FLEX_TRACE", "FLEX_FUSED",
                           "FLEX_ANALYZE", "FLEX_THREADS",
                           "FLEX_CAMPAIGN_DIE_SHARD"}) {
    if (const char* v = std::getenv(name); v != nullptr) {
      std::printf("# cleared %s=%s\n", name, v);
      unsetenv(name);
    }
  }
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

volatile u64 probe_sink = 0;

/// Host-speed probe on the core: an integer loop over an L1-resident table.
double alu_probe_ms() {
  std::vector<double> samples;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<u64> table(4096);
    u64 x = 0x9E3779B97F4A7C15ULL;
    const double t0 = now_s();
    for (u64 i = 0; i < 4'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      table[x & 4095] += x;
    }
    samples.push_back((now_s() - t0) * 1e3);
    u64 sum = 0;
    for (u64 v : table) sum += v;
    probe_sink = sum;  // keeps the loop observable
  }
  return median(samples);
}

/// Host-speed probe on memory: a dependent pointer chase over 128 MiB, more
/// than the last-level cache, so it sees the memory-side contention that
/// the core loop cannot. next[i] = (a*i + c) mod 2^25 is a full-period LCG,
/// so the chase is one cycle through every entry in a scattered order.
double memory_probe_ns_per_load() {
  constexpr u32 kBits = 25;
  constexpr u64 kMask = (u64{1} << kBits) - 1;
  constexpr u64 kLoads = 500'000;
  std::vector<u32> next(kMask + 1);
  for (u64 i = 0; i <= kMask; ++i) {
    next[i] = static_cast<u32>((i * 1664525u + 1013904223u) & kMask);
  }
  std::vector<double> samples;
  u32 at = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = now_s();
    for (u64 i = 0; i < kLoads; ++i) at = next[at];
    samples.push_back((now_s() - t0) * 1e9 / kLoads);
  }
  probe_sink = at;
  return median(samples);
}

/// Both host-speed probes, printed beside the metrics so host drift can be
/// told from a program change; never divided into a metric. Run as a
/// process of its own, so the probe's buffer stays out of the benchmark's
/// peak RSS.
int host_probe() {
  std::printf("# host_probe alu_ms=%.4f mem_ns_per_load=%.3f\n",
              alu_probe_ms(), memory_probe_ns_per_load());
  return 0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

const char* size_name(Size s) { return s == Size::kFull ? "full" : "smoke"; }

/// Expected values: lines "<workload> <size> <seed> <op> <v>...".
std::map<std::string, std::vector<u64>> load_expected(const Options& o) {
  std::map<std::string, std::vector<u64>> out;
  if (o.expected_path.empty()) return out;
  std::ifstream in(o.expected_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, size, op;
    u64 seed = 0;
    fields >> workload >> size >> seed >> op;
    if (workload != o.params.workload || size != size_name(o.params.size) ||
        seed != o.params.seed) {
      continue;
    }
    std::vector<u64> values;
    for (u64 v; fields >> v;) values.push_back(v);
    out[op] = values;
  }
  return out;
}

/// Checks each op's output and keeps the attempted / failed tally.
class Checker {
 public:
  Checker(const Options& o, std::map<std::string, std::vector<u64>> expected)
      : expected_(std::move(expected)),
        need_expected_(o.params.seed == kDefaultSeed),
        corrupt_op_(o.corrupt_op) {}

  void check(std::size_t index, const Op& op, const OpOutput& out) {
    ++attempted_;
    std::string why = out.error;
    if (why.empty()) {
      auto [it, first] = seen_.emplace(op.name, out.values);
      if (!first && it->second != out.values) why = "result differs from an earlier run of the op";
    }
    if (why.empty() && need_expected_) {
      auto it = expected_.find(op.name);
      if (it == expected_.end()) {
        why = "no expected values stored for the default seed";
      } else {
        std::vector<u64> want = it->second;
        if (static_cast<int>(index) == corrupt_op_ && !want.empty()) ++want[0];
        if (want != out.values) why = "result differs from the expected values";
      }
    }
    if (why.empty() && !op.group.empty()) {
      auto [it, first] = group_main_.emplace(op.group, out.main_instructions);
      if (!first && it->second != out.main_instructions) {
        why = "main-core instruction count differs within group " + op.group;
      }
    }
    if (!why.empty()) fail(op.name + ": " + why);
  }

  void fail(const std::string& why) {
    ++failed_;
    if (failed_ <= 10) std::printf("# FAILED %s\n", why.c_str());
  }
  void count_attempt() { ++attempted_; }

  u64 attempted() const { return attempted_; }
  u64 failed() const { return failed_; }

 private:
  std::map<std::string, std::vector<u64>> expected_;
  std::map<std::string, std::vector<u64>> seen_;
  std::map<std::string, u64> group_main_;
  bool need_expected_;
  int corrupt_op_;
  u64 attempted_ = 0;
  u64 failed_ = 0;
};

/// One set-up: generate programs, analyse, build the first session, and run
/// the first op once, untimed, to pay the process's one-time costs. Timed
/// from `start`, the start of the process.
Plan setup(const Options& o, Checker& checker, double start, double* seconds) {
  Plan plan = make_plan(o.params);
  if (!plan.setup_error.empty()) {
    checker.count_attempt();
    checker.fail("set-up: " + plan.setup_error);
  }
  const OpOutput warm = plan.ops.front().run();
  *seconds = now_s() - start;
  checker.check(0, plan.ops.front(), warm);
  return plan;
}

/// What one pass of the op list did, and how long its ops took.
struct PassResult {
  double seconds = 0.0;
  u64 instructions = 0;
  u64 injections = 0;
};

PassResult run_pass(const Plan& plan, Checker& checker) {
  PassResult pass;
  for (std::size_t i = 0; i < plan.ops.size(); ++i) {
    const Op& op = plan.ops[i];
    const double t0 = now_s();
    OpOutput out;
    {
      Span span("op/" + op.name);
      out = op.run();
    }
    pass.seconds += now_s() - t0;
    pass.instructions += out.instructions;
    pass.injections += out.injections;
    checker.check(i, op, out);
  }
  return pass;
}

void print_result(const Checker& checker,
                  const std::vector<LayerMetric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              checker.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(checker.attempted()),
              static_cast<unsigned long long>(checker.failed()));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int record(const Options& o) {
  Plan plan = make_plan(o.params);
  if (!plan.setup_error.empty()) {
    std::fprintf(stderr, "set-up failed: %s\n", plan.setup_error.c_str());
    return 1;
  }
  for (const Op& op : plan.ops) {
    const OpOutput out = op.run();
    if (!out.error.empty()) {
      std::fprintf(stderr, "%s: %s\n", op.name.c_str(), out.error.c_str());
      return 1;
    }
    std::printf("%s %s %llu %s", o.params.workload.c_str(),
                size_name(o.params.size),
                static_cast<unsigned long long>(o.params.seed), op.name.c_str());
    for (u64 v : out.values) std::printf(" %llu", static_cast<unsigned long long>(v));
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const double start = now_s();
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to measure a build without NDEBUG\n");
  return 2;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s build\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  clear_environment();
  if (argc == 2 && std::strcmp(argv[1], "--host-probe") == 0) return host_probe();
  Options o = parse(argc, argv);
  if (o.record) {
    // RunStats and handoffs are engine-independent: record them from the
    // stepwise reference. The campaign digest is engine-specific: record it
    // under the engine the benchmark measures.
    if (o.params.workload != "vuln_campaign") o.params.engine = flexstep::soc::Engine::kStepwise;
    return record(o);
  }

  std::printf("# host: nproc=%ld cpu=\"%s\" build=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), cpu_model().c_str(),
              PERFBENCH_BUILD_TYPE);
  std::printf("# workload=%s seed=%llu size=%s seconds=%g trace=%d\n",
              o.params.workload.c_str(),
              static_cast<unsigned long long>(o.params.seed),
              size_name(o.params.size), o.seconds, o.trace ? 1 : 0);

  Checker checker(o, load_expected(o));
  std::vector<LayerMetric> metrics;

  if (o.setup_only) {
    double setup_s = 0.0;
    setup(o, checker, start, &setup_s);
    metrics = {{"setup_s", "s", setup_s}};
  } else if (!o.trace) {
    double setup_s = 0.0;
    Plan plan = setup(o, checker, start, &setup_s);
    std::vector<double> pass_s;
    PassResult pass;
    const double passes_start = now_s();
    const std::size_t min_passes = o.params.size == Size::kFull ? 3 : 1;
    while (pass_s.size() < min_passes || now_s() - passes_start < o.seconds) {
      pass = run_pass(plan, checker);
      pass_s.push_back(pass.seconds);
    }
    std::printf("# guest_instructions_per_pass=%llu injections_per_pass=%llu\n",
                static_cast<unsigned long long>(pass.instructions),
                static_cast<unsigned long long>(pass.injections));
    std::printf("# passes=%zu pass_s:", pass_s.size());
    for (double s : pass_s) std::printf(" %.4f", s);
    std::printf("\n");
    // Every pass does the same work (the checks hold it to identical
    // results), so throughput is that work over the median pass time.
    const double median_pass_s = median(pass_s);
    const LayerMetric throughput =
        o.params.workload == "vuln_campaign"
            ? LayerMetric{"injections_per_s", "1/s",
                          static_cast<double>(pass.injections) / median_pass_s}
            : LayerMetric{"sim_mips", "MIPS",
                          static_cast<double>(pass.instructions) / median_pass_s / 1e6};
    metrics = {throughput,
               {"setup_s", "s", setup_s},
               {"peak_rss_mb", "MB", peak_rss_mb()}};
  } else {
    tracer().set_enabled(true);
    set_phase(Phase::kSetup);
    Plan plan;
    {
      Span root("setup");
      double s = 0.0;
      plan = setup(o, checker, start, &s);
    }
    tracer().set_enabled(false);
    const double untraced = run_pass(plan, checker).seconds;
    tracer().set_enabled(true);
    set_phase(Phase::kOps);
    const double traced = run_pass(plan, checker).seconds;
    set_phase(Phase::kProbes);
    plan.probes();
    tracer().set_enabled(false);
    metrics = layer_metrics();
    if (!o.trace_out.empty() && !tracer().write_json(o.trace_out)) {
      std::printf("# could not write %s\n", o.trace_out.c_str());
    }
    // Tracing overhead: two more untraced/traced pairs after the first, so
    // a host slowdown during one pass does not decide it; the median of the
    // three pairs' ratios is reported. Their records come after the metrics.
    std::vector<double> ratios = {traced / untraced};
    std::printf("# untraced/traced pass_s: %.4f/%.4f", untraced, traced);
    for (int pair = 0; pair < 2; ++pair) {
      tracer().set_enabled(false);
      const double u = run_pass(plan, checker).seconds;
      tracer().set_enabled(true);
      const double t = run_pass(plan, checker).seconds;
      ratios.push_back(t / u);
      std::printf(" %.4f/%.4f", u, t);
    }
    tracer().set_enabled(false);
    std::printf("\n");
    metrics.push_back({"trace.overhead_pct", "%", (median(ratios) - 1.0) * 100.0});
  }
  {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    std::printf("# cpu_user_s=%.3f cpu_sys_s=%.3f minor_faults=%ld\n",
                usage.ru_utime.tv_sec + usage.ru_utime.tv_usec / 1e6,
                usage.ru_stime.tv_sec + usage.ru_stime.tv_usec / 1e6,
                usage.ru_minflt);
  }
  print_result(checker, metrics);
  return 0;
}
