// The benchmark's three workloads, each built as a fixed list of ops over
// the simulator's public API (sim::Scenario / sim::Session /
// fault::run_vuln_campaign).
//
//   parsec_sweep   the Fig. 6 sweep: 8 Parsec profiles x {plain, dual,
//                  triple} on the 4-core paper SoC. Host time goes to guest
//                  execution and segment publish/replay; the plain ops
//                  bypass flexstep, so the sweep shows which layer moved.
//   manycore_64    the two Fig. 8 64-core points on swaptions: 32
//                  independent pairs and 63 producers sharing one checker.
//                  Scheduler and fabric arbitration dominate.
//   vuln_campaign  a whole-SoC vulnerability campaign, dual on 2 cores, all
//                  seven component classes, snapshot-fork mode: many short
//                  post-fork bursts with cold trace caches, and the snapshot
//                  layer on the hot path.
//
// Every workload pins the relaxed bounded engine, the trace cache, static
// analysis and one host thread in code.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/types.h"
#include "soc/verified_run.h"

namespace perfbench {

using flexstep::u64;

/// What an op computed. `values` must repeat exactly across passes and, at
/// the default seed, equal the stored expected values.
struct OpOutput {
  std::vector<u64> values;
  u64 instructions = 0;       ///< Guest instructions retired by the op.
  u64 main_instructions = 0;  ///< First producer's retired instructions.
  u64 injections = 0;         ///< Faults a campaign op injected and classified.
  std::string error;          ///< Non-empty: an invariant failed.
};

struct Op {
  std::string name;
  /// Verified ops of one group run the same program on the main core, so
  /// they must retire the same main-core instruction count (empty: none).
  std::string group;
  std::function<OpOutput()> run;
};

enum class Size { kFull, kSmoke };

struct Params {
  std::string workload;
  u64 seed = 1;
  Size size = Size::kFull;
  flexstep::soc::Engine engine = flexstep::soc::Engine::kQuantumBounded;
};

struct Plan {
  std::vector<Op> ops;
  std::string setup_error;  ///< Non-empty: set-up found a defect.
  /// Traced run only, after the traced pass: layer probes that time the
  /// calls the ops do not make (references, snapshot/fork/restore, a small
  /// campaign), each under a top-level "probe/..." span.
  std::function<void()> probes;
};

bool known_workload(const std::string& name);

/// The workload's set-up: program generation, static analysis and the
/// first session build. Ops are ready to run when it returns.
Plan make_plan(const Params& params);

/// Which part of a traced run the calls being made belong to. The benchmark's main
/// sets it; each timed call is recorded with it, so the per-layer metrics
/// can prefer the timed ops over the probes and leave out the set-up's
/// warm-up op, which pays one-time costs.
enum class Phase { kSetup, kOps, kProbes };
void set_phase(Phase phase);

/// Per-layer metrics derived from the calls recorded while the tracer was
/// enabled (a traced set-up, pass and the probes): name -> value, in the
/// order BENCHMARK.json lists them.
struct LayerMetric {
  std::string name;
  std::string unit;
  double value = 0.0;
};
std::vector<LayerMetric> layer_metrics();

}  // namespace perfbench
