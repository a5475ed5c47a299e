#include "workloads.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <type_traits>

#include "analysis/report.h"
#include "fault/vuln.h"
#include "sim/scenario.h"
#include "soc/soc_config.h"
#include "tracer.h"
#include "workloads/profile.h"

namespace perfbench {
namespace {

using namespace flexstep;

// Kind of verified run. kMirror is vuln_campaign's campaign-shaped session,
// which stands in for the workload's own ops in the scheduler counts.
enum Mode : int { kPlain, kDual, kTriple, kPair, kMany, kMirror };

struct RunTag {
  Mode mode = kPlain;
  std::size_t program = 0;  ///< Runs of one program share an id (ns/inst deltas).
  bool wide = false;        ///< The workload's widest verified run.
};

// What the traced run records: one typed record per timed call, kept in
// memory and turned into the per-layer metrics by layer_metrics().
enum class Layer { kBuildProgram, kAnalyze, kBuild, kFork, kRestore, kSnapshot };

struct CallRecord {
  Layer layer;
  Phase phase;
  double ns;
};

struct RunRecord {
  RunTag tag;
  Phase phase;
  double ns;
  u64 instret;
  u64 handoffs;
  soc::RunStats stats;
  soc::CosimStats cosim;
};

struct CampaignRecord {
  Phase phase;
  double ns;
  u64 injected;
  u64 total_instructions;
};

struct Records {
  Phase phase = Phase::kSetup;
  std::vector<CallRecord> calls;
  std::vector<RunRecord> runs;
  std::vector<CampaignRecord> campaigns;
};

Records& records() {
  static Records instance;
  return instance;
}

/// Ends `span` and records the call when the tracer is enabled.
void record_call(Layer layer, Span& span) {
  if (tracer().enabled()) records().calls.push_back({layer, records().phase, span.stop()});
}

void record_run(const sim::Session& session, const soc::RunStats& st,
                RunTag tag, Span& span) {
  if (!tracer().enabled()) return;
  const double ns = span.stop();
  records().runs.push_back({tag, records().phase, ns, session.total_instret(),
                            session.arbitration_handoffs(), st,
                            session.cosim_stats()});
}

bool full(const Params& p) { return p.size == Size::kFull; }

sim::Scenario base_scenario(const Params& p) {
  sim::Scenario s;
  s.seed(p.seed).engine(p.engine).trace(true).analysis(true);
  return s;
}

soc::SocConfig banked_soc(u32 cores) {
  // Fig. 8's banked L2: 128 KiB per core, so capacity per core is the same
  // at 64 cores as at 4.
  soc::SocConfig cfg = soc::SocConfig::paper_default(cores);
  cfg.l2.size_bytes = std::max(cfg.l2.size_bytes, cores * 128 * 1024);
  return cfg;
}

fault::VulnConfig vuln_config(const Params& p, u32 faults) {
  fault::VulnConfig c;
  c.target_faults = faults;
  c.warmup_rounds = 20'000;
  c.gap_rounds = 1'000;
  c.horizon = 30'000;
  c.seed = p.seed;
  c.workload_iterations = 20'000;
  c.threads = 1;
  c.mode = fault::CampaignMode::kSnapshotFork;
  c.engine = p.engine;
  return c;
}

isa::Program build_program(const sim::Scenario& s) {
  Span span("workloads.build_program");
  isa::Program program = s.build_program();
  record_call(Layer::kBuildProgram, span);
  return program;
}

std::vector<isa::Program> build_role_programs(const sim::Scenario& s) {
  Span span("workloads.build_program");
  std::vector<isa::Program> programs = s.build_role_programs();
  record_call(Layer::kBuildProgram, span);
  return programs;
}

/// Empty when the static analysis is clean.
std::string analyze(const sim::Scenario& s) {
  analysis::ProgramReport report;
  {
    Span span("analysis.analyze");
    report = s.analyze();
    record_call(Layer::kAnalyze, span);
  }
  return report.has_errors()
             ? "static analysis: " + std::to_string(report.error_count) +
                   " lint errors"
             : std::string();
}

sim::Session build_session(const sim::Scenario& s) {
  Span span("sim.build");
  sim::Session session = s.build();
  record_call(Layer::kBuild, span);
  return session;
}

/// Build a session from `scenario`, run it to completion and check the
/// fault-free invariants: no failed segment, and every produced segment
/// verified by each of its producer's checkers.
OpOutput run_verified(const sim::Scenario& scenario, RunTag tag) {
  sim::Session session = build_session(scenario);
  soc::RunStats st;
  {
    Span span("soc.run");
    st = session.run();
    record_run(session, st, tag, span);
  }
  OpOutput out;
  out.instructions = session.total_instret();
  out.main_instructions = st.main_instructions;
  // Engine-independent: equal under the stepwise reference and the bounded
  // engine, so the expected values are recorded once from stepwise.
  out.values = {st.main_cycles,         st.main_instructions,
                st.completion_cycles,   st.segments_produced,
                st.segments_verified,   st.segments_failed,
                st.mem_entries,         st.backpressure_events,
                session.arbitration_handoffs(), out.instructions};
  if (!session.finished()) {
    out.error = "run did not finish";
  } else if (tag.mode != kPlain &&
             (st.segments_produced == 0 || st.segments_failed != 0 ||
              st.segments_verified !=
                  st.segments_produced * (tag.mode == kTriple ? 2 : 1))) {
    out.error = "fault-free verified run: produced " +
                std::to_string(st.segments_produced) + ", verified " +
                std::to_string(st.segments_verified) + ", failed " +
                std::to_string(st.segments_failed);
  }
  return out;
}

OpOutput run_campaign(const workloads::WorkloadProfile& profile,
                      const soc::SocConfig& soc_config,
                      const fault::VulnConfig& config) {
  fault::VulnReport r;
  {
    Span span("fault.campaign");
    r = fault::run_vuln_campaign(profile, soc_config, config);
    if (tracer().enabled()) {
      records().campaigns.push_back({records().phase, span.stop(), r.injected,
                                     r.total_instructions});
    }
  }
  OpOutput out;
  out.instructions = r.total_instructions;
  out.injections = r.injected;
  out.values = {r.digest(), r.injected, r.masked, r.detected, r.sdc, r.due};
  // VulnReport::check_invariant() without its abort, so a broken invariant
  // counts as a failed op.
  bool ok = r.injected == config.target_faults &&
            r.records.size() == r.injected &&
            r.masked + r.detected + r.sdc + r.due == r.injected;
  for (const fault::ComponentVuln& c : r.components) {
    ok = ok && c.masked + c.detected + c.sdc + c.due == c.injected;
  }
  if (!ok) out.error = "campaign classification invariant broken";
  return out;
}

/// Time snapshot, fork and restore on a warmed session.
void snapshot_probe(sim::Session& session) {
  for (int i = 0; i < 5; ++i) {
    soc::Snapshot snap;
    {
      Span span("soc.snapshot");
      snap = session.snapshot();
      record_call(Layer::kSnapshot, span);
    }
    std::optional<sim::Session> fork;
    {
      Span span("sim.fork");
      fork.emplace(session.fork(snap));
      record_call(Layer::kFork, span);
    }
    fork.reset();
    Span span("sim.restore");
    session.restore(snap);
    record_call(Layer::kRestore, span);
  }
}

/// Plain, dual and triple on the 4-core paper SoC plus a 2-core single pair,
/// all on `program`: the ns/inst references for workloads whose own ops are
/// not of these kinds.
void reference_probes(const Params& p, const isa::Program& program,
                      bool dual_is_wide) {
  sim::Scenario s = base_scenario(p);
  s.program(program).soc(soc::SocConfig::paper_default(4));
  {
    Span root("probe/ref");
    run_verified(sim::Scenario(s).plain(), {kPlain, 0, false});
    run_verified(sim::Scenario(s).dual(), {kDual, 0, dual_is_wide});
    run_verified(sim::Scenario(s).triple(), {kTriple, 0, false});
  }
  Span root("probe/pair");
  run_verified(sim::Scenario(s).soc(soc::SocConfig::paper_default(2)).dual(),
               {kPair, 0, false});
}

/// A small campaign, so the fault layer is measured on every workload.
void campaign_probe(const Params& p, const workloads::WorkloadProfile& profile) {
  Span root("probe/campaign");
  run_campaign(profile, soc::SocConfig::paper_default(2), vuln_config(p, 14));
}

// ---- parsec_sweep ---------------------------------------------------------

Plan parsec_plan(const Params& p) {
  const u32 iterations = full(p) ? 3500 : 120;
  Plan plan;
  std::vector<sim::Scenario> pinned;
  std::size_t program = 0;
  for (const auto& profile : workloads::parsec_profiles()) {
    sim::Scenario s = base_scenario(p);
    s.workload(profile).iterations(iterations).soc(
        soc::SocConfig::paper_default(4));
    s.program(build_program(s));
    if (std::string e = analyze(s); !e.empty() && plan.setup_error.empty()) {
      plan.setup_error = profile.name + ": " + e;
    }
    const struct {
      const char* name;
      Mode mode;
    } modes[] = {{"plain", kPlain}, {"dual", kDual}, {"triple", kTriple}};
    for (const auto& m : modes) {
      sim::Scenario op(s);
      if (m.mode == kPlain) op.plain();
      if (m.mode == kDual) op.dual();
      if (m.mode == kTriple) op.triple();
      const RunTag tag{m.mode, program, program == 0 && m.mode == kDual};
      // The verified modes add the FlexStep set-up sequence to the main
      // core, so only dual and triple must retire the same count.
      plan.ops.push_back({profile.name + "/" + m.name,
                          m.mode == kPlain ? "" : profile.name,
                          [op, tag] { return run_verified(op, tag); }});
    }
    pinned.push_back(std::move(s));
    ++program;
  }
  plan.probes = [p, first = pinned.front()] {
    {
      Span root("probe/pair");
      run_verified(sim::Scenario(first).soc(soc::SocConfig::paper_default(2)).dual(),
                   {kPair, 0, false});
    }
    {
      Span root("probe/snapshot");
      sim::Session session = build_session(sim::Scenario(first).dual());
      session.advance(2'000'000);
      snapshot_probe(session);
    }
    campaign_probe(p, workloads::parsec_profiles().front());
  };
  return plan;
}

// ---- manycore_64 ----------------------------------------------------------

Plan manycore_plan(const Params& p) {
  const u32 pairs = full(p) ? 32 : 4;
  const u32 producers = 2 * pairs - 1;
  const u32 iterations = full(p) ? 300 : 60;
  const soc::SocConfig cfg = banked_soc(2 * pairs);
  const auto& profile = workloads::find_profile("swaptions");
  Plan plan;

  sim::Scenario single = base_scenario(p);
  single.workload(profile).iterations(iterations);
  plan.setup_error = analyze(single);

  sim::Scenario pair_s = base_scenario(p);
  pair_s.workload(profile).iterations(iterations).soc(cfg).pairs(pairs);
  pair_s.programs(build_role_programs(pair_s));
  sim::Scenario shared_s = base_scenario(p);
  shared_s.workload(profile).iterations(iterations).soc(cfg).shared_checker(producers);
  shared_s.programs(build_role_programs(shared_s));

  plan.ops.push_back({"pairs" + std::to_string(pairs), profile.name,
                      [pair_s] { return run_verified(pair_s, {kMany, 0, true}); }});
  plan.ops.push_back({"shared" + std::to_string(producers), profile.name,
                      [shared_s] { return run_verified(shared_s, {kMany, 0, false}); }});
  plan.probes = [p, pair_s, &profile] {
    reference_probes(p, pair_s.build_role_programs().front(), false);
    {
      Span root("probe/snapshot");
      sim::Session session = build_session(pair_s);
      session.advance(2'000'000);
      snapshot_probe(session);
    }
    campaign_probe(p, profile);
  };
  return plan;
}

// ---- vuln_campaign --------------------------------------------------------

Plan vuln_plan(const Params& p) {
  const auto& profile = workloads::find_profile("swaptions");
  const soc::SocConfig soc2 = soc::SocConfig::paper_default(2);
  const fault::VulnConfig config = vuln_config(p, full(p) ? 126 : 14);
  Plan plan;

  // A session shaped like the campaign's own (swaptions, dual, 2 cores):
  // the traced run times the snapshot layer and the scheduler on it.
  sim::Scenario mirror = base_scenario(p);
  mirror.workload(profile)
      .iterations(config.workload_iterations)
      .soc(soc2)
      .dual()
      .tolerate_stall(true);
  mirror.program(build_program(mirror));
  plan.setup_error = analyze(mirror);
  auto session = std::make_shared<sim::Session>(build_session(mirror));

  plan.ops.push_back({"campaign", "",
                      [&profile, soc2, config] {
                        return run_campaign(profile, soc2, config);
                      }});
  plan.probes = [p, session, config, &profile] {
    sim::Scenario small = base_scenario(p);
    small.workload(profile).iterations(300);
    reference_probes(p, small.build_program(), true);
    {
      Span root("probe/mirror");
      Span span("soc.run");
      session->advance(config.warmup_rounds + config.horizon);
      record_run(*session, session->stats(), {kMirror, 0, false}, span);
    }
    Span root("probe/snapshot");
    snapshot_probe(*session);
  };
  return plan;
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "parsec_sweep" || name == "manycore_64" ||
         name == "vuln_campaign";
}

void set_phase(Phase phase) { records().phase = phase; }

Plan make_plan(const Params& params) {
  if (params.workload == "parsec_sweep") return parsec_plan(params);
  if (params.workload == "manycore_64") return manycore_plan(params);
  return vuln_plan(params);
}

std::vector<LayerMetric> layer_metrics() {
  const Records& rec = records();
  // A layer's calls inside the timed ops, else inside the probes, else in
  // set-up (the only place some layers are called).
  const auto pick = [](const auto& all, const auto& keep) {
    using Record = typename std::decay_t<decltype(all)>::value_type;
    for (Phase phase : {Phase::kOps, Phase::kProbes, Phase::kSetup}) {
      std::vector<Record> out;
      for (const Record& r : all) {
        if (r.phase == phase && keep(r)) out.push_back(r);
      }
      if (!out.empty()) return out;
    }
    return std::vector<Record>{};
  };
  const auto call_ms = [&](Layer layer) {
    std::vector<double> ms;
    for (const CallRecord& c : pick(rec.calls, [&](const CallRecord& r) {
           return r.layer == layer;
         })) {
      ms.push_back(c.ns / 1e6);
    }
    return median(ms);
  };

  // Scheduler and flexstep counts come from the workload's own ops, or, on
  // vuln_campaign, whose op is the campaign, from the campaign-shaped session.
  std::vector<RunRecord> runs = pick(rec.runs, [](const RunRecord& r) {
    return r.phase == Phase::kOps || r.tag.mode == kMirror;
  });
  double run_ns = 0.0, instret = 0.0, max_skew = 0.0;
  double rounds = 0.0, relaxed = 0.0, fallbacks = 0.0, hook_breaks = 0.0, parked = 0.0;
  double produced = 0.0, verified = 0.0, mem_entries = 0.0, backpressure = 0.0, handoffs = 0.0;
  std::vector<double> run_s;
  for (const RunRecord& r : runs) {
    run_ns += r.ns;
    run_s.push_back(r.ns / 1e9);
    instret += static_cast<double>(r.instret);
    rounds += static_cast<double>(r.cosim.rounds);
    relaxed += static_cast<double>(r.cosim.relaxed_bursts);
    fallbacks += static_cast<double>(r.cosim.strict_fallbacks);
    hook_breaks += static_cast<double>(r.cosim.hook_breaks);
    parked += static_cast<double>(r.cosim.parked_producer_bursts);
    max_skew = std::max(max_skew, static_cast<double>(r.cosim.max_skew_cycles));
    produced += static_cast<double>(r.stats.segments_produced);
    verified += static_cast<double>(r.stats.segments_verified);
    mem_entries += static_cast<double>(r.stats.mem_entries);
    backpressure += static_cast<double>(r.stats.backpressure_events);
    handoffs += static_cast<double>(r.handoffs);
  }

  // Host time per run kind and program, from the timed ops and the
  // reference probes (not the set-up's warm-up op): plain/dual/triple come
  // from the workload's own ops on parsec_sweep and from the reference
  // probes on the others.
  std::vector<const RunRecord*> by_mode[kPair + 1];
  const RunRecord* wide = nullptr;
  for (const RunRecord& r : rec.runs) {
    if (r.phase == Phase::kSetup || r.tag.mode == kMirror) continue;
    if (r.tag.wide) wide = &r;
    if (r.tag.mode > kPair) continue;
    auto& slot = by_mode[r.tag.mode];
    if (slot.size() <= r.tag.program) slot.resize(r.tag.program + 1, nullptr);
    slot[r.tag.program] = &r;
  }
  const auto ratio = [](double a, double b) { return b == 0.0 ? 0.0 : a / b; };
  const auto ns_per_inst = [&](const RunRecord* r) {
    return r == nullptr ? 0.0 : ratio(r->ns, static_cast<double>(r->instret));
  };
  double plain_ns = 0.0, plain_inst = 0.0, main_inst = 0.0;
  double dual_extra = 0.0, triple_extra = 0.0;
  const std::size_t programs = std::min(
      {by_mode[kPlain].size(), by_mode[kDual].size(), by_mode[kTriple].size()});
  for (std::size_t i = 0; i < programs; ++i) {
    const RunRecord* plain = by_mode[kPlain][i];
    const RunRecord* dual = by_mode[kDual][i];
    const RunRecord* triple = by_mode[kTriple][i];
    if (plain == nullptr || dual == nullptr || triple == nullptr) continue;
    plain_ns += plain->ns;
    plain_inst += static_cast<double>(plain->instret);
    main_inst += static_cast<double>(plain->stats.main_instructions);
    dual_extra += dual->ns - plain->ns;
    triple_extra += triple->ns - plain->ns;
  }
  const RunRecord* pair = by_mode[kPair].empty() ? nullptr : by_mode[kPair].front();

  double campaign_ns = 0.0, campaign_inst = 0.0, injected = 0.0;
  std::vector<double> campaign_s;
  for (const CampaignRecord& c : pick(rec.campaigns, [](const CampaignRecord&) { return true; })) {
    campaign_s.push_back(c.ns / 1e9);
    campaign_ns += c.ns;
    campaign_inst += static_cast<double>(c.total_instructions);
    injected += static_cast<double>(c.injected);
  }

  return {
      {"workloads.build_program_ms", "ms", call_ms(Layer::kBuildProgram)},
      {"analysis.analyze_ms", "ms", call_ms(Layer::kAnalyze)},
      {"sim.build_ms", "ms", call_ms(Layer::kBuild)},
      {"sim.fork_ms", "ms", call_ms(Layer::kFork)},
      {"sim.restore_ms", "ms", call_ms(Layer::kRestore)},
      {"soc.snapshot_ms", "ms", call_ms(Layer::kSnapshot)},
      {"soc.run_s", "s", median(run_s)},
      {"soc.sim_mips", "MIPS", ratio(instret * 1e3, run_ns)},
      {"soc.rounds", "count", rounds},
      {"soc.rounds_per_kinst", "1/kinst", ratio(rounds * 1e3, instret)},
      {"soc.ns_per_round", "ns", ratio(run_ns, rounds)},
      {"soc.relaxed_bursts", "count", relaxed},
      {"soc.strict_fallbacks", "count", fallbacks},
      {"soc.hook_breaks", "count", hook_breaks},
      {"soc.parked_producer_bursts", "count", parked},
      {"soc.max_skew_cycles", "cycles", max_skew},
      {"soc.manycore_ns_per_inst", "ns", ns_per_inst(wide) - ns_per_inst(pair)},
      {"arch.instret", "count", instret},
      {"arch.plain_ns_per_inst", "ns", ratio(plain_ns, plain_inst)},
      {"flexstep.dual_ns_per_inst", "ns", ratio(dual_extra, main_inst)},
      {"flexstep.triple_ns_per_inst", "ns", ratio(triple_extra, main_inst)},
      {"flexstep.segments_produced", "count", produced},
      {"flexstep.segments_verified", "count", verified},
      {"flexstep.mem_entries", "count", mem_entries},
      {"flexstep.backpressure_events", "count", backpressure},
      {"flexstep.fabric_handoffs", "count", handoffs},
      {"fault.campaign_s", "s", median(campaign_s)},
      {"fault.instructions_per_injection", "count", ratio(campaign_inst, injected)},
      {"fault.injections_per_s", "1/s", ratio(injected * 1e9, campaign_ns)},
  };
}

}  // namespace perfbench
