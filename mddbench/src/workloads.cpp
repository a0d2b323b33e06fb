#include "workloads.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "mddsim/common/config_parse.hpp"
#include "mddsim/core/recovery.hpp"
#include "mddsim/obs/forensics.hpp"
#include "mddsim/obs/ledger.hpp"
#include "mddsim/obs/provenance.hpp"
#include "mddsim/par/sweep.hpp"
#include "mddsim/routing/table.hpp"
#include "mddsim/sim/report.hpp"
#include "mddsim/topology/digraph.hpp"

namespace mddbench {

using namespace mddsim;
namespace fs = std::filesystem;

namespace {

// --- Configurations ------------------------------------------------------------

/// Builds a configuration from CLI-style `key=value` text.  The workload
/// seed shifts the configuration's own seed, so the default seed runs the
/// configurations exactly as written (unsigned wrap-around is intended).
SimConfig make_config(const std::string& kv, std::uint64_t seed) {
  SimConfig cfg;
  std::istringstream is(kv);
  std::vector<std::string> opts;
  for (std::string tok; is >> tok;) opts.push_back(tok);
  apply_config_options(cfg, opts);
  cfg.seed += seed - kDefaultSeed;
  cfg.validate();
  return cfg;
}

/// The paper's figure: SA/DR/PR on the 8x8 torus, PAT271, 8 VCs, swept
/// through saturation (0.0132 m1/node/cycle) and past it.
constexpr double kSaturation = 0.0132;
constexpr double kSweepFactors[] = {0.4, 0.7, 0.95, 1.1};
constexpr const char* kSweepSchemes[] = {"SA", "DR", "PR"};
constexpr int kSweepPoints = 4;
const char* const kSweepBase =
    "k=8 n=2 torus=1 pattern=PAT271 vcs=8 warmup=2000 measure=6000";

/// 1024 routers below saturation: the sweep's hot loop on a working set far
/// larger than the host caches, with detection and recovery idle.
const char* const kScale =
    "k=32 n=2 torus=1 scheme=PR pattern=PAT271 vcs=4 rate=0.004 warmup=500 "
    "measure=2500";

/// 1.5x saturation with small queues: knots form, the CWG oracle drives
/// recovery, and every observer records the run.
const char* const kDiagnosis =
    "k=8 n=2 torus=1 scheme=PR pattern=PAT271 vcs=4 queue_size=4 mshr=4 "
    "rate=0.0198 detect_mode=oracle cwg_period=10 warmup=2000 measure=18000";
/// The flit tracer keeps the last 2^17 events: a flight recorder of the
/// cycles before a knot.
const char* const kDiagnosisObservers =
    " cwg=1 trace=1 trace_capacity=131072 spans=1 metrics=1 metrics_epoch=1000 "
    "telemetry_epoch=500 forensics=1";

struct VerifyCase {
  const char* name;
  const char* kv;
};
constexpr VerifyCase kVerifyCases[] = {
    {"kary_torus16_dr", "k=16 n=2 torus=1 scheme=DR pattern=PAT271 vcs=8"},
    {"dragonfly_12_4", "topology=dragonfly:12,4 scheme=SA"},
    {"mesh16_table", "k=16 n=2 torus=0 scheme=SA vcs=8 routing=table"},
};

struct ExploreCase {
  const char* name;
  const char* kv;
  Cycle max_cycles;
  int persistence;
};
/// The pinned-pass 2x2 PR mesh (at twice the smoke test's measure window)
/// and the 4-node PR torus liveness configuration.
constexpr ExploreCase kExploreCases[] = {
    {"mesh2x2_pr",
     "k=2 n=2 torus=0 scheme=PR pattern=PAT100 vcs=1 buffers=1 warmup=0 "
     "rate=0.1 measure=80 queue_size=2 mshr=1 source_queue=2 service_time=2 "
     "detect_threshold=8 router_timeout=32 len_m1=1 len_m2=1 len_m3=1 "
     "len_m4=1",
     600, 64},
    {"ring4_pr_liveness",
     "k=4 n=1 torus=1 scheme=PR pattern=PAT100 vcs=1 buffers=1 warmup=0 "
     "rate=0.4 measure=16 queue_size=1 mshr=2 source_queue=2 service_time=4 "
     "detect_threshold=8 router_timeout=32 seed=5 len_m1=2 len_m2=2 len_m3=2 "
     "len_m4=2",
     1500, 150},
};

/// Plain runs per pass of the two k-ary verify configurations (the DR torus
/// and the table-routed mesh, 256 routers each) at a load well below
/// saturation: the simulations a user runs beside the proofs.  Runs of the
/// explore configurations themselves are a few hundred router-cycles, too
/// short to time steadily.
constexpr int kPlainRuns = 2;
const char* const kPlainLoad = " rate=0.003 warmup=500 measure=1500";
/// Verifying one 8x8 configuration takes about 5 ms; such a pass keeps the
/// fastest of this many.
constexpr int kSmallVerifyReps = 5;
/// Setup is repeated so that setup_s is a median over several samples.
constexpr int kSetupReps = 3;
/// Renderings of a small export per pass (see small_export).
constexpr int kExportReps = 20;
/// Cycle at which the snapshot/restore probe cuts its snapshot.
constexpr Cycle kSnapCycle = 64;
/// Snapshots and restores timed per probe.
constexpr int kSnapReps = 5;
/// collect_metrics calls timed per traced diagnosis pass.
constexpr int kCollectReps = 20;

/// A state-capped exploration of a large configuration: one path, cut after
/// `states` visited states.  Measures the explorer's per-state cost (step,
/// state hash, knot scan) at the configuration's size.
mc::ExploreOptions capped(std::size_t states) {
  mc::ExploreOptions o;
  o.max_cycles = Cycle{1} << 40;
  o.max_states = states;
  return o;
}

std::string sweep_key(int scheme, int point) {
  std::ostringstream os;
  os << "sweep/" << kSweepSchemes[scheme] << "/x" << kSweepFactors[point];
  return os.str();
}

std::vector<SimConfig> sweep_configs(std::uint64_t seed) {
  std::vector<SimConfig> out;
  for (const char* scheme : kSweepSchemes) {
    for (const double f : kSweepFactors) {
      SimConfig cfg =
          make_config(std::string(kSweepBase) + " scheme=" + scheme, seed);
      cfg.injection_rate = f * kSaturation;
      out.push_back(cfg);
    }
  }
  return out;
}

std::vector<SimConfig> scale_configs(std::uint64_t seed) {
  return {make_config(kScale, seed)};
}

/// The armed run is the same deadlock for every workload seed: its cost
/// follows its trajectory (delivered packets differ up to 8x between seeds),
/// so a seed-varied armed run would measure the seed, not the program.  The
/// seed varies the plain configuration that the verify, explore and snap
/// steps use.
std::vector<SimConfig> diagnosis_configs(std::uint64_t seed) {
  return {make_config(std::string(kDiagnosis) + kDiagnosisObservers,
                      kDefaultSeed),
          make_config(kDiagnosis, seed)};
}

/// Verification is seed-free and the explore configurations are the pinned
/// proof obligations, so they run as written; the seed varies the plain
/// runs of the explore configurations (see offline_pass).
std::vector<SimConfig> offline_configs(std::uint64_t /*seed*/) {
  std::vector<SimConfig> out;
  for (const VerifyCase& v : kVerifyCases) {
    out.push_back(make_config(v.kv, kDefaultSeed));
  }
  for (const ExploreCase& e : kExploreCases) {
    out.push_back(make_config(e.kv, kDefaultSeed));
  }
  return out;
}

// --- Operations ------------------------------------------------------------------

/// Runs one checked operation; an exception counts it as failed.
template <class F>
void guarded(Ctx& c, const std::string& key, F&& f) {
  try {
    f();
  } catch (const std::exception& e) {
    c.check->record_error(key, e.what());
  }
}

/// Repeats a pass's setup kSetupReps times, one setup_s sample each; the
/// objects of the last repetition are the ones the pass uses.
template <class F>
void setup(Ctx& c, PassTimes& t, F&& build) {
  for (int rep = 0; rep < kSetupReps; ++rep) {
    double dt = 0.0;
    {
      Section s(c.log, "setup", &dt);
      build();
    }
    t.setup_s.push_back(dt);
  }
}

std::unique_ptr<Simulator> construct(Ctx& c, const SimConfig& cfg) {
  double dt = 0.0;
  std::unique_ptr<Simulator> sim;
  {
    Section s(c.log, "sim.construct", &dt);
    sim = std::make_unique<Simulator>(cfg);
  }
  if (c.layers != nullptr) c.layers->pooled["sim.construct_s"].push_back(dt);
  return sim;
}

verify::VerifyInputs build_inputs(Ctx& c, const std::string& name,
                                  const SimConfig& cfg) {
  double dt = 0.0;
  verify::VerifyInputs in;
  {
    Section s(c.log, "verify.inputs", &dt);
    in = verify::VerifyInputs::from_config(cfg);
  }
  if (c.layers != nullptr) {
    c.layers->pooled["verify.inputs_s"].push_back(dt);
    c.layers->pooled["verify.inputs_s." + name].push_back(dt);
  }
  return in;
}

/// Runs the verifier `reps` times and books the fastest.
verify::Verdict verify_op(Ctx& c, const std::string& name,
                          const verify::VerifyInputs& in, PassTimes& t,
                          int reps = 1) {
  const std::string key = "verify/" + name;
  verify::Verdict v;
  guarded(c, key, [&] {
    double dt = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      double rep_s = 0.0;
      {
        Section s(c.log, "verify.run", &rep_s);
        v = verify::run_verify(in);
      }
      dt = rep == 0 ? rep_s : std::min(dt, rep_s);
    }
    t.verify_s += dt;
    c.check->record(key, digest(v));
    if (c.layers != nullptr) {
      c.layers->add("verify.run_s", dt);
      c.layers->add("verify.run_s." + name, dt);
    }
  });
  return v;
}

void record_sim_layers(Layers& l, Simulator& sim, const RunResult& r,
                       const CycleSamples& cs) {
  l.add("sim.cycles", static_cast<double>(r.cycles_run));
  auto& ticks = l.pooled["sim.tick_ns"];
  ticks.insert(ticks.end(), cs.tick_ns.begin(), cs.tick_ns.end());

  const Network& net = sim.network();
  std::uint64_t hops = 0;
  std::uint64_t stalls = 0;
  for (int rt = 0; rt < net.topology().num_routers(); ++rt) {
    const Router& router = net.router(static_cast<RouterId>(rt));
    for (int p = 0; p < router.num_outputs(); ++p) {
      for (int v = 0; v < router.vcs(); ++v) {
        hops += router.output(p, v).flits_forwarded;
      }
    }
    stalls += router.vc_stall_cycles();
  }
  l.add("router.flit_hops", static_cast<double>(hops));
  l.add("router.vc_stall_cycles", static_cast<double>(stalls));
  l.add("router.buffered_flit_sum", cs.buffered_flit_sum);
  l.add("router.buffered_samples", static_cast<double>(cs.buffered_samples));
  l.add("flow.pool_blocks",
        static_cast<double>(net.packet_pool().blocks_allocated()));

  const Metrics& m = sim.metrics();
  const auto sum = [](const std::vector<std::uint64_t>& v) {
    std::uint64_t s = 0;
    for (const std::uint64_t x : v) s += x;
    return static_cast<double>(s);
  };
  l.add("netif.flits_injected", sum(m.node_flits_injected()));
  l.add("netif.packets_consumed",
        static_cast<double>(m.total_packets_consumed()));
  l.add("netif.detections", sum(m.node_detections()));
  l.add("netif.deflections", sum(m.node_deflections()));
  l.add("protocol.txns_started",
        static_cast<double>(sim.protocol().transactions_started()));
  l.add("protocol.txns_completed", static_cast<double>(r.txns_completed));

  for (const auto& eng : net.recovery_engines()) {
    l.add("recovery.captures", static_cast<double>(eng->captures()));
    l.add("recovery.token_moves", static_cast<double>(eng->token_moves()));
  }
  l.add("recovery.rescued_msgs", static_cast<double>(r.counters.rescued_msgs));
  l.add("recovery.rescues", static_cast<double>(r.counters.rescues));
  l.add("recovery.detections", static_cast<double>(r.counters.detections));

  l.add("core.cwg.scans", static_cast<double>(cs.scan_us.size()));
  l.add("core.cwg.edges", static_cast<double>(cs.scan_edges));
  l.add("core.cwg.knots", static_cast<double>(cs.knots));
  l.add("core.cwg.vertices", static_cast<double>(cs.scan_vertices));
  auto& scans = l.pooled["core.cwg.scan_us"];
  scans.insert(scans.end(), cs.scan_us.begin(), cs.scan_us.end());

  if (const obs::SpanRecorder* sp = sim.spans()) {
    l.add("obs.spans.opened", static_cast<double>(sp->opened()));
    l.add("obs.spans.dropped", static_cast<double>(sp->dropped()));
    for (int i = 0; i < obs::kNumBlockCauses; ++i) {
      const auto cause = static_cast<obs::BlockCause>(i);
      l.add(std::string("obs.spans.blocked.") + obs::block_cause_name(cause),
            static_cast<double>(sp->blocked_cycles(cause)));
    }
  }
}

/// Checks a finished run and books its time and router-cycles under `key`.
void book_run(Ctx& c, const std::string& key, const RunResult& r, int routers,
              double dt, PassTimes& t) {
  t.run_s += dt;
  t.router_cycles += static_cast<double>(r.cycles_run) * routers;
  c.check->record(key, digest(r));
}

RunResult run_op(Ctx& c, Simulator& sim, const std::string& key, PassTimes& t) {
  RunResult r;
  guarded(c, key, [&] {
    CycleSamples cs;
    double dt = 0.0;
    {
      Section s(c.log, "sim.run", &dt);
      r = c.layers != nullptr ? run_hooked(sim, cs, c.log) : sim.run();
    }
    book_run(c, key, r, sim.network().topology().num_routers(), dt, t);
    if (c.layers != nullptr) record_sim_layers(*c.layers, sim, r, cs);
  });
  return r;
}

mc::ExploreResult explore_op(Ctx& c, const std::string& name,
                             const SimConfig& cfg, const mc::ExploreOptions& o,
                             PassTimes& t) {
  const std::string key = "explore/" + name;
  mc::ExploreResult res;
  guarded(c, key, [&] {
    double dt = 0.0;
    {
      Section s(c.log, "mc.explore", &dt);
      res = mc::explore(cfg, o);
    }
    t.explore_s += dt;
    t.explore_states += static_cast<double>(res.states_visited);
    c.check->record(key, digest(res));
    if (c.layers != nullptr) {
      c.layers->add("mc.explore_s", dt);
      c.layers->add("mc.states", static_cast<double>(res.states_visited));
      c.layers->add("mc.paths", static_cast<double>(res.paths));
      c.layers->add("mc.choice_points", static_cast<double>(res.choice_points));
      c.layers->add("mc.dedup_hits", static_cast<double>(res.dedup_hits));
    }
  });
  return res;
}

/// Traced passes only: snapshot and restore cost of `cfg`'s state at
/// kSnapCycle, with a round-trip check.
void snap_probe(Ctx& c, const std::string& name, const SimConfig& cfg) {
  if (c.layers == nullptr) return;
  Section span(c.log, "snap");
  guarded(c, "snap/" + name, [&] {
    Simulator sim(cfg);
    const Cycle stop =
        std::min<Cycle>(cfg.warmup_cycles + cfg.measure_cycles, kSnapCycle);
    while (sim.network().now() < stop) sim.mc_tick();
    std::vector<std::uint8_t> bytes;
    auto& snap_us = c.layers->pooled["snap.snapshot_us"];
    for (int i = 0; i < kSnapReps; ++i) {
      Section s(c.log, "snap.snapshot");
      const Clock::time_point t0 = Clock::now();
      bytes = sim.snapshot();
      snap_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    }
    std::unique_ptr<Simulator> restored;
    auto& restore_us = c.layers->pooled["snap.restore_us"];
    for (int i = 0; i < kSnapReps; ++i) {
      Section s(c.log, "snap.restore");
      const Clock::time_point t0 = Clock::now();
      restored = Simulator::restore(bytes);
      restore_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    }
    const bool round_trip = restored->snapshot() == bytes;
    const std::string_view view(reinterpret_cast<const char*>(bytes.data()),
                                bytes.size());
    c.check->record("snap/" + name,
                    {bytes.size(), obs::fnv1a64(view), round_trip ? 1u : 0u});
    c.layers->add("snap.bytes", static_cast<double>(bytes.size()));
  });
}

/// Writes one obs artifact file, timed per writer.
template <class W>
void write_artifact(Ctx& c, const std::string& writer, const fs::path& file,
                    W&& write) {
  double dt = 0.0;
  {
    Section s(c.log, "export." + writer, &dt);
    std::ofstream os(file, std::ios::binary);
    write(os);
    os.close();
    if (!os) throw std::runtime_error("cannot write " + file.string());
  }
  if (c.layers != nullptr) {
    c.layers->add("obs.export_s." + writer, dt);
    c.layers->add("obs.export_bytes", static_cast<double>(fs::file_size(file)));
  }
}

/// Rendered artifacts of a small export: file name and content.
using Rendered = std::vector<std::pair<std::string, std::string>>;

template <class W>
void render(Rendered& out, std::string name, W&& write) {
  std::ostringstream os;
  write(os);
  out.emplace_back(std::move(name), std::move(os).str());
}

/// Renders a small export into memory kExportReps times and books the
/// fastest rendering; the files are written once afterwards, untimed.  At
/// well under 1 ms, a timed file write measures the host's file-system
/// latency, whose fastest-of-20 moves 2x from pass to pass, not the program.
/// `render_all` returns the count the output check pins.
template <class R>
void small_export(Ctx& c, const std::string& key, PassTimes& t, R&& render_all) {
  guarded(c, key, [&] {
    Rendered files;
    std::uint64_t count = 0;
    double best = 0.0;
    for (int rep = 0; rep < kExportReps; ++rep) {
      files.clear();
      double dt = 0.0;
      {
        Section s(c.log, "export", &dt);
        count = render_all(files);
      }
      best = rep == 0 ? dt : std::min(best, dt);
    }
    const fs::path dir = c.tmp / key;
    fs::create_directories(dir);
    {
      Section s(c.log, "export.files");
      for (const auto& [name, content] : files) {
        std::ofstream os(dir / name, std::ios::binary);
        os << content;
        os.close();
        if (!os) throw std::runtime_error("cannot write " + (dir / name).string());
      }
    }
    t.export_s += best;
    c.check->record(key, {count});
  });
}

/// Headline CSV and one provenance-stamped report JSON line per run: what a
/// user reproducing a curve writes out.
void export_reports(Ctx& c, const std::string& key,
                    const std::vector<SimConfig>& cfgs,
                    const std::vector<RunResult>& rs, PassTimes& t) {
  small_export(c, key + "/export", t, [&](Rendered& out) {
    render(out, "results.csv", [&](std::ostream& os) {
      write_csv_header(os);
      for (std::size_t i = 0; i < rs.size(); ++i) {
        write_csv_row(os, obs::sweep_label(cfgs[i]), rs[i]);
      }
    });
    render(out, "results.jsonl", [&](std::ostream& os) {
      for (std::size_t i = 0; i < rs.size(); ++i) {
        write_json(os, obs::sweep_label(cfgs[i]), rs[i],
                   obs::make_provenance(cfgs[i], 1, 0.0));
        os << '\n';
      }
    });
    return static_cast<std::uint64_t>(rs.size());
  });
}

// --- Workloads -------------------------------------------------------------------

void sweep_pass(Ctx& c, PassTimes& t) {
  std::vector<SimConfig> cfgs;
  std::vector<std::unique_ptr<Simulator>> sims;
  std::vector<verify::VerifyInputs> inputs;
  setup(c, t, [&] {
    cfgs = sweep_configs(c.seed);
    sims.clear();
    inputs.clear();
    for (const SimConfig& cfg : cfgs) sims.push_back(construct(c, cfg));
    for (int i = 0; i < 3; ++i) {
      inputs.push_back(build_inputs(
          c, kSweepSchemes[i], cfgs[static_cast<std::size_t>(i * kSweepPoints)]));
    }
  });
  std::vector<RunResult> results(cfgs.size());
  {
    Section s(c.log, "simulate");
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
      const std::string key = sweep_key(static_cast<int>(i) / kSweepPoints,
                                        static_cast<int>(i) % kSweepPoints);
      if (c.layers != nullptr) {
        // Traced: the loop SweepRunner(1) runs, with the cycle hook.
        results[i] = run_op(c, *sims[i], key, t);
        continue;
      }
      // Untraced: each point through SweepRunner at jobs=1, as users run
      // the figure.  Its time includes the point's Simulator construction
      // (about 0.1% of the run).
      guarded(c, key, [&] {
        double dt = 0.0;
        {
          Section r(nullptr, "", &dt);
          results[i] = par::SweepRunner(1).run({cfgs[i]}).front();
        }
        book_run(c, key, results[i], cfgs[i].make_topology().num_routers(),
                 dt, t);
      });
    }
  }
  sims.clear();
  {
    Section s(c.log, "verify");
    for (int i = 0; i < 3; ++i) {
      verify_op(c, kSweepSchemes[i], inputs[static_cast<std::size_t>(i)], t,
                kSmallVerifyReps);
    }
  }
  export_reports(c, "sweep", cfgs, results, t);
  {
    Section s(c.log, "explore");
    for (int i = 0; i < 3; ++i) {
      explore_op(c, std::string("sweep/") + kSweepSchemes[i],
                 cfgs[static_cast<std::size_t>(i * kSweepPoints + kSweepPoints - 1)],
                 capped(100), t);
    }
  }
  snap_probe(c, "sweep/PR", cfgs.back());
}

void scale_pass(Ctx& c, PassTimes& t) {
  SimConfig cfg;
  std::unique_ptr<Simulator> sim;
  verify::VerifyInputs inputs;
  setup(c, t, [&] {
    cfg = scale_configs(c.seed).front();
    sim.reset();
    sim = construct(c, cfg);
    inputs = build_inputs(c, "scale", cfg);
  });
  RunResult r;
  {
    Section s(c.log, "simulate");
    r = run_op(c, *sim, "scale/run", t);
  }
  sim.reset();
  {
    Section s(c.log, "verify");
    verify_op(c, "scale", inputs, t);
  }
  export_reports(c, "scale", {cfg}, {r}, t);
  {
    Section s(c.log, "explore");
    explore_op(c, "scale", cfg, capped(40), t);
  }
  snap_probe(c, "scale", cfg);
}

/// Every artifact a user exports to see why the network deadlocked.
void export_diagnosis(Ctx& c, Simulator& sim, PassTimes& t) {
  const std::string key = "diagnosis/export";
  guarded(c, key, [&] {
    if (!sim.tracer() || !sim.spans() || !sim.registry() || !sim.telemetry())
      throw std::runtime_error("diagnosis run has an observer missing");
    const fs::path dir = c.tmp / "diagnosis";
    fs::create_directories(dir);
    const int routers = sim.network().topology().num_routers();
    const obs::RunProvenance prov =
        obs::make_provenance(sim.config(), 1, sim.last_wall_seconds());
    double total = 0.0;
    {
      Section s(c.log, "export", &total);
      write_artifact(c, "tracer_chrome", dir / "trace.json", [&](std::ostream& os) {
        sim.tracer()->export_chrome_json(os, routers);
      });
      write_artifact(c, "spans_chrome", dir / "spans.json", [&](std::ostream& os) {
        sim.spans()->export_chrome_json(os);
      });
      write_artifact(c, "spans_jsonl", dir / "spans.jsonl", [&](std::ostream& os) {
        sim.spans()->export_jsonl(os);
      });
      write_artifact(c, "registry_json", dir / "metrics.json", [&](std::ostream& os) {
        sim.registry()->write_json(os, &prov);
      });
      write_artifact(c, "registry_prometheus", dir / "metrics.prom", [&](std::ostream& os) {
        sim.registry()->write_prometheus(os);
      });
      write_artifact(c, "heatmap_csv", dir / "heatmap.csv", [&](std::ostream& os) {
        sim.telemetry()->write_heatmap_csv(os);
      });
      double dt = 0.0;
      const fs::path fdir = dir / "forensics";
      {
        Section f(c.log, "export.forensics", &dt);
        for (const ForensicsReport& rep : sim.forensics_reports()) {
          if (!Forensics::write_dir(rep, fdir.string()))
            throw std::runtime_error("cannot write " + fdir.string());
        }
      }
      if (c.layers != nullptr) {
        c.layers->add("obs.export_s.forensics", dt);
        if (fs::exists(fdir)) {
          for (const auto& e : fs::directory_iterator(fdir))
            c.layers->add("obs.export_bytes", static_cast<double>(e.file_size()));
        }
      }
    }
    t.export_s += total;
    c.check->record(key, {sim.forensics_reports().size()});
  });
}

void diagnosis_pass(Ctx& c, PassTimes& t) {
  std::vector<SimConfig> cfgs;
  std::unique_ptr<Simulator> sim;
  verify::VerifyInputs inputs;
  setup(c, t, [&] {
    cfgs = diagnosis_configs(c.seed);
    sim.reset();
    sim = construct(c, cfgs[0]);
    inputs = build_inputs(c, "diagnosis", cfgs[1]);
  });
  {
    Section s(c.log, "simulate");
    run_op(c, *sim, "diagnosis/run", t);
  }
  if (c.layers != nullptr) {
    Section s(c.log, "obs.collect_metrics");
    obs::Registry reg;
    auto& us = c.layers->pooled["obs.collect_metrics_us"];
    for (int i = 0; i < kCollectReps; ++i) {
      const Clock::time_point t0 = Clock::now();
      sim->collect_metrics(reg);
      us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    }
  }
  export_diagnosis(c, *sim, t);
  sim.reset();
  {
    Section s(c.log, "verify");
    verify_op(c, "diagnosis", inputs, t, kSmallVerifyReps);
  }
  {
    Section s(c.log, "explore");
    explore_op(c, "diagnosis", cfgs[1], capped(200), t);
  }
  snap_probe(c, "diagnosis", cfgs[1]);
}

void offline_pass(Ctx& c, PassTimes& t) {
  constexpr std::size_t kVerify = std::size(kVerifyCases);
  std::vector<SimConfig> cfgs;
  std::vector<verify::VerifyInputs> inputs;
  std::vector<std::unique_ptr<Simulator>> roots;
  setup(c, t, [&] {
    cfgs = offline_configs(c.seed);
    inputs.clear();
    roots.clear();
    for (std::size_t i = 0; i < kVerify; ++i) {
      inputs.push_back(build_inputs(c, kVerifyCases[i].name, cfgs[i]));
    }
    // The root Simulator each exploration starts from.
    for (std::size_t i = kVerify; i < cfgs.size(); ++i) {
      roots.push_back(construct(c, cfgs[i]));
    }
  });
  if (c.layers != nullptr) {
    // The two steps VerifyInputs::from_config takes for the dragonfly.
    Section s(c.log, "topology");
    const Clock::time_point t0 = Clock::now();
    const DigraphTopology g = DigraphTopology::dragonfly(12, 4);
    const Clock::time_point t1 = Clock::now();
    const RoutingTable table = RoutingTable::synthesize(g);
    const Clock::time_point t2 = Clock::now();
    c.layers->add("topology.digraph_build_s", seconds_between(t0, t1));
    c.layers->add("routing.table_synthesize_s", seconds_between(t1, t2));
  }
  std::vector<verify::Verdict> verdicts;
  {
    Section s(c.log, "verify");
    for (std::size_t i = 0; i < kVerify; ++i) {
      verdicts.push_back(verify_op(c, kVerifyCases[i].name, inputs[i], t));
    }
  }
  {
    // Seeds that each workload seed draws from a range of its own.
    Section s(c.log, "simulate");
    for (const std::size_t i : {std::size_t{0}, std::size_t{2}}) {
      for (int rep = 0; rep < kPlainRuns; ++rep) {
        const std::uint64_t seed =
            (c.seed - kDefaultSeed) * kPlainRuns + static_cast<std::uint64_t>(rep) + 1;
        const SimConfig cfg =
            make_config(std::string(kVerifyCases[i].kv) + kPlainLoad, seed);
        std::unique_ptr<Simulator> sim;
        {
          Section ctor(c.log, "sim.construct");
          sim = std::make_unique<Simulator>(cfg);
        }
        run_op(c, *sim,
               std::string("plain/") + kVerifyCases[i].name + "/" +
                   std::to_string(rep),
               t);
      }
    }
  }
  roots.clear();
  std::vector<mc::ExploreResult> explored;
  {
    Section s(c.log, "explore");
    for (std::size_t i = 0; i < std::size(kExploreCases); ++i) {
      const ExploreCase& e = kExploreCases[i];
      mc::ExploreOptions o;
      o.max_cycles = e.max_cycles;
      o.knot_persistence = e.persistence;
      explored.push_back(explore_op(c, e.name, cfgs[kVerify + i], o, t));
    }
  }
  small_export(c, "offline/export", t, [&](Rendered& out) {
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
      const verify::Verdict& v = verdicts[i];
      const std::string name = kVerifyCases[i].name;
      render(out, name + ".json", [&](std::ostream& os) { os << v.json() << '\n'; });
      render(out, name + ".txt", [&](std::ostream& os) { os << v.text(); });
    }
    for (std::size_t i = 0; i < explored.size(); ++i) {
      const mc::ExploreResult& r = explored[i];
      render(out, std::string(kExploreCases[i].name) + ".txt",
             [&](std::ostream& os) {
               os << mc::verdict_name(r.verdict) << ": " << r.states_visited
                  << " states, " << r.paths << " paths, " << r.choice_points
                  << " choice points, " << r.dedup_hits << " dedup hits\n";
             });
    }
    return static_cast<std::uint64_t>(out.size());
  });
  for (std::size_t i = 0; i < std::size(kExploreCases); ++i) {
    snap_probe(c, kExploreCases[i].name, cfgs[kVerify + i]);
  }
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"paper_sweep_8x8", sweep_configs, sweep_pass},
      {"scale_torus_32x32", scale_configs, scale_pass},
      {"deadlock_diagnosis_8x8", diagnosis_configs, diagnosis_pass},
      {"offline_checks", offline_configs, offline_pass},
  };
  return all;
}

}  // namespace mddbench
