// mddbench — the mddsim benchmark program.
//
//   mddbench --workload NAME --seed N --seconds S --trace 0|1 [--workdir DIR]
//   mddbench --emit-pins > pins.inc
//
// One process runs one workload in a closed loop with a single client: one
// simulation, verification or exploration at a time.  After one unmeasured
// warm-up pass it repeats whole passes until S seconds have passed (at least
// two).  --trace 0 prints the end-to-end metrics, taken over the passes with
// each pass scaled by a host-speed probe; --trace 1 alternates untraced and
// traced passes and prints the per-layer metrics.  The last stdout line is
// the result object; the line before it is the run's provenance.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "mddsim/common/json.hpp"
#include "mddsim/fi/injector.hpp"
#include "mddsim/obs/provenance.hpp"
#include "mddsim/obs/span.hpp"
#include "workloads.hpp"

namespace mddbench {
namespace {

using namespace mddsim;
namespace fs = std::filesystem;

/// Outputs of every operation at kDefaultSeed, pinned from the commit that
/// introduced the benchmark (regenerate with --emit-pins only when a change
/// is meant to alter simulated results).
const PinTable kPins = {
#include "pins.inc"
};

/// The host probe's time (host_reference_ms) on the host state that
/// end-to-end times are scaled to.  The benchmark's VM alternates, for
/// minutes at a time, between states about 40% apart in speed; the probe
/// and mddsim slow down alike, so scaling each pass by kReferenceMs over
/// the probe taken around it cancels that drift.
constexpr double kReferenceMs = 0.5;

/// Top-level spans of a traced pass must cover its wall time to within
/// this share; the rest is the program's own bookkeeping between spans.
constexpr double kSpanTolerance = 0.03;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  fs::path workdir = ".";
  bool emit_pins = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--emit-pins") {
      a.emit_pins = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string val = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = val;
      } else if (flag == "--seed") {
        a.seed = std::stoull(val);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(val);
      } else if (flag == "--trace") {
        if (val != "0" && val != "1") return false;
        a.trace = val == "1";
      } else if (flag == "--workdir") {
        a.workdir = val;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return a.emit_pins || !a.workload.empty();
}

/// Numbers come only from an optimized, assertion-free, sanitizer-free
/// build of both this program and the library.
bool release_build(std::string& why) {
  bool ok = std::string(MDDBENCH_BUILD_TYPE) == "Release";
#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
  ok = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  ok = false;
#endif
  const std::string lib = obs::build_flags();
  for (const char* bad : {"assert=on", "asan", "tsan"}) {
    if (lib.find(bad) != std::string::npos) ok = false;
  }
  why = std::string("build type ") + MDDBENCH_BUILD_TYPE + ", library " + lib;
  return ok;
}

std::string build_string() {
  return obs::build_flags() +
         (obs::SpanRecorder::compiled_in() ? " spans=on" : " spans=off") +
         (mc::compiled_in() ? " mc=on" : " mc=off") +
         (fi::compiled_in() ? " fi=on" : " fi=off");
}

/// One pass of `w`; an exception escaping it (a failed setup) counts as a
/// failed operation.
PassTimes run_pass(const Workload& w, Ctx c, SpanLog* log, Layers* layers) {
  c.log = log;
  c.layers = layers;
  PassTimes t;
  try {
    w.pass(c, t);
  } catch (const std::exception& e) {
    c.check->record_error(std::string(w.name) + "/pass", e.what());
  }
  return t;
}

void remove_tmp(const fs::path& tmp) {
  std::error_code ec;
  fs::remove_all(tmp, ec);
}

/// a / b, or 0 when b is 0 (a layer the workload bypasses).
double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

/// Everything the traced mode measured, for the per-layer table.
struct TraceSummary {
  const Layers& l;
  const std::vector<PassTimes>& plain;
  const std::vector<PassTimes>& traced;
  const std::vector<double>& coverage;

  double last(const std::string& n) const {
    const auto it = l.history.find(n);
    return it == l.history.end() ? 0.0 : it->second.back();
  }
  double med(const std::string& n) const {
    const auto it = l.history.find(n);
    return it == l.history.end() ? 0.0 : median(it->second);
  }
  double q(const std::string& n, double p) const {
    const auto it = l.pooled.find(n);
    return it == l.pooled.end() ? 0.0 : quantile(it->second, p);
  }
};

std::vector<Metric> per_layer_metrics(const TraceSummary& s) {
  std::vector<double> overhead;
  std::vector<double> plain_run_s;
  for (const PassTimes& p : s.plain) plain_run_s.push_back(p.run_s);
  for (std::size_t i = 0; i < s.traced.size(); ++i) {
    const double plain = s.plain[i].run_s;
    overhead.push_back(ratio(s.traced[i].run_s - plain, plain));
  }
  const double hops = s.last("router.flit_hops");
  const double scans = s.last("core.cwg.scans");

  std::vector<Metric> m = {
      {"sim.construct_ms", "ms", s.q("sim.construct_s", 0.5) * 1e3},
      {"sim.tick_ns.p50", "ns", s.q("sim.tick_ns", 0.5)},
      {"sim.tick_ns.p99", "ns", s.q("sim.tick_ns", 0.99)},
      {"sim.cycles", "cycles", s.last("sim.cycles")},
      {"sim.trace_overhead_frac", "ratio", median(overhead)},
      {"router.flit_hops", "count", hops},
      {"router.vc_stall_cycles", "cycles", s.last("router.vc_stall_cycles")},
      {"router.vc_stalls_per_hop", "ratio",
       ratio(s.last("router.vc_stall_cycles"), hops)},
      {"router.ns_per_flit_hop", "ns",
       ratio(median(plain_run_s) * 1e9, hops)},
      {"router.buffered_flits.mean", "flits",
       ratio(s.last("router.buffered_flit_sum"),
                           s.last("router.buffered_samples"))},
      {"flow.pool_blocks", "count", s.last("flow.pool_blocks")},
      {"netif.flits_injected", "count", s.last("netif.flits_injected")},
      {"netif.packets_consumed", "count", s.last("netif.packets_consumed")},
      {"netif.detections", "count", s.last("netif.detections")},
      {"netif.deflections", "count", s.last("netif.deflections")},
      {"protocol.txns_started", "count", s.last("protocol.txns_started")},
      {"protocol.txns_completed", "count", s.last("protocol.txns_completed")},
      {"core.cwg.scan_us.p50", "us", s.q("core.cwg.scan_us", 0.5)},
      {"core.cwg.scan_us.p99", "us", s.q("core.cwg.scan_us", 0.99)},
      {"core.cwg.scans", "count", scans},
      {"core.cwg.vertices", "count", s.last("core.cwg.vertices")},
      {"core.cwg.edges.mean", "count",
       ratio(s.last("core.cwg.edges"), scans)},
      {"core.cwg.knots_per_scan", "ratio",
       ratio(s.last("core.cwg.knots"), scans)},
      {"recovery.captures", "count", s.last("recovery.captures")},
      {"recovery.rescued_msgs", "count", s.last("recovery.rescued_msgs")},
      {"recovery.token_moves", "count", s.last("recovery.token_moves")},
      {"recovery.rescues_per_detection", "ratio",
       ratio(s.last("recovery.rescues"),
                           s.last("recovery.detections"))},
      {"obs.collect_metrics_us.p50", "us", s.q("obs.collect_metrics_us", 0.5)},
  };
  for (const char* w : {"tracer_chrome", "spans_chrome", "spans_jsonl",
                        "registry_json", "registry_prometheus", "heatmap_csv",
                        "forensics"}) {
    m.push_back({std::string("obs.export_ms.") + w, "ms",
                 s.med(std::string("obs.export_s.") + w) * 1e3});
  }
  m.push_back({"obs.export_bytes", "bytes", s.last("obs.export_bytes")});
  m.push_back({"obs.spans.opened", "count", s.last("obs.spans.opened")});
  m.push_back({"obs.spans.dropped", "count", s.last("obs.spans.dropped")});
  for (int i = 0; i < obs::kNumBlockCauses; ++i) {
    const std::string n = std::string("obs.spans.blocked.") +
                          obs::block_cause_name(static_cast<obs::BlockCause>(i));
    m.push_back({n, "cycles", s.last(n)});
  }
  const double states = s.last("mc.states");
  const double paths = s.last("mc.paths");
  m.insert(m.end(), {
      {"snap.snapshot_us", "us", s.q("snap.snapshot_us", 0.5)},
      {"snap.restore_us", "us", s.q("snap.restore_us", 0.5)},
      {"snap.bytes", "bytes", s.last("snap.bytes")},
      {"mc.states", "count", states},
      {"mc.paths", "count", paths},
      {"mc.choice_points", "count", s.last("mc.choice_points")},
      {"mc.dedup_hits_per_path", "ratio",
       ratio(s.last("mc.dedup_hits"), paths)},
      {"mc.us_per_state", "us",
       ratio(s.med("mc.explore_s") * 1e6, states)},
      {"verify.inputs_ms", "ms", s.q("verify.inputs_s", 0.5) * 1e3},
      {"verify.run_ms", "ms", s.med("verify.run_s") * 1e3},
  });
  for (const char* cfg : {"kary_torus16_dr", "dragonfly_12_4", "mesh16_table"}) {
    m.push_back({std::string("verify.inputs_ms.") + cfg, "ms",
                 s.q(std::string("verify.inputs_s.") + cfg, 0.5) * 1e3});
    m.push_back({std::string("verify.run_ms.") + cfg, "ms",
                 s.med(std::string("verify.run_s.") + cfg) * 1e3});
  }
  m.push_back({"topology.digraph_build_ms", "ms",
               s.med("topology.digraph_build_s") * 1e3});
  m.push_back({"routing.table_synthesize_ms", "ms",
               s.med("routing.table_synthesize_s") * 1e3});
  m.push_back({"trace.span_coverage", "ratio", median(s.coverage)});
  return m;
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// End-to-end metrics over the untraced passes, each pass's host times
/// scaled to the reference host speed (kReferenceMs / its probe).
std::vector<Metric> end_to_end_metrics(const std::vector<PassTimes>& passes,
                                       const std::vector<double>& host_ref,
                                       const Checker& check) {
  std::vector<double> setup, ns, exp, ver, states;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const PassTimes& p = passes[i];
    const double scale = kReferenceMs / host_ref[i];
    for (const double s : p.setup_s) setup.push_back(s * scale);
    ns.push_back(ratio(p.run_s * 1e9, p.router_cycles) * scale);
    exp.push_back(p.export_s * scale);
    ver.push_back(p.verify_s * scale);
    states.push_back(ratio(p.explore_states, p.explore_s) / scale);
  }
  const double attempted = static_cast<double>(check.attempted());
  return {
      {"setup_s", "s", median(setup)},
      {"ns_per_router_cycle", "ns", median(ns)},
      {"peak_rss_mb", "MiB", peak_rss_mib()},
      // Per-pass export times, even the fastest of 20 renderings, jump
      // between levels up to ~50% apart from pass to pass, so a median
      // jumps with them; the mean of the passes tracks their mix.
      {"export_s", "s", mean(exp)},
      {"verify_s", "s", median(ver)},
      {"explore_states_per_s", "states/s", median(states)},
      {"ok_frac", "ratio",
       ratio(attempted - static_cast<double>(check.failed()),
                           attempted)},
  };
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int emit_pins(const fs::path& workdir) {
  std::vector<std::string> lines;
  for (const Workload& w : workloads()) {
    Checker check(nullptr);
    Ctx c;
    c.check = &check;
    c.tmp = workdir / ("mddbench-tmp-" + std::to_string(getpid()));
    Layers layers;
    SpanLog log;
    run_pass(w, c, nullptr, nullptr);
    run_pass(w, c, &log, &layers);
    remove_tmp(c.tmp);
    if (check.failed() != 0) {
      for (const std::string& e : check.errors()) std::cerr << w.name << ": " << e << '\n';
      return 1;
    }
    for (const auto& [key, d] : check.seen()) {
      std::ostringstream os;
      os << "{\"" << key << "\", {";
      for (std::size_t i = 0; i < d.size(); ++i) {
        char buf[24];
        std::snprintf(buf, sizeof(buf), "0x%llxull",
                      static_cast<unsigned long long>(d[i]));
        os << (i > 0 ? ", " : "") << buf;
      }
      os << "}},";
      lines.push_back(os.str());
    }
  }
  std::cout << "// Generated by `mddbench --emit-pins`: every operation's output "
               "digest at the default seed.\n";
  for (const std::string& l : lines) std::cout << l << '\n';
  return 0;
}

int run(const Args& a) {
  const Workload* w = nullptr;
  for (const Workload& cand : workloads()) {
    if (a.workload == cand.name) w = &cand;
  }
  if (w == nullptr) {
    std::cerr << "mddbench: unknown workload '" << a.workload << "'\n";
    return 2;
  }
  Checker check(a.seed == kDefaultSeed ? &kPins : nullptr);
  Ctx ctx;
  ctx.seed = a.seed;
  ctx.check = &check;
  ctx.tmp = a.workdir / ("mddbench-tmp-" + std::to_string(getpid()));
  bool correct = checker_self_check();
  if (!correct) std::cerr << "mddbench: output checker self-check failed\n";

  run_pass(*w, ctx, nullptr, nullptr);  // warm-up: checked, not timed
  remove_tmp(ctx.tmp);
  std::vector<PassTimes> plain, traced;
  std::vector<double> coverage;
  SpanLog log;
  Layers layers;
  const Clock::time_point start = Clock::now();
  std::vector<double> host_ref;  // per untraced pass
  do {
    const double before = host_reference_ms();
    plain.push_back(run_pass(*w, ctx, nullptr, nullptr));
    remove_tmp(ctx.tmp);
    host_ref.push_back(0.5 * (before + host_reference_ms()));
    const PassTimes& p = plain.back();
    std::cerr << "pass " << plain.size() << ": probe_ms=" << host_ref.back()
              << " run_s=" << p.run_s << " router_cycles="
              << p.router_cycles << " verify_s=" << p.verify_s
              << " explore_s=" << p.explore_s << " explore_states="
              << p.explore_states << " export_s=" << p.export_s
              << " setup_s=" << median(p.setup_s) << '\n';
    if (a.trace) {
      const std::size_t first = log.spans().size();
      const Clock::time_point t0 = Clock::now();
      traced.push_back(run_pass(*w, ctx, &log, &layers));
      const double wall = seconds_between(t0, Clock::now());
      const double cov = log.top_level_seconds(first) / wall;
      coverage.push_back(cov);
      if (std::fabs(1.0 - cov) > kSpanTolerance) {
        correct = false;
        std::cerr << "mddbench: traced pass spans cover " << cov
                  << " of its wall time (tolerance " << kSpanTolerance << ")\n";
      }
      layers.end_pass();
      remove_tmp(ctx.tmp);
    }
  } while (seconds_between(start, Clock::now()) < a.seconds || plain.size() < 2);

  std::vector<Metric> metrics;
  if (a.trace) {
    const fs::path out = a.workdir / ("mddbench-trace-" + a.workload + ".json");
    std::ofstream os(out);
    log.write_chrome_json(os);
    if (!os) std::cerr << "mddbench: cannot write " << out << '\n';
    metrics = per_layer_metrics(TraceSummary{layers, plain, traced, coverage});
  } else {
    metrics = end_to_end_metrics(plain, host_ref, check);
  }

  for (const std::string& e : check.errors()) std::cerr << "mddbench: FAILED " << e << '\n';
  std::vector<SimConfig> cfgs;
  try {
    cfgs = w->configs(a.seed);
  } catch (const std::exception&) {
  }
  std::cout << "{\"provenance\":{\"build\":\"" << json_escape(build_string())
            << "\",\"compiler\":\"" << json_escape(__VERSION__)
            << "\",\"config_hash\":\""
            << obs::make_batch_provenance(cfgs, 1, 0.0).config_hash
            << "\",\"nproc\":" << std::thread::hardware_concurrency()
            << ",\"workload\":\"" << json_escape(a.workload)
            << "\",\"seed\":" << a.seed << ",\"trace\":" << (a.trace ? 1 : 0)
            << ",\"passes\":" << plain.size()
            << ",\"host_ref_ms\":" << number(median(host_ref)) << "}}\n";

  for (Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::cerr << "mddbench: metric " << m.name << " is not finite\n";
      m.value = 0.0;
      correct = false;
    }
  }
  std::ostringstream os;
  os << "{\"correct\": " << (correct && check.failed() == 0 ? "true" : "false")
     << ", \"attempted\": " << check.attempted()
     << ", \"failed\": " << check.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    os << (i > 0 ? ", " : "") << '"' << m.name << "\": {\"value\": "
       << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace mddbench

int main(int argc, char** argv) {
  using namespace mddbench;
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::cerr << "usage: mddbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--workdir DIR]\n"
                 "       mddbench --emit-pins [--workdir DIR]\n";
    return 2;
  }
  std::string why;
  if (!release_build(why)) {
    std::cerr << "mddbench: refusing to report numbers from this build (" << why
              << "); build with CMAKE_BUILD_TYPE=Release and no sanitizers\n";
    return 3;
  }
  if (a.emit_pins) return emit_pins(a.workdir);
  return run(a);
}
