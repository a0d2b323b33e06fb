#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>

#include "mddsim/common/json.hpp"
#include "mddsim/core/cwg.hpp"

namespace mddbench {

using namespace mddsim;

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[i];
}

// --- SpanLog -----------------------------------------------------------------

int SpanLog::open(std::string name) {
  Rec r;
  r.name = std::move(name);
  r.parent = current_;
  r.t0 = seconds_between(origin_, Clock::now());
  spans_.push_back(std::move(r));
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void SpanLog::close(int idx) {
  Rec& r = spans_[static_cast<std::size_t>(idx)];
  r.t1 = seconds_between(origin_, Clock::now());
  current_ = r.parent;
}

double SpanLog::top_level_seconds(std::size_t first) const {
  double sum = 0.0;
  for (std::size_t i = first; i < spans_.size(); ++i) {
    if (spans_[i].parent < static_cast<int>(first)) sum += spans_[i].t1 - spans_[i].t0;
  }
  return sum;
}

void SpanLog::write_chrome_json(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Rec& r = spans_[i];
    if (i > 0) os << ",\n";
    os << "{\"name\":\"" << json_escape(r.name) << "\",\"ph\":\"X\",\"pid\":1,"
       << "\"tid\":1,\"ts\":" << r.t0 * 1e6 << ",\"dur\":" << (r.t1 - r.t0) * 1e6
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << r.parent << "}}";
  }
  os << "]}\n";
}

// --- Digests -----------------------------------------------------------------

namespace {

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

}  // namespace

Digest digest(const RunResult& r) {
  const DeadlockCounters& c = r.counters;
  return {bits(r.offered_load),       bits(r.throughput),
          bits(r.avg_packet_latency), bits(r.p50_packet_latency),
          bits(r.p95_packet_latency), bits(r.p99_packet_latency),
          bits(r.avg_txn_latency),    bits(r.avg_txn_messages),
          r.packets_delivered,        r.txns_completed,
          c.detections,               c.deflections,
          c.rescues,                  c.rescued_msgs,
          c.retries,                  c.cwg_deadlocks,
          bits(r.normalized_deadlocks), r.drained ? 1u : 0u,
          r.cycles_run};
}

Digest digest(const verify::Verdict& v) {
  return {v.pass ? 1u : 0u, v.strict_pass ? 1u : 0u, v.checks.size()};
}

Digest digest(const mc::ExploreResult& r) {
  return {static_cast<std::uint64_t>(r.verdict), r.states_visited, r.paths,
          r.choice_points, r.dedup_hits};
}

// --- Checker -----------------------------------------------------------------

void Checker::record(const std::string& key, const Digest& d) {
  ++attempted_;
  const auto [first, inserted] = seen_.emplace(key, d);
  const Digest* want = nullptr;
  if (pins_ != nullptr) {
    const auto it = pins_->find(key);
    if (it == pins_->end()) {
      ++failed_;
      errors_.push_back(key + ": no pinned value");
      return;
    }
    want = &it->second;
  } else if (!inserted) {
    want = &first->second;
  }
  if (want != nullptr && *want != d) {
    ++failed_;
    errors_.push_back(key + (pins_ != nullptr ? ": differs from the pinned value"
                                              : ": differs from its first run"));
  }
}

void Checker::record_error(const std::string& key, const std::string& what) {
  ++attempted_;
  ++failed_;
  errors_.push_back(key + ": " + what);
}

bool checker_self_check() {
  const PinTable pins{{"op", {1, 2, 3}}};
  Checker pinned(&pins);
  pinned.record("op", {1, 2, 4});       // wrong value
  pinned.record("unpinned", {1});       // no expectation at all
  Checker repeat(nullptr);
  repeat.record("op", {1, 2, 3});
  repeat.record("op", {1, 2, 4});       // repeat disagrees with the first run
  return pinned.attempted() == 2 && pinned.failed() == 2 &&
         repeat.attempted() == 2 && repeat.failed() == 1;
}

// --- Per-cycle hook ------------------------------------------------------------

namespace {

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

class CycleHook {
 public:
  CycleHook(Simulator& sim, CycleSamples& out, SpanLog* log)
      : sim_(sim), out_(out), log_(log) {
    if (sim.config().cwg_enabled) {
      det_ = std::make_unique<CwgDetector>(sim.network());
      period_ = static_cast<Cycle>(sim.config().cwg_period);
    }
  }

  RunResult run() {
    arm();
    last_ = Clock::now();
    RunResult r = sim_.run();
    out_.tick_ns.push_back(ns_between(last_, Clock::now()));
    sim_.set_checkpoint(0, nullptr);
    return r;
  }

 private:
  // The checkpoint hook is one-shot, so each callback re-arms it for the
  // next cycle as its last action.  That replaces the closure being run;
  // the closure holds only `this` and nothing touches it afterwards.
  void arm() {
    sim_.set_checkpoint(sim_.network().now() + 1,
                        [this](Simulator&) { on_cycle(); });
  }

  void on_cycle() {
    const Clock::time_point enter = Clock::now();
    out_.tick_ns.push_back(ns_between(last_, enter));
    const Network& net = sim_.network();
    int buffered = 0;
    for (int r = 0; r < net.topology().num_routers(); ++r) {
      buffered += net.router(static_cast<RouterId>(r)).total_buffered_flits();
    }
    out_.buffered_flit_sum += buffered;
    ++out_.buffered_samples;
    if (det_ && net.now() % period_ == 0) {
      Section span(log_, "core.cwg.scan");
      const Clock::time_point t0 = Clock::now();
      out_.knots += det_->scan();
      out_.scan_us.push_back(ns_between(t0, Clock::now()) / 1e3);
      out_.scan_edges += det_->csr_edges().size();
      out_.scan_vertices = static_cast<std::uint64_t>(det_->num_vertices());
    }
    last_ = Clock::now();
    arm();
  }

  Simulator& sim_;
  CycleSamples& out_;
  SpanLog* log_;
  std::unique_ptr<CwgDetector> det_;
  Cycle period_ = 1;
  Clock::time_point last_;
};

}  // namespace

RunResult run_hooked(Simulator& sim, CycleSamples& out, SpanLog* log) {
  CycleHook hook(sim, out, log);
  return hook.run();
}

double host_reference_ms() {
  // Static, so every call's writes are read by the next: the loop is kept.
  static std::vector<std::uint32_t> buf(std::size_t{1} << 20);  // 4 MiB
  double best = 0.0;
  std::uint32_t x = 1;
  for (int rep = 0; rep < 32; ++rep) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < 200000; ++i) {
      x = x * 1664525u + 1013904223u;
      buf[x >> 12] += x;
    }
    const double ms = seconds_between(t0, Clock::now()) * 1e3;
    best = rep == 0 ? ms : std::min(best, ms);
  }
  return best;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace mddbench
