#pragma once
// Measurement plumbing for the mddsim benchmark program: timing sections that
// double as trace spans, output digests checked against pinned values or
// for run-to-run determinism, and the per-cycle hook the traced run uses to
// time individual simulated cycles from outside the library.

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "mddsim/mc/explorer.hpp"
#include "mddsim/sim/simulator.hpp"
#include "mddsim/verify/verify.hpp"

namespace mddbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank quantile (q in [0,1]) of `v`; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// --- Spans -----------------------------------------------------------------

/// In-memory span log of one traced run: name, interval and parent span.
/// Written out once, as Chrome trace-event JSON, when the benchmark ends.
class SpanLog {
 public:
  struct Rec {
    std::string name;
    int parent = -1;
    double t0 = 0.0;  ///< seconds since the log's origin
    double t1 = 0.0;
  };

  SpanLog() : origin_(Clock::now()) {}

  int open(std::string name);
  void close(int idx);

  const std::vector<Rec>& spans() const { return spans_; }
  /// Summed duration of the spans opened at top level since `first`.
  double top_level_seconds(std::size_t first) const;
  void write_chrome_json(std::ostream& os) const;

 private:
  Clock::time_point origin_;
  std::vector<Rec> spans_;
  int current_ = -1;
};

/// Times one section of a pass: adds the elapsed seconds to `*acc` (when
/// non-null) and, in a traced pass, records it as a span.
class Section {
 public:
  Section(SpanLog* log, const std::string& name, double* acc = nullptr)
      : log_(log), acc_(acc), t0_(Clock::now()),
        idx_(log != nullptr ? log->open(name) : -1) {}
  ~Section() {
    if (acc_ != nullptr) *acc_ += seconds_between(t0_, Clock::now());
    if (log_ != nullptr) log_->close(idx_);
  }
  Section(const Section&) = delete;
  Section& operator=(const Section&) = delete;

 private:
  SpanLog* log_;
  double* acc_;
  Clock::time_point t0_;
  int idx_;
};

// --- Output checks -----------------------------------------------------------

/// Every output field of one operation, doubles by bit pattern, so two
/// digests are equal exactly when the outputs are bit-identical.
using Digest = std::vector<std::uint64_t>;
using PinTable = std::map<std::string, Digest>;

Digest digest(const mddsim::RunResult& r);
Digest digest(const mddsim::verify::Verdict& v);
Digest digest(const mddsim::mc::ExploreResult& r);

/// Counts attempted and failed operations.  With a pin table every digest
/// must equal its pinned value; without one (a held-out seed) every repeat
/// of an operation key must equal the first digest seen for it.
class Checker {
 public:
  explicit Checker(const PinTable* pins) : pins_(pins) {}

  void record(const std::string& key, const Digest& d);
  /// An operation that threw: attempted and failed.
  void record_error(const std::string& key, const std::string& what);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& errors() const { return errors_; }
  /// First digest seen per key (what --emit-pins writes out).
  const PinTable& seen() const { return seen_; }

 private:
  const PinTable* pins_;
  PinTable seen_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;
};

/// Feeds deliberately wrong expectations through both checking modes and
/// returns true only when every one was counted as failed.
bool checker_self_check();

// --- Per-cycle hook (traced runs) -------------------------------------------

/// Samples gathered around each simulated cycle of a traced Simulator::run.
struct CycleSamples {
  std::vector<double> tick_ns;       ///< host time of each simulated cycle
  double buffered_flit_sum = 0.0;    ///< Σ per-cycle router-buffered flits
  std::uint64_t buffered_samples = 0;
  std::vector<double> scan_us;       ///< benchmark-owned CWG scans
  std::uint64_t scan_edges = 0;
  std::uint64_t scan_vertices = 0;
  std::uint64_t knots = 0;
};

/// Runs `sim.run()` with a callback at every cycle boundary (the
/// simulator's one-shot checkpoint hook, re-armed each cycle), which
/// times each cycle, samples router buffer occupancy and — when the run
/// has the CWG detector enabled — runs a detector owned by the benchmark
/// every cwg_period cycles.  The callback only reads the network, so the
/// run's results equal an unhooked run's; the traced run checks that.
mddsim::RunResult run_hooked(mddsim::Simulator& sim, CycleSamples& out,
                             SpanLog* log);

/// Best time, in ms, of a fixed loop of integer and memory work that uses
/// no mddsim code: a probe of the host's current speed.
double host_reference_ms();

/// Peak resident set size of this process, MiB.
double peak_rss_mib();

}  // namespace mddbench
