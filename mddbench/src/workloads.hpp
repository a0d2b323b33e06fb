#pragma once
// The benchmark's four workloads.  Each is one "pass" function that runs
// every operation of the workload once, checks each output, and adds its
// host times to a PassTimes.  In a traced pass it also records spans and
// per-layer counts.

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"
#include "mddsim/sim/config.hpp"

namespace mddbench {

/// The seed whose outputs are pinned in pins.inc.  Every other seed shifts
/// each configuration's own seed by the same offset and is checked for
/// determinism instead.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Host times of one pass, in seconds.
struct PassTimes {
  std::vector<double> setup_s;  ///< one sample per setup repetition
  double run_s = 0.0;           ///< Σ Simulator::run
  double router_cycles = 0.0;   ///< Σ simulated cycles x routers
  double export_s = 0.0;
  double verify_s = 0.0;        ///< Σ run_verify
  double explore_s = 0.0;       ///< Σ mc::explore
  double explore_states = 0.0;
};

/// Per-layer observations of the traced passes.
struct Layers {
  /// Work counts and host-time sums of the current traced pass.
  std::map<std::string, double> count;
  /// `count` of every finished traced pass, per name.
  std::map<std::string, std::vector<double>> history;
  /// Individual timing samples pooled over all traced passes.
  std::map<std::string, std::vector<double>> pooled;

  void add(const std::string& name, double v) { count[name] += v; }
  void end_pass() {
    for (const auto& [name, v] : count) history[name].push_back(v);
    count.clear();
  }
};

struct Ctx {
  std::uint64_t seed = kDefaultSeed;
  Checker* check = nullptr;
  SpanLog* log = nullptr;     ///< traced pass only
  Layers* layers = nullptr;   ///< traced pass only
  std::filesystem::path tmp;  ///< scratch directory for exported artifacts
};

struct Workload {
  const char* name;
  /// Every simulator/verifier configuration the workload uses (for the
  /// provenance config hash).
  std::vector<mddsim::SimConfig> (*configs)(std::uint64_t seed);
  void (*pass)(Ctx& ctx, PassTimes& t);
};

const std::vector<Workload>& workloads();

}  // namespace mddbench
