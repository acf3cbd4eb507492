#pragma once
// One time-to-target solve: construct the engine or runtime on a finished
// instance, advance it from the identity allocation until the certified
// target SumC <= (1 + gap) * LB_ref holds, and check the result.
//
// Timing covers only the program's calls (Engine::Step,
// DistributedRuntime::RunUntil); the benchmark's checkpoint evaluation
// and the sampled layer calls of a traced solve run between them.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/instance.h"
#include "inputs.h"

namespace perfbench {

/// The benchmark's own spans (wall time), kept in memory and written as
/// Chrome-trace JSON when the run ends.
class Spans {
 public:
  Spans() : epoch_(std::chrono::steady_clock::now()) {}
  /// Opens a span under `parent` (-1 = root) and returns its id. `name`
  /// must be a string literal.
  int Begin(const char* name, int parent);
  void End(int id);
  std::string ToJson() const;

 private:
  struct Span {
    const char* name;
    double ts_us;
    double dur_us;
    int parent;
  };
  double NowUs() const;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
};

struct SolveOptions {
  double lb_ref = 0.0;
  std::size_t shards = 1;   ///< distributed workloads
  /// Non-null: traced solve — attach an obs::Hub with wall lanes, record
  /// spans here, and sample the per-layer costs.
  Spans* spans = nullptr;
};

struct SolveResult {
  /// Empty when the solve reached its target and passed every check.
  std::string failure;
  /// True when `failure` is a correctness violation (as opposed to the
  /// target not being reached within the workload's cap).
  bool incorrect = false;
  double construct_s = 0.0;
  double time_to_target_s = 0.0;
  double cpu_s_to_target = 0.0;
  /// Engine Steps (central) or agent balance rounds = sim ms / balance
  /// period (distributed).
  double iterations = 0.0;
  double sim_ms = 0.0;
  double wire_mb = 0.0;
  double sumc = 0.0;
  /// Distributed: checkpoints at which no exchange was uncommitted, so
  /// exact conservation of the raw columns was checked.
  std::size_t quiescent_checks = 0;
  /// Distributed: mass the row-sum repair moved at the last evaluated
  /// checkpoint, as a share of the total demand.
  double repair_share = 0.0;
  /// Central: SumC at the target iteration (%.17g). Distributed: events
  /// dispatched / bytes sent / ColumnTotalCost at the target checkpoint.
  std::string fingerprint;
  /// Traced solves only.
  std::map<std::string, double> layers;
  std::string hub_trace;
};

/// `instance` is the base instance relabelled by `perm` (server i of the
/// base is server perm[i]); `seed` seeds the program's own randomness.
SolveResult Solve(const WorkloadSpec& spec,
                  const delaylb::core::Instance& instance,
                  const std::vector<std::size_t>& perm, std::uint64_t seed,
                  const SolveOptions& options);

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Per-layer metrics in report order (every workload reports all of them;
/// a layer the workload does not use reads 0).
const std::vector<LayerMetric>& LayerMetrics();

double Median(std::vector<double> values);

}  // namespace perfbench
