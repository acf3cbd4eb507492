#pragma once
// Benchmark inputs: the workload catalogue and the instance generators.
//
// Every workload solves one fixed base instance (generated from the
// workload's own instance seed, so its certified lower bound LB_ref can be
// stored) under a relabelling of its servers drawn from the run's --seed.
// A permutation of server ids leaves the optimum SumC unchanged, so LB_ref
// certifies every seed, while the solvers see a genuinely different input
// (their visiting orders, partner draws and shard plans all change).
//
// The generators use the benchmark's own SplitMix64 stream rather than the
// program's util::Rng, so a change to the program can never change the
// inputs it is measured on.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/instance.h"

namespace perfbench {

/// SplitMix64 with the few distributions the generators need.
class Stream {
 public:
  explicit Stream(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  double Uniform();  ///< [0, 1)
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }
  double Exponential(double mean);
  double Normal();
  std::size_t Below(std::size_t n);  ///< [0, n), n > 0

 private:
  std::uint64_t state_;
};

enum class Topology {
  /// Metro clusters on a 3000 km square, distance + access-link latency
  /// with jitter, and a share of pairs barred from relaying (the paper's
  /// trust restrictions: c_ij = infinity).
  kPlanetLabLike,
  /// Tight latency groups (2-8 ms) separated by wide gaps (40-80 ms): the
  /// shape the sharded kernel needs for a useful lookahead.
  kClustered,
};

struct WorkloadSpec {
  std::string name;
  bool distributed = false;
  Topology topology = Topology::kClustered;
  std::size_t m = 0;
  std::uint64_t instance_seed = 0;
  double mean_load = 0.0;
  std::size_t groups = 0;        ///< clusters / metros
  double unreachable = 0.0;      ///< share of barred pairs (PlanetLab only)
  /// Target: SumC <= (1 + gap) * LB_ref.
  double gap = 0.0;
  /// Central: Engine::Step cap. Distributed: sim-ms cap.
  double cap = 0.0;
  /// Distributed only.
  double checkpoint_ms = 0.0;
  std::size_t shards = 1;
  /// Drain-and-rejoin wave: share of servers, leave-wave start, join-wave
  /// start and wave length (sim ms). 0 share = no churn.
  double churn_share = 0.0;
  double leave_at = 0.0;
  double join_at = 0.0;
  double wave_ms = 0.0;
};

/// The workload catalogue; throws std::invalid_argument for unknown names.
const WorkloadSpec& FindWorkload(const std::string& name);
const std::vector<WorkloadSpec>& Workloads();

/// The workload's base (unpermuted) instance.
delaylb::core::Instance MakeBaseInstance(const WorkloadSpec& spec);

/// A uniformly random permutation of [0, m) drawn from `seed`.
std::vector<std::size_t> MakePermutation(std::size_t m, std::uint64_t seed);

/// The instance with server i relabelled perm[i].
delaylb::core::Instance Permute(const delaylb::core::Instance& base,
                                const std::vector<std::size_t>& perm);

/// Order-sensitive 64-bit hash of speeds, loads and latencies: ties a
/// stored LB_ref to the exact instance it was computed for.
std::uint64_t InstanceHash(const delaylb::core::Instance& instance);

/// Seed of solve `index` within a run of seed `seed`.
std::uint64_t SolveSeed(std::uint64_t seed, std::size_t index);

}  // namespace perfbench
