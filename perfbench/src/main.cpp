// perfbench_ttt: the time-to-target benchmark driver.
//
//   perfbench_ttt run --workload W --seed S --seconds T --trace 0|1
//                     --lb-ref X --instance-hash H [--trace-dir D]
//       Solves the workload's instance under seed-derived relabellings
//       until T seconds have been spent, and prints one line per solve
//       followed by the result object as the last line of stdout.
//   perfbench_ttt lbref --workload W [--max-steps N]
//       Long reference solve of the base instance; prints the certified
//       lower bound LB_ref as JSON (perfbench/run.py --regen-lb stores it).
//   perfbench_ttt check --workload W --seed S --lb-ref X --instance-hash H
//       Determinism gate: the same solve twice, traced vs untraced, and
//       (sharded workloads) shards = 1 vs the workload's shards must give
//       identical fingerprints. Exits 1 on any mismatch or failed solve.
//   perfbench_ttt describe
//       Prints the workload catalogue as JSON.

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "certify.h"
#include "core/allocation.h"
#include "core/engine.h"
#include "inputs.h"
#include "solve.h"
#include "util/json.h"

namespace perfbench {
namespace {

namespace core = delaylb::core;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string mode;
  std::map<std::string, std::string> flags;

  const std::string& Get(const std::string& key) const {
    const auto it = flags.find(key);
    if (it == flags.end()) {
      throw std::invalid_argument("missing --" + key);
    }
    return it->second;
  }
  std::string Get(const std::string& key, const std::string& fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
};

Args Parse(int argc, char** argv) {
  Args args;
  if (argc < 2) throw std::invalid_argument("usage: perfbench_ttt <mode> ...");
  args.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("bad argument: " + key);
    }
    args.flags[key.substr(2)] = argv[++i];
  }
  return args;
}

std::size_t HardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

double Seconds(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

/// Peak resident set of this process image (VmHWM). getrusage's
/// ru_maxrss is not used: Linux carries it across execve, so it would
/// report the launching interpreter's peak when that is larger.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

std::string HashHex(std::uint64_t hash) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, hash);
  return buf;
}

/// The workload's base instance, refused when it is not the instance the
/// stored LB_ref was computed for.
core::Instance CheckedBase(const WorkloadSpec& spec, const Args& args) {
  core::Instance base = MakeBaseInstance(spec);
  const std::string hash = HashHex(InstanceHash(base));
  if (hash != args.Get("instance-hash")) {
    throw std::runtime_error(
        "instance hash " + hash + " differs from the stored " +
        args.Get("instance-hash") +
        ": the generator changed; regenerate LB_ref (run.py --regen-lb)");
  }
  return base;
}

SolveOptions BaseOptions(const WorkloadSpec& spec, const Args& args) {
  SolveOptions options;
  options.lb_ref = std::stod(args.Get("lb-ref"));
  if (!(options.lb_ref > 0.0)) throw std::invalid_argument("bad --lb-ref");
  options.shards = spec.shards;
  return options;
}

/// Restricts this process, and every thread it starts later, to one CPU
/// of those it may use (the last). Timed solves run one worker thread: on
/// a shared VM the speed-up of a fork-join per server (MinE partner
/// scans) or per window (PDES) follows the host's load, not the program,
/// and a wake-up on another vCPU costs whatever the host makes it cost.
/// On one CPU the sharded kernel still runs its windows, barriers and
/// cross-shard staging, with the shards of a window one after another.
void PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) last = cpu;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(last, &one);
  if (last < 0 || sched_setaffinity(0, sizeof one, &one) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

void PrintSolve(std::size_t index, std::uint64_t seed, bool traced,
                const SolveResult& r) {
  std::printf(
      "solve %zu seed %" PRIu64 "%s: %s ttt %.4fs cpu %.4fs setup %.5fs "
      "iterations %.4g SumC %.17g repair %.2e quiescent %zu "
      "fingerprint %s%s%s\n",
      index, seed, traced ? " traced" : "",
      r.failure.empty() ? "ok" : "FAILED", r.time_to_target_s,
      r.cpu_s_to_target, r.construct_s, r.iterations, r.sumc, r.repair_share, r.quiescent_checks,
      r.fingerprint.c_str(), r.failure.empty() ? "" : " -- ",
      r.failure.c_str());
  std::fflush(stdout);
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// Mean of the middle 60% of `values` (the fastest and slowest 20%
/// dropped): steadier than the median over a run's solves, whose
/// iteration counts take few distinct values, and unlike the plain mean
/// not dragged by a solve that a burst of machine noise slowed.
double TrimmedMean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t drop = values.size() / 5;
  double sum = 0.0;
  for (std::size_t i = drop; i < values.size() - drop; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * drop);
}

int RunMode(const Args& args) {
  const WorkloadSpec& spec = FindWorkload(args.Get("workload"));
  const std::uint64_t seed = std::stoull(args.Get("seed"));
  const double seconds = std::stod(args.Get("seconds"));
  const bool traced = args.Get("trace") == "1";
  const std::string trace_dir = args.Get("trace-dir", "");
  const core::Instance base = CheckedBase(spec, args);
  const SolveOptions options = BaseOptions(spec, args);
  PinToOneCpu();

  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
  std::vector<double> setup, ttt, cpu, iterations, instance_s;
  std::vector<double> traced_ttt;
  std::map<std::string, std::vector<double>> layers;
  Spans spans;
  std::string hub_trace;
  const auto record_failure = [&](const SolveResult& r) {
    ++failed;
    if (r.incorrect) correct = false;
  };

  const auto start = Clock::now();
  for (std::size_t k = 0; k == 0 || Seconds(start) < seconds; ++k) {
    const std::uint64_t solve_seed = SolveSeed(seed, k);
    const auto t0 = Clock::now();
    const std::vector<std::size_t> perm =
        MakePermutation(base.size(), solve_seed);
    const core::Instance instance = Permute(base, perm);
    instance_s.push_back(Seconds(t0));

    const SolveResult plain = Solve(spec, instance, perm, solve_seed, options);
    ++attempted;
    PrintSolve(k, solve_seed, false, plain);
    if (!plain.failure.empty()) {
      record_failure(plain);
    } else {
      setup.push_back(plain.construct_s);
      ttt.push_back(plain.time_to_target_s);
      cpu.push_back(plain.cpu_s_to_target);
      iterations.push_back(plain.iterations);
    }
    if (!traced) continue;

    // Traced twin of the same solve: per-layer figures, and the check
    // that instrumentation leaves the simulated history untouched.
    SolveOptions traced_options = options;
    traced_options.spans = &spans;
    SolveResult twin = Solve(spec, instance, perm, solve_seed, traced_options);
    ++attempted;
    if (twin.failure.empty() && twin.fingerprint != plain.fingerprint) {
      twin.failure = "traced fingerprint " + twin.fingerprint +
                     " differs from untraced " + plain.fingerprint;
      twin.incorrect = true;
    }
    PrintSolve(k, solve_seed, true, twin);
    if (!twin.failure.empty()) {
      record_failure(twin);
      continue;
    }
    traced_ttt.push_back(twin.time_to_target_s);
    for (const auto& [name, value] : twin.layers) {
      layers[name].push_back(value);
    }
    hub_trace = std::move(twin.hub_trace);
  }

  std::string out;
  delaylb::util::JsonWriter w(&out);
  w.BeginObject();
  w.Key("correct");
  w.Bool(correct);
  w.Key("attempted");
  w.UInt(attempted);
  w.Key("failed");
  w.UInt(failed);
  w.Key("metrics");
  w.BeginObject();
  const auto metric = [&w](const std::string& name, double value,
                           const char* unit) {
    w.Key(name);
    w.BeginObject();
    w.Key("value");
    w.Number(value);
    w.Key("unit");
    w.String(unit);
    w.EndObject();
  };
  if (!traced) {
    metric("setup_s", Median(setup), "s");
    metric("time_to_target_s", TrimmedMean(ttt), "s");
    metric("cpu_s_to_target", TrimmedMean(cpu), "s");
    metric("peak_rss_MB", PeakRssMb(), "MB");
    metric("iterations_to_target", TrimmedMean(iterations), "count");
  } else {
    layers["obs.trace_overhead_s"] = {Median(traced_ttt) - Median(ttt)};
    layers["setup.instance_s"] = {Median(instance_s)};
    for (const LayerMetric& layer : LayerMetrics()) {
      const auto it = layers.find(layer.name);
      metric(layer.name, it == layers.end() ? 0.0 : Median(it->second),
             layer.unit);
    }
    if (!trace_dir.empty()) {
      const std::string stem =
          trace_dir + "/" + spec.name + "-seed" + std::to_string(seed);
      WriteFile(stem + ".bench.json", spans.ToJson());
      if (!hub_trace.empty()) WriteFile(stem + ".hub.json", hub_trace);
    }
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", out.c_str());
  return 0;
}

int LbRefMode(const Args& args) {
  const WorkloadSpec& spec = FindWorkload(args.Get("workload"));
  const std::size_t max_steps =
      std::stoul(args.Get("max-steps", "400"));
  const double stop_gap = std::stod(args.Get("stop-gap", "1e-5"));
  const core::Instance base = MakeBaseInstance(spec);
  core::EngineOptions options;
  options.mine.policy = core::PartnerPolicy::kExact;
  options.mine.threads = HardwareThreads();
  const std::unique_ptr<core::Engine> engine =
      core::MakeEngine("mine", base, options);
  core::Allocation alloc(base);
  double lb = -std::numeric_limits<double>::infinity();
  double cost = 0.0;
  std::size_t steps = 0;
  const auto start = Clock::now();
  while (steps < max_steps) {
    const core::IterationStats stats = engine->Step(alloc);
    ++steps;
    cost = SumC(base, alloc.raw());
    lb = std::max(lb, DualityBound(base, alloc.raw()));
    const double gap = (cost - lb) / lb;
    if (steps % 10 == 0) {
      std::fprintf(stderr, "%s step %zu SumC %.17g LB %.17g gap %.3g\n",
                   spec.name.c_str(), steps, cost, lb, gap);
    }
    if (gap < stop_gap || stats.improvement <= 0.0) break;
  }
  const std::string violation = CheckFeasible(base, alloc.raw(), 1e-9);
  if (!violation.empty()) {
    std::fprintf(stderr, "reference allocation infeasible: %s\n",
                 violation.c_str());
    return 1;
  }
  // Headroom for the floating-point error of the bound's own sums.
  const double lb_ref = lb * (1.0 - 1e-9);
  std::string out;
  delaylb::util::JsonWriter w(&out);
  w.BeginObject();
  w.Key("workload");
  w.String(spec.name);
  w.Key("instance_hash");
  w.String(HashHex(InstanceHash(base)));
  w.Key("lb_ref");
  w.Number(lb_ref);
  w.Key("reference_sumc");
  w.Number(cost);
  w.Key("certified_gap");
  w.Number((cost - lb_ref) / lb_ref);
  w.Key("reference_steps");
  w.UInt(steps);
  w.Key("reference_engine");
  w.String("mine, exact partner policy, sequential step, seed 1");
  w.Key("reference_wall_s");
  w.Number(Seconds(start));
  w.EndObject();
  std::printf("%s\n", out.c_str());
  return 0;
}

int CheckMode(const Args& args) {
  const WorkloadSpec& spec = FindWorkload(args.Get("workload"));
  const std::uint64_t seed = SolveSeed(std::stoull(args.Get("seed")), 0);
  const core::Instance base = CheckedBase(spec, args);
  const std::vector<std::size_t> perm = MakePermutation(base.size(), seed);
  const core::Instance instance = Permute(base, perm);
  SolveOptions options = BaseOptions(spec, args);
  bool ok = true;
  const auto expect = [&ok](const char* what, const SolveResult& reference,
                            const SolveResult& other) {
    const bool same = other.failure.empty() &&
                      other.fingerprint == reference.fingerprint;
    std::printf("%-34s %s  %s\n", what, other.fingerprint.c_str(),
                same ? "identical" : "MISMATCH");
    ok = ok && same;
  };
  const SolveResult reference = Solve(spec, instance, perm, seed, options);
  PrintSolve(0, seed, false, reference);
  if (!reference.failure.empty()) return 1;
  expect("repeat", reference, Solve(spec, instance, perm, seed, options));
  SolveOptions traced = options;
  Spans spans;
  traced.spans = &spans;
  expect("traced (obs hub attached)", reference,
         Solve(spec, instance, perm, seed, traced));
  if (spec.distributed && spec.shards > 1) {
    SolveOptions sequential = options;
    sequential.shards = 1;
    expect("shards = 1", reference, Solve(spec, instance, perm, seed, sequential));
  }
  std::printf("%s: determinism %s\n", spec.name.c_str(),
              ok ? "ok" : "BROKEN");
  return ok ? 0 : 1;
}

int DescribeMode() {
  std::string out;
  delaylb::util::JsonWriter w(&out);
  w.BeginArray();
  for (const WorkloadSpec& spec : Workloads()) {
    w.BeginObject();
    w.Key("name");
    w.String(spec.name);
    w.Key("engine");
    w.String(spec.distributed ? "dist::DistributedRuntime"
                              : "core::MakeEngine(\"mine\")");
    w.Key("topology");
    w.String(spec.topology == Topology::kPlanetLabLike ? "planetlab-like"
                                                       : "clustered");
    w.Key("m");
    w.UInt(spec.m);
    w.Key("instance_seed");
    w.UInt(spec.instance_seed);
    w.Key("groups");
    w.UInt(spec.groups);
    w.Key("mean_load");
    w.Number(spec.mean_load);
    w.Key("unreachable_share");
    w.Number(spec.unreachable);
    w.Key("gap");
    w.Number(spec.gap);
    w.Key("cap");
    w.Number(spec.cap);
    if (spec.distributed) {
      w.Key("checkpoint_ms");
      w.Number(spec.checkpoint_ms);
      w.Key("shards");
      w.UInt(spec.shards);
      w.Key("churn_share");
      w.Number(spec.churn_share);
    }
    w.EndObject();
  }
  w.EndArray();
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = perfbench::Parse(argc, argv);
    if (args.mode == "run") return perfbench::RunMode(args);
    if (args.mode == "lbref") return perfbench::LbRefMode(args);
    if (args.mode == "check") return perfbench::CheckMode(args);
    if (args.mode == "describe") return perfbench::DescribeMode();
    std::fprintf(stderr, "unknown mode %s\n", args.mode.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_ttt: %s\n", e.what());
  }
  return 2;
}
