#include "solve.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "certify.h"
#include "core/allocation.h"
#include "core/engine.h"
#include "core/pair_order_cache.h"
#include "core/pairwise.h"
#include "dist/gossip.h"
#include "dist/runtime.h"
#include "obs/hub.h"
#include "util/json.h"

namespace perfbench {

namespace core = delaylb::core;
namespace dist = delaylb::dist;
namespace obs = delaylb::obs;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------- spans ---

double Spans::NowUs() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
      .count();
}

int Spans::Begin(const char* name, int parent) {
  spans_.push_back({name, NowUs(), 0.0, parent});
  return static_cast<int>(spans_.size()) - 1;
}

void Spans::End(int id) {
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.dur_us = NowUs() - span.ts_us;
}

std::string Spans::ToJson() const {
  std::string out;
  delaylb::util::JsonWriter w(&out);
  w.BeginObject();
  w.Key("displayTimeUnit");
  w.String("ms");
  w.Key("traceEvents");
  w.BeginArray();
  for (std::size_t id = 0; id < spans_.size(); ++id) {
    const Span& span = spans_[id];
    w.BeginObject();
    w.Key("name");
    w.String(span.name);
    w.Key("cat");
    w.String("perfbench");
    w.Key("ph");
    w.String("X");
    w.Key("ts");
    w.Number(span.ts_us);
    w.Key("dur");
    w.Number(span.dur_us);
    w.Key("pid");
    w.UInt(10);
    w.Key("tid");
    w.UInt(0);
    w.Key("args");
    w.BeginObject();
    w.Key("id");
    w.UInt(id);
    w.Key("parent");
    w.Int(span.parent);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return out;
}

// -------------------------------------------------------------- helpers ---

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

const std::vector<LayerMetric>& LayerMetrics() {
  static const std::vector<LayerMetric> metrics = {
      {"core.step_ms", "ms"},
      {"core.balances", "count"},
      {"core.balance_columns_us", "us"},
      {"handshake.completed", "count"},
      {"handshake.rejected", "count"},
      {"handshake.no_gain", "count"},
      {"handshake.yield", "ratio"},
      {"handshake.latency_mean_ms", "ms"},
      {"gossip.rounds", "count"},
      {"gossip.adopted", "count"},
      {"gossip.adoption_yield_mean", "count"},
      {"gossip.staleness_age_mean_ms", "ms"},
      {"gossip.view_entries", "count"},
      {"gossip.pack_digest_us", "us"},
      {"gossip.pack_entries_newer_us", "us"},
      {"gossip.merge_entries_us", "us"},
      {"gossip.est_cpu_s", "s"},
      {"network.messages_sent", "count"},
      {"network.messages_dropped", "count"},
      {"network.gossip_MB", "MB"},
      {"network.column_MB", "MB"},
      {"network.control_MB", "MB"},
      {"network.membership_MB", "MB"},
      {"membership.drains", "count"},
      {"membership.joins", "count"},
      {"membership.join_fallbacks", "count"},
      {"pdes.events", "count"},
      {"pdes.windows", "count"},
      {"pdes.events_per_window_mean", "count"},
      {"pdes.busy_s", "s"},
      {"pdes.stall_s", "s"},
      {"sim_ms_to_target", "ms"},
      {"wire_MB_to_target", "MB"},
      {"obs.trace_overhead_s", "s"},
      {"setup.instance_s", "s"},
      {"setup.construct_s", "s"},
  };
  return metrics;
}

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
/// Relative tolerance of the benchmark's SumC against the program's, and
/// of row sums against n_i.
constexpr double kRelTol = 1e-9;

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Wall and CPU time of the program's calls, accumulated across segments.
class Meter {
 public:
  void Start() {
    wall0_ = Clock::now();
    cpu0_ = CpuSeconds();
  }
  /// Ends a segment; returns its wall seconds.
  double Stop() {
    const double wall =
        std::chrono::duration<double>(Clock::now() - wall0_).count();
    wall_ += wall;
    cpu_ += CpuSeconds() - cpu0_;
    return wall;
  }
  double wall() const { return wall_; }
  double cpu() const { return cpu_; }

 private:
  Clock::time_point wall0_;
  double cpu0_ = 0.0;
  double wall_ = 0.0;
  double cpu_ = 0.0;
};

template <typename Fn>
double TimeUs(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return std::chrono::duration<double, std::micro>(Clock::now() - t0)
      .count();
}

class SpanScope {
 public:
  SpanScope(Spans* spans, const char* name, int parent)
      : spans_(spans), id_(spans ? spans->Begin(name, parent) : -1) {}
  ~SpanScope() {
    if (spans_ != nullptr) spans_->End(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int id() const { return id_; }

 private:
  Spans* spans_;
  int id_;
};

/// Constructions timed per solve; the last one is kept. One sample per
/// solve left setup_s at the mercy of a single page-fault burst or
/// preemption (a 21% spread over ten runs on dist-churn-sharded).
constexpr int kSetupSamples = 9;

/// Calls `make(keep)` kSetupSamples times, destroying each object before
/// the next is built, and returns the last (`keep` true; the earlier ones
/// are built without the hub). `*seconds` is the median construction time.
template <typename Make>
auto ConstructTimed(Make&& make, double* seconds) {
  decltype(make(true)) object;
  std::vector<double> samples;
  for (int k = 0; k < kSetupSamples; ++k) {
    object.reset();
    const auto t0 = Clock::now();
    object = make(k + 1 == kSetupSamples);
    samples.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
  }
  *seconds = Median(std::move(samples));
  return object;
}

std::unique_ptr<obs::Hub> MakeHub(const SolveOptions& options) {
  if (options.spans == nullptr) return nullptr;
  obs::HubOptions hub_options;
  hub_options.wall_lanes = true;
  return std::make_unique<obs::Hub>(hub_options);
}

/// Median cost of one warm Algorithm-1 pair preview on sampled pairs.
double SampleBalanceColumnsUs(const core::Instance& instance,
                              const core::Allocation& alloc,
                              std::uint64_t seed) {
  const std::size_t m = instance.size();
  core::PairOrderCache cache(instance);
  core::PairBalanceWorkspace ws;
  Stream rng(seed ^ 0xB4C3u);
  std::vector<double> samples;
  for (int s = 0; s < 64; ++s) {
    const std::size_t i = rng.Below(m);
    std::size_t j = rng.Below(m - 1);
    if (j >= i) ++j;
    // Two untimed calls admit the pair's ordering into the cache, as the
    // engine's repeated previews do.
    core::PairBalancePreview(instance, alloc, i, j, ws, &cache);
    core::PairBalancePreview(instance, alloc, i, j, ws, &cache);
    samples.push_back(TimeUs(
        [&] { core::PairBalancePreview(instance, alloc, i, j, ws, &cache); }));
  }
  return Median(std::move(samples));
}

std::string Format(const char* fmt, double a, double b) {
  char buf[200];
  std::snprintf(buf, sizeof buf, fmt, a, b);
  return buf;
}

/// The checks on the allocation a solve is judged by; records the first
/// failure in `out` and returns false.
bool Judge(const core::Instance& instance, std::span<const double> r,
           bool reached, double target, double lb_ref, SolveResult& out) {
  if (!reached) {
    out.failure = Format("target %.17g not reached; SumC %.17g at the cap",
                         target, out.sumc);
    return false;
  }
  std::string violation = CheckFeasible(instance, r, kRelTol);
  if (violation.empty() && out.sumc < lb_ref) {
    violation = Format("SumC %.17g below LB_ref %.17g", out.sumc, lb_ref);
  }
  out.failure = violation;
  out.incorrect = !violation.empty();
  return violation.empty();
}

// -------------------------------------------------------------- central ---

SolveResult SolveCentral(const WorkloadSpec& spec,
                         const core::Instance& instance, std::uint64_t seed,
                         const SolveOptions& options) {
  SolveResult out;
  Spans* spans = options.spans;
  const SpanScope solve_span(spans, "solve", -1);
  std::unique_ptr<obs::Hub> hub = MakeHub(options);

  core::EngineOptions engine_options;
  engine_options.mine.policy = core::PartnerPolicy::kExact;
  engine_options.mine.step_mode = core::StepMode::kSequential;
  engine_options.mine.threads = 1;  // see PinToOneCpu in main.cpp
  engine_options.mine.seed = seed;
  engine_options.mine.obs = hub.get();
  std::unique_ptr<core::Engine> engine;
  {
    const SpanScope span(spans, "construct", solve_span.id());
    engine = ConstructTimed(
        [&](bool keep) {
          core::EngineOptions o = engine_options;
          if (!keep) o.mine.obs = nullptr;
          return core::MakeEngine("mine", instance, o);
        },
        &out.construct_s);
  }

  core::Allocation alloc(instance);
  const double target = (1.0 + spec.gap) * options.lb_ref;
  Meter meter;
  std::vector<double> step_ms;
  std::size_t balances = 0;
  double program_cost = 0.0;
  bool reached = false;
  for (std::size_t step = 0; step < static_cast<std::size_t>(spec.cap);
       ++step) {
    core::IterationStats stats;
    {
      const SpanScope span(spans, "Engine::Step", solve_span.id());
      meter.Start();
      stats = engine->Step(alloc);
      step_ms.push_back(1e3 * meter.Stop());
    }
    balances += stats.balances;
    program_cost = stats.total_cost;
    const SpanScope span(spans, "evaluate", solve_span.id());
    const double cost = SumC(instance, alloc.raw());
    if (!(std::fabs(cost - program_cost) <= kRelTol * cost)) {
      out.failure = Format("SumC %.17g disagrees with the engine's %.17g",
                           cost, program_cost);
      out.incorrect = true;
      return out;
    }
    out.iterations = static_cast<double>(step + 1);
    out.sumc = cost;
    if (cost <= target) {
      reached = true;
      break;
    }
  }
  out.time_to_target_s = meter.wall();
  out.cpu_s_to_target = meter.cpu();
  char fp[64];
  std::snprintf(fp, sizeof fp, "%.17g", program_cost);
  out.fingerprint = fp;
  if (!Judge(instance, alloc.raw(), reached, target, options.lb_ref, out)) {
    return out;
  }

  if (spans != nullptr) {
    const SpanScope span(spans, "sample.balance_columns", solve_span.id());
    out.layers["core.step_ms"] = Median(step_ms);
    out.layers["core.balances"] = static_cast<double>(balances);
    out.layers["core.balance_columns_us"] =
        SampleBalanceColumnsUs(instance, alloc, seed);
    out.layers["setup.construct_s"] = out.construct_s;
    out.hub_trace = hub->TraceJson();
  }
  return out;
}

// ---------------------------------------------------------- distributed ---

/// Per-call costs of the gossip view operations, sampled on pairs of
/// agents at checkpoints: a packs its digest, a packs what b's digest
/// cannot prove b holds, and a copy of b's view merges that payload.
struct GossipSamples {
  std::vector<double> digest_us, newer_us, merge_us;

  void Sample(const dist::DistributedRuntime& runtime, std::size_t buckets,
              Stream& rng) {
    const std::size_t m = runtime.size();
    for (int s = 0; s < 16; ++s) {
      const std::size_t a = rng.Below(m);
      std::size_t b = rng.Below(m - 1);
      if (b >= a) ++b;
      if (!runtime.agent(a).active() || !runtime.agent(b).active()) continue;
      const dist::GossipView& va = runtime.agent(a).view();
      const std::vector<std::uint16_t> digest_b =
          runtime.agent(b).view().PackDigest(buckets);
      std::vector<std::uint16_t> digest_a;
      digest_us.push_back(TimeUs([&] { digest_a = va.PackDigest(buckets); }));
      std::vector<double> payload;
      newer_us.push_back(
          TimeUs([&] { payload = va.PackEntriesNewerThan(digest_b); }));
      dist::GossipView copy = runtime.agent(b).view();
      merge_us.push_back(TimeUs([&] { copy.MergeEntries(payload); }));
    }
  }
};

/// Sums the runtime's pdes.wall lanes: per-shard dispatch busy time and
/// the barrier stall recorded beside it.
void PdesWall(const std::string& trace_json, double* busy_s,
              double* stall_s) {
  const delaylb::util::JsonValue doc =
      delaylb::util::JsonValue::Parse(trace_json);
  double busy_us = 0.0;
  double stall_us = 0.0;
  for (const delaylb::util::JsonValue& event :
       doc.At("traceEvents").AsArray()) {
    const delaylb::util::JsonValue* cat = event.Find("cat");
    const delaylb::util::JsonValue* name = event.Find("name");
    if (cat == nullptr || name == nullptr || !cat->IsString() ||
        cat->AsString() != "pdes.wall" || name->AsString() != "dispatch") {
      continue;
    }
    busy_us += event.GetNumber("dur", 0.0);
    if (const delaylb::util::JsonValue* args = event.Find("args")) {
      stall_us += args->GetNumber("stall_us", 0.0);
    }
  }
  *busy_s = busy_us * 1e-6;
  *stall_s = stall_us * 1e-6;
}

SolveResult SolveDistributed(const WorkloadSpec& spec,
                             const core::Instance& instance,
                             const std::vector<std::size_t>& perm,
                             std::uint64_t seed,
                             const SolveOptions& options) {
  SolveResult out;
  Spans* spans = options.spans;
  const SpanScope solve_span(spans, "solve", -1);
  std::unique_ptr<obs::Hub> hub = MakeHub(options);
  const std::size_t m = instance.size();

  dist::RuntimeOptions runtime_options;
  runtime_options.seed = seed;
  runtime_options.shards = options.shards;
  runtime_options.threads = 1;  // see PinToOneCpu in main.cpp
  runtime_options.obs = hub.get();
  if (spec.churn_share > 0.0) runtime_options.initial_members.assign(m, 1);
  std::unique_ptr<dist::DistributedRuntime> runtime;
  {
    const SpanScope span(spans, "construct", solve_span.id());
    runtime = ConstructTimed(
        [&](bool keep) {
          dist::RuntimeOptions o = runtime_options;
          if (!keep) o.obs = nullptr;
          return std::make_unique<dist::DistributedRuntime>(instance, o);
        },
        &out.construct_s);
  }

  // The drain-and-rejoin wave, on every stride-th server of the base
  // labelling (the same physical servers for every seed).
  double restored_at = 0.0;
  if (spec.churn_share > 0.0) {
    const std::size_t churners = std::max<std::size_t>(
        1, static_cast<std::size_t>(spec.churn_share * static_cast<double>(m)));
    const std::size_t stride = std::max<std::size_t>(1, m / churners);
    std::vector<std::size_t> ids;
    for (std::size_t i = 3 % stride; i < m && ids.size() < churners;
         i += stride) {
      ids.push_back(i);
    }
    // Leaves are scheduled before joins, so no join picks a leaver as its
    // bootstrap seed (seeds are chosen in schedule order).
    const auto offset = [&](std::size_t k) {
      return spec.wave_ms * static_cast<double>(k) /
             static_cast<double>(ids.size());
    };
    for (std::size_t k = 0; k < ids.size(); ++k) {
      runtime->ScheduleLeave(perm[ids[k]], spec.leave_at + offset(k));
    }
    for (std::size_t k = 0; k < ids.size(); ++k) {
      runtime->ScheduleJoin(perm[ids[k]], spec.join_at + offset(k));
    }
    restored_at = spec.join_at + spec.wave_ms;
  }

  const double target = (1.0 + spec.gap) * options.lb_ref;
  const double balance_period = runtime_options.agent.balance_period;
  Meter meter;
  Stream sample_rng(seed ^ 0x6055u);
  GossipSamples gossip;
  std::vector<double> r(m * m);
  bool reached = false;
  std::size_t checkpoints = 0;
  for (double t = spec.checkpoint_ms; t <= spec.cap + 1e-9;
       t += spec.checkpoint_ms) {
    {
      const SpanScope span(spans, "RunUntil", solve_span.id());
      meter.Start();
      runtime->RunUntil(t);
      meter.Stop();
    }
    ++checkpoints;
    if (t < restored_at || runtime->network().members() != m) continue;
    const SpanScope span(spans, "evaluate", solve_span.id());
    for (std::size_t j = 0; j < m; ++j) {
      const std::span<const double> column = runtime->agent(j).column();
      for (std::size_t k = 0; k < m; ++k) r[k * m + j] = column[k];
    }
    const double program_cost = runtime->ColumnTotalCost();
    const double raw_cost = SumC(instance, r);
    if (!(std::fabs(raw_cost - program_cost) <= kRelTol * raw_cost)) {
      out.failure =
          Format("SumC %.17g disagrees with the runtime's %.17g", raw_cost,
                 program_cost);
      out.incorrect = true;
      return out;
    }
    if (runtime->UncommittedExchanges() == 0) {
      // No transfer on the wire: the raw columns must conserve every
      // organization's demand exactly.
      const std::string violation = CheckFeasible(instance, r, kRelTol);
      if (!violation.empty()) {
        out.failure = "quiescent checkpoint: " + violation;
        out.incorrect = true;
        return out;
      }
      ++out.quiescent_checks;
    }
    out.repair_share = RepairRows(instance, r) / instance.total_load();
    out.sumc = SumC(instance, r);
    out.sim_ms = t;
    if (spans != nullptr && checkpoints % 5 == 0) {
      const SpanScope sample(spans, "sample.gossip", span.id());
      gossip.Sample(*runtime, runtime_options.agent.digest_buckets,
                    sample_rng);
    }
    if (out.sumc <= target) {
      reached = true;
      break;
    }
  }
  out.time_to_target_s = meter.wall();
  out.cpu_s_to_target = meter.cpu();
  out.iterations = out.sim_ms / balance_period;
  const dist::RuntimeSnapshot snap = runtime->LightSnapshot();
  out.wire_mb = static_cast<double>(snap.bytes_sent) / kMiB;
  char fp[128];
  std::snprintf(fp, sizeof fp, "%llu/%llu/%.17g",
                static_cast<unsigned long long>(runtime->events_dispatched()),
                static_cast<unsigned long long>(snap.bytes_sent),
                snap.total_cost);
  out.fingerprint = fp;
  if (!Judge(instance, r, reached, target, options.lb_ref, out)) return out;
  if (spans == nullptr) return out;

  // Per-layer figures at the target checkpoint.
  std::map<std::string, double>& layers = out.layers;
  const obs::MetricRegistry& metrics = hub->metrics();
  const auto counter = [&metrics](const char* name) {
    return static_cast<double>(metrics.CounterValue(name));
  };
  // Histogram means, not quantiles: the hub's quantiles have bucket
  // resolution and read the same bucket bound on every run, while its
  // fixed-point sums make the mean exact.
  const auto mean = [&metrics](const char* name) {
    return metrics.Has(name) ? metrics.Histogram(name).Mean() : 0.0;
  };
  const double completed = counter("handshake.completed");
  const double no_gain = counter("handshake.no_gain");
  const double rejected =
      counter("handshake.abort.busy") + counter("handshake.abort.stale") +
      counter("handshake.bounce") + counter("handshake.timeout");
  const double attempted = completed + no_gain + rejected;
  layers["handshake.completed"] = completed;
  layers["handshake.rejected"] = rejected;
  layers["handshake.no_gain"] = no_gain;
  layers["handshake.yield"] = attempted > 0.0 ? completed / attempted : 0.0;
  layers["handshake.latency_mean_ms"] = mean("handshake.latency.completed");
  // Every Request that was answered ran Algorithm 1 at the responder.
  layers["core.balances"] = completed + no_gain;

  double pushes = 0.0;
  double adopted = 0.0;
  double entries = 0.0;
  for (std::size_t id = 0; id < m; ++id) {
    const dist::Agent& agent = runtime->agent(id);
    pushes += static_cast<double>(agent.stats().gossip_rounds);
    adopted += static_cast<double>(agent.stats().gossip_adopted);
    entries += static_cast<double>(agent.view().entries());
  }
  layers["gossip.rounds"] = counter("gossip.rounds");
  layers["gossip.adopted"] = adopted;
  layers["gossip.adoption_yield_mean"] = mean("gossip.adoption_yield");
  layers["gossip.staleness_age_mean_ms"] = mean("gossip.staleness_age");
  layers["gossip.view_entries"] = entries / static_cast<double>(m);
  {
    const SpanScope sample(spans, "sample.gossip", solve_span.id());
    gossip.Sample(*runtime, runtime_options.agent.digest_buckets, sample_rng);
  }
  const double digest_us = Median(gossip.digest_us);
  const double newer_us = Median(gossip.newer_us);
  const double merge_us = Median(gossip.merge_us);
  layers["gossip.pack_digest_us"] = digest_us;
  layers["gossip.pack_entries_newer_us"] = newer_us;
  layers["gossip.merge_entries_us"] = merge_us;
  // A gossip push costs two digests, two entry packs and two merges (push,
  // pull, closing delta); a balance Request one digest; a Reply one entry
  // pack and one merge (the piggybacked view).
  layers["gossip.est_cpu_s"] =
      1e-6 * ((2.0 * pushes + attempted) * digest_us +
              (2.0 * pushes + completed) * (newer_us + merge_us));

  layers["network.messages_sent"] = static_cast<double>(snap.messages_sent);
  layers["network.messages_dropped"] =
      static_cast<double>(snap.messages_dropped);
  layers["network.gossip_MB"] = static_cast<double>(snap.bytes_gossip) / kMiB;
  layers["network.column_MB"] = static_cast<double>(snap.bytes_column) / kMiB;
  layers["network.control_MB"] =
      static_cast<double>(snap.bytes_control) / kMiB;
  layers["network.membership_MB"] =
      static_cast<double>(snap.bytes_membership) / kMiB;
  layers["membership.drains"] = counter("membership.departures");
  layers["membership.joins"] = counter("membership.joins");
  layers["membership.join_fallbacks"] = counter("membership.join_fallbacks");

  layers["pdes.events"] = static_cast<double>(runtime->events_dispatched());
  layers["pdes.windows"] = static_cast<double>(runtime->windows());
  layers["pdes.events_per_window_mean"] = mean("pdes.window_events");
  out.hub_trace = hub->TraceJson();
  PdesWall(out.hub_trace, &layers["pdes.busy_s"], &layers["pdes.stall_s"]);

  layers["sim_ms_to_target"] = out.sim_ms;
  layers["wire_MB_to_target"] = out.wire_mb;
  layers["setup.construct_s"] = out.construct_s;
  {
    const SpanScope sample(spans, "sample.balance_columns", solve_span.id());
    const core::Allocation alloc(instance, r);
    layers["core.balance_columns_us"] =
        SampleBalanceColumnsUs(instance, alloc, seed);
  }
  return out;
}

}  // namespace

SolveResult Solve(const WorkloadSpec& spec, const core::Instance& instance,
                  const std::vector<std::size_t>& perm, std::uint64_t seed,
                  const SolveOptions& options) {
  return spec.distributed
             ? SolveDistributed(spec, instance, perm, seed, options)
                          : SolveCentral(spec, instance, seed, options);
}

}  // namespace perfbench
