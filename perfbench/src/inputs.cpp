#include "inputs.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <numbers>
#include <stdexcept>
#include <utility>

#include "net/latency_matrix.h"

namespace perfbench {

using delaylb::core::Instance;
using delaylb::net::LatencyMatrix;

std::uint64_t Stream::Next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Stream::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Stream::Exponential(double mean) {
  return -mean * std::log1p(-Uniform());
}

double Stream::Normal() {
  const double u1 = 1.0 - Uniform();  // (0, 1]
  const double u2 = Uniform();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

std::size_t Stream::Below(std::size_t n) {
  return static_cast<std::size_t>(Next() % n);
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> out;
    WorkloadSpec central;
    central.name = "central-planetlab";
    central.distributed = false;
    central.topology = Topology::kPlanetLabLike;
    central.m = 256;
    central.instance_seed = 2013;
    central.mean_load = 100.0;
    central.groups = 8;
    central.unreachable = 0.02;
    central.gap = 1e-3;
    central.cap = 200;
    out.push_back(central);

    WorkloadSpec gossip;
    gossip.name = "dist-gossip";
    gossip.distributed = true;
    gossip.topology = Topology::kClustered;
    gossip.m = 300;
    gossip.instance_seed = 1000;
    gossip.mean_load = 120.0;
    gossip.groups = 8;
    gossip.gap = 0.15;
    gossip.cap = 6000.0;
    gossip.checkpoint_ms = 20.0;
    gossip.shards = 1;
    out.push_back(gossip);

    WorkloadSpec churn = gossip;
    churn.name = "dist-churn-sharded";
    churn.m = 300;
    churn.instance_seed = 2000;
    churn.shards = 4;
    churn.gap = 0.20;
    churn.churn_share = 0.10;
    churn.leave_at = 100.0;
    churn.join_at = 500.0;
    churn.wave_ms = 100.0;
    out.push_back(churn);
    return out;
  }();
  return specs;
}

const WorkloadSpec& FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return spec;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

namespace {

LatencyMatrix PlanetLabLike(const WorkloadSpec& spec, Stream& rng) {
  const std::size_t m = spec.m;
  struct Point {
    double x, y;
  };
  std::vector<Point> centres(spec.groups);
  for (Point& c : centres) c = {rng.Uniform(0, 3000), rng.Uniform(0, 3000)};
  std::vector<Point> nodes(m);
  std::vector<double> access(m);
  for (std::size_t i = 0; i < m; ++i) {
    const Point& c = centres[rng.Below(centres.size())];
    nodes[i] = {c.x + 60.0 * rng.Normal(), c.y + 60.0 * rng.Normal()};
    access[i] = rng.Uniform(0.5, 5.0);
  }
  LatencyMatrix lat(m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i + 1; j < m; ++j) {
      const double dist = std::hypot(nodes[i].x - nodes[j].x,
                                     nodes[i].y - nodes[j].y);
      double c = dist / 100.0 + access[i] + access[j];
      c *= 1.0 + 0.10 * std::fabs(rng.Normal());
      if (rng.Uniform() < spec.unreachable) {
        c = std::numeric_limits<double>::infinity();
      }
      lat.SetSymmetric(i, j, c);
    }
  }
  return lat;
}

LatencyMatrix Clustered(const WorkloadSpec& spec, Stream& rng) {
  const std::size_t m = spec.m;
  LatencyMatrix lat(m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i + 1; j < m; ++j) {
      const bool same = (i * spec.groups) / m == (j * spec.groups) / m;
      lat.SetSymmetric(i, j, same ? rng.Uniform(2.0, 8.0)
                                  : rng.Uniform(40.0, 80.0));
    }
  }
  return lat;
}

}  // namespace

Instance MakeBaseInstance(const WorkloadSpec& spec) {
  Stream rng(spec.instance_seed);
  LatencyMatrix lat = spec.topology == Topology::kPlanetLabLike
                          ? PlanetLabLike(spec, rng)
                          : Clustered(spec, rng);
  std::vector<double> speeds(spec.m), loads(spec.m);
  for (std::size_t i = 0; i < spec.m; ++i) {
    speeds[i] = rng.Uniform(1.0, 5.0);
    loads[i] = rng.Exponential(spec.mean_load);
  }
  return Instance(std::move(speeds), std::move(loads), std::move(lat));
}

std::vector<std::size_t> MakePermutation(std::size_t m, std::uint64_t seed) {
  std::vector<std::size_t> perm(m);
  for (std::size_t i = 0; i < m; ++i) perm[i] = i;
  Stream rng(seed ^ 0x5BD1E9955BD1E995ull);
  for (std::size_t i = m; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.Below(i)]);
  }
  return perm;
}

Instance Permute(const Instance& base, const std::vector<std::size_t>& perm) {
  const std::size_t m = base.size();
  std::vector<double> speeds(m), loads(m), lat(m * m);
  for (std::size_t i = 0; i < m; ++i) {
    speeds[perm[i]] = base.speed(i);
    loads[perm[i]] = base.load(i);
    for (std::size_t j = 0; j < m; ++j) {
      lat[perm[i] * m + perm[j]] = base.latency(i, j);
    }
  }
  return Instance(std::move(speeds), std::move(loads),
                  LatencyMatrix(m, std::move(lat)));
}

std::uint64_t InstanceHash(const Instance& instance) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  auto fold = [&h](double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    h = (h ^ bits) * 0x100000001B3ull;
    h ^= h >> 29;
  };
  fold(static_cast<double>(instance.size()));
  for (const double s : instance.speeds()) fold(s);
  for (const double n : instance.loads()) fold(n);
  for (const double c : instance.latency_matrix().raw()) fold(c);
  return h;
}

std::uint64_t SolveSeed(std::uint64_t seed, std::size_t index) {
  Stream rng(seed * 0x9E3779B97F4A7C15ull + index);
  return rng.Next() >> 1;  // fits the program's signed seed flags too
}

}  // namespace perfbench
