#include "certify.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace perfbench {

using delaylb::core::Instance;

namespace {

std::vector<long double> Loads(std::size_t m, std::span<const double> r) {
  std::vector<long double> loads(m, 0.0L);
  for (std::size_t i = 0; i < m; ++i) {
    const double* row = r.data() + i * m;
    for (std::size_t j = 0; j < m; ++j) loads[j] += row[j];
  }
  return loads;
}

}  // namespace

double SumC(const Instance& instance, std::span<const double> r) {
  const std::size_t m = instance.size();
  const std::vector<long double> loads = Loads(m, r);
  long double total = 0.0L;
  for (std::size_t j = 0; j < m; ++j) {
    total += loads[j] * loads[j] / (2.0L * instance.speed(j));
  }
  for (std::size_t i = 0; i < m; ++i) {
    const double* row = r.data() + i * m;
    for (std::size_t j = 0; j < m; ++j) {
      if (row[j] != 0.0) {
        total += static_cast<long double>(instance.latency(i, j)) * row[j];
      }
    }
  }
  return static_cast<double>(total);
}

double DualityBound(const Instance& instance, std::span<const double> r) {
  const std::size_t m = instance.size();
  const std::vector<long double> loads = Loads(m, r);
  std::vector<long double> marginal(m);
  long double cost = 0.0L;
  for (std::size_t j = 0; j < m; ++j) {
    marginal[j] = loads[j] / instance.speed(j);
    cost += loads[j] * loads[j] / (2.0L * instance.speed(j));
  }
  long double gap = 0.0L;
  for (std::size_t i = 0; i < m; ++i) {
    const double* row = r.data() + i * m;
    long double used = 0.0L;
    long double best = std::numeric_limits<long double>::infinity();
    for (std::size_t j = 0; j < m; ++j) {
      const double c = instance.latency(i, j);
      if (!std::isfinite(c)) continue;
      const long double g = marginal[j] + c;
      best = std::min(best, g);
      if (row[j] != 0.0) {
        used += g * row[j];
        cost += static_cast<long double>(c) * row[j];
      }
    }
    gap += used - instance.load(i) * best;
  }
  return static_cast<double>(cost - gap);
}

double RepairRows(const Instance& instance, std::vector<double>& r) {
  const std::size_t m = instance.size();
  double moved = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    double* row = r.data() + i * m;
    long double sum = 0.0L;
    for (std::size_t j = 0; j < m; ++j) sum += row[j];
    const double n = instance.load(i);
    const double held = static_cast<double>(sum);
    if (held > n) {
      const double scale = n / held;
      for (std::size_t j = 0; j < m; ++j) row[j] *= scale;
      moved += held - n;
    } else if (held < n) {
      row[i] += n - held;
      moved += n - held;
    }
  }
  return moved;
}

std::string CheckFeasible(const Instance& instance,
                          std::span<const double> r, double rel_tol) {
  const std::size_t m = instance.size();
  char buf[160];
  for (std::size_t i = 0; i < m; ++i) {
    const double* row = r.data() + i * m;
    long double sum = 0.0L;
    for (std::size_t j = 0; j < m; ++j) {
      if (!(row[j] >= 0.0)) {
        std::snprintf(buf, sizeof buf, "negative entry r[%zu][%zu] = %.17g",
                      i, j, row[j]);
        return buf;
      }
      if (row[j] > 0.0 && !std::isfinite(instance.latency(i, j))) {
        std::snprintf(buf, sizeof buf,
                      "mass %.17g on barred pair (%zu, %zu)", row[j], i, j);
        return buf;
      }
      sum += row[j];
    }
    const double n = instance.load(i);
    if (std::fabs(static_cast<double>(sum) - n) >
        rel_tol * std::max(1.0, n)) {
      std::snprintf(buf, sizeof buf, "row %zu sums to %.17g, n_i = %.17g", i,
                    static_cast<double>(sum), n);
      return buf;
    }
  }
  return "";
}

}  // namespace perfbench
