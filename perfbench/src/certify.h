#pragma once
// The benchmark's own view of a solution, computed apart from the
// program: SumC, the Frank-Wolfe duality lower bound, the row-sum repair
// applied to mid-run distributed checkpoints, and the feasibility checks.
// All take a dense row-major r matrix (r[i * m + j] = requests of
// organization i served by server j).

#include <span>
#include <string>
#include <vector>

#include "core/instance.h"

namespace perfbench {

/// SumC = sum_j l_j^2 / (2 s_j) + sum_ij c_ij r_ij, with the loads l_j
/// recomputed from the matrix (long-double accumulation). Infinite when
/// mass sits on a barred pair.
double SumC(const delaylb::core::Instance& instance,
            std::span<const double> r);

/// Frank-Wolfe duality bound: with g_ij = l_j / s_j + c_ij (the gradient
/// of SumC in r_ij),
///   LB = SumC(x) - sum_i (sum_j g_ij r_ij - n_i min_{j reachable} g_ij).
/// Valid for every feasible x by convexity; tight as x nears the optimum.
double DualityBound(const delaylb::core::Instance& instance,
                    std::span<const double> r);

/// Makes every row sum to n_i: a row holding too much is scaled down, a
/// row holding too little gets the deficit on the organization's own
/// server. Returns the total mass moved (excess + deficit).
double RepairRows(const delaylb::core::Instance& instance,
                  std::vector<double>& r);

/// Row sums equal n_i within `rel_tol` * max(1, n_i), no negative entry,
/// no mass on a barred pair. Returns "" when all hold, else a description
/// of the first violation.
std::string CheckFeasible(const delaylb::core::Instance& instance,
                          std::span<const double> r, double rel_tol);

}  // namespace perfbench
