#include "check/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "obs/metrics.hpp"

namespace dust::check {

using solver::kInfinity;
using solver::Status;

namespace {

// Internal standard form:
//   minimize c'y   s.t.  A y (sense) b,  y >= 0
// Structural model variables map onto y via shift (finite lower bound),
// mirror (upper bound only), or a plus/minus pair (free).
struct ColumnMap {
  enum class Kind { kShift, kMirror, kFreePlus } kind = Kind::kShift;
  std::size_t var = 0;      // model variable index
  double offset = 0.0;      // x = offset + y (shift) or x = offset - y (mirror)
};

struct StandardForm {
  std::size_t n = 0;  // structural columns
  std::vector<ColumnMap> columns;
  std::vector<double> cost;                 // length n
  double cost_constant = 0.0;               // from bound shifting
  std::vector<std::vector<double>> rows;    // dense, length n each
  std::vector<double> rhs;
  std::vector<Sense> sense;
};

StandardForm build_standard_form(const LinearProgram& lp) {
  StandardForm sf;
  // Column mapping per model variable; free variables get two columns.
  std::vector<std::size_t> first_col(lp.variable_count());
  for (std::size_t v = 0; v < lp.variable_count(); ++v) {
    const Variable& var = lp.variable(v);
    first_col[v] = sf.columns.size();
    if (var.lower != -kInfinity) {
      sf.columns.push_back({ColumnMap::Kind::kShift, v, var.lower});
    } else if (var.upper != kInfinity) {
      sf.columns.push_back({ColumnMap::Kind::kMirror, v, var.upper});
    } else {
      sf.columns.push_back({ColumnMap::Kind::kFreePlus, v, 0.0});
      sf.columns.push_back({ColumnMap::Kind::kFreePlus, v, 0.0});  // minus half
    }
  }
  sf.n = sf.columns.size();
  sf.cost.assign(sf.n, 0.0);
  for (std::size_t v = 0; v < lp.variable_count(); ++v) {
    const Variable& var = lp.variable(v);
    const std::size_t col = first_col[v];
    switch (sf.columns[col].kind) {
      case ColumnMap::Kind::kShift:
        sf.cost[col] = var.objective;
        sf.cost_constant += var.objective * var.lower;
        break;
      case ColumnMap::Kind::kMirror:
        sf.cost[col] = -var.objective;
        sf.cost_constant += var.objective * var.upper;
        break;
      case ColumnMap::Kind::kFreePlus:
        sf.cost[col] = var.objective;
        sf.cost[col + 1] = -var.objective;
        break;
    }
  }
  auto add_row = [&](Sense sense, double rhs) -> std::vector<double>& {
    sf.rows.emplace_back(sf.n, 0.0);
    sf.sense.push_back(sense);
    sf.rhs.push_back(rhs);
    return sf.rows.back();
  };
  auto accumulate = [&](std::vector<double>& row, std::size_t v, double coeff,
                        double& rhs) {
    const std::size_t col = first_col[v];
    switch (sf.columns[col].kind) {
      case ColumnMap::Kind::kShift:
        row[col] += coeff;
        rhs -= coeff * sf.columns[col].offset;
        break;
      case ColumnMap::Kind::kMirror:
        row[col] -= coeff;
        rhs -= coeff * sf.columns[col].offset;
        break;
      case ColumnMap::Kind::kFreePlus:
        row[col] += coeff;
        row[col + 1] -= coeff;
        break;
    }
  };
  for (const Constraint& con : lp.constraints()) {
    auto& row = add_row(con.sense, con.rhs);
    for (const auto& [v, coeff] : con.terms)
      accumulate(row, v, coeff, sf.rhs.back());
  }
  // Finite upper bounds on shifted variables become y <= u - l rows.
  for (std::size_t v = 0; v < lp.variable_count(); ++v) {
    const Variable& var = lp.variable(v);
    const std::size_t col = first_col[v];
    if (sf.columns[col].kind == ColumnMap::Kind::kShift &&
        var.upper != kInfinity && var.upper > var.lower) {
      auto& row = add_row(Sense::kLessEqual, var.upper - var.lower);
      row[col] = 1.0;
    }
    if (sf.columns[col].kind == ColumnMap::Kind::kShift && var.upper == var.lower) {
      // Fixed variable: y == 0 is implied by y >= 0 and y <= 0.
      auto& row = add_row(Sense::kLessEqual, 0.0);
      row[col] = 1.0;
    }
    if (sf.columns[col].kind == ColumnMap::Kind::kMirror &&
        var.lower == -kInfinity) {
      // y >= 0 encodes x <= upper; no extra row needed.
    }
  }
  return sf;
}

/// Dense tableau with basis bookkeeping.
class Tableau {
 public:
  Tableau(const StandardForm& sf, const SimplexOptions& options)
      : options_(options), n_structural_(sf.n) {
    const std::size_t m = sf.rows.size();
    // Column layout: [structural | slack/surplus | artificial | rhs]
    std::size_t slack_count = 0;
    for (Sense s : sf.sense)
      if (s != Sense::kEqual) ++slack_count;
    // Count artificials: rows with >= (after normalization) or = sense, plus
    // <= rows whose slack would start negative (rhs < 0 handled by row flip).
    std::vector<double> rhs = sf.rhs;
    std::vector<Sense> sense = sf.sense;
    std::vector<std::vector<double>> rows = sf.rows;
    for (std::size_t r = 0; r < m; ++r) {
      if (rhs[r] < 0) {
        for (double& a : rows[r]) a = -a;
        rhs[r] = -rhs[r];
        if (sense[r] == Sense::kLessEqual) sense[r] = Sense::kGreaterEqual;
        else if (sense[r] == Sense::kGreaterEqual) sense[r] = Sense::kLessEqual;
      }
    }
    std::size_t artificial_count = 0;
    for (Sense s : sense)
      if (s != Sense::kLessEqual) ++artificial_count;

    cols_ = n_structural_ + slack_count + artificial_count;
    width_ = cols_ + 1;  // + rhs
    data_.assign(m * width_, 0.0);
    basis_.assign(m, 0);
    artificial_start_ = n_structural_ + slack_count;

    std::size_t next_slack = n_structural_;
    std::size_t next_artificial = artificial_start_;
    for (std::size_t r = 0; r < m; ++r) {
      double* row = data_.data() + r * width_;
      std::copy(rows[r].begin(), rows[r].end(), row);
      row[cols_] = rhs[r];
      switch (sense[r]) {
        case Sense::kLessEqual:
          row[next_slack] = 1.0;
          basis_[r] = next_slack++;
          break;
        case Sense::kGreaterEqual:
          row[next_slack] = -1.0;
          ++next_slack;
          row[next_artificial] = 1.0;
          basis_[r] = next_artificial++;
          break;
        case Sense::kEqual:
          row[next_artificial] = 1.0;
          basis_[r] = next_artificial++;
          break;
      }
    }
    rows_ = m;
  }

  /// Minimize `cost` (length cols_, zero-padded) starting from current basis.
  /// Returns status; `phase1` marks the artificial-elimination phase.
  Status run(const std::vector<double>& cost, std::size_t max_iterations) {
    // Build the reduced-cost row: z_row = cost - sum over basis rows.
    z_.assign(width_, 0.0);
    std::copy(cost.begin(), cost.end(), z_.begin());
    for (std::size_t r = 0; r < rows_; ++r) {
      const double basis_cost = cost[basis_[r]];
      if (basis_cost == 0.0) continue;
      const double* row = data_.data() + r * width_;
      for (std::size_t c = 0; c < width_; ++c) z_[c] -= basis_cost * row[c];
    }
    const double eps = options_.tolerance;
    std::size_t degenerate_streak = 0;
    bool bland = false;
    for (std::size_t iter = 0; iter < max_iterations; ++iter) {
      // Entering column.
      std::size_t entering = cols_;
      if (bland) {
        for (std::size_t c = 0; c < cols_; ++c) {
          if (z_[c] < -eps && !column_blocked(c)) {
            entering = c;
            break;
          }
        }
      } else {
        double best = -eps;
        for (std::size_t c = 0; c < cols_; ++c) {
          if (z_[c] < best && !column_blocked(c)) {
            best = z_[c];
            entering = c;
          }
        }
      }
      if (entering == cols_) {
        iterations_ += iter;
        return Status::kOptimal;
      }
      // Ratio test.
      std::size_t leaving = rows_;
      double best_ratio = kInfinity;
      for (std::size_t r = 0; r < rows_; ++r) {
        const double a = data_[r * width_ + entering];
        if (a <= eps) continue;
        const double ratio = data_[r * width_ + cols_] / a;
        if (ratio < best_ratio - eps ||
            (ratio < best_ratio + eps &&
             (leaving == rows_ || basis_[r] < basis_[leaving]))) {
          best_ratio = ratio;
          leaving = r;
        }
      }
      if (leaving == rows_) {
        iterations_ += iter;
        return Status::kUnbounded;
      }
      if (best_ratio < eps) {
        if (++degenerate_streak >= options_.degenerate_streak_limit) bland = true;
      } else {
        degenerate_streak = 0;
      }
      pivot(leaving, entering);
    }
    iterations_ += max_iterations;
    return Status::kIterationLimit;
  }

  /// Block artificial columns from re-entering (used in phase 2).
  void block_artificials() { artificials_blocked_ = true; }

  /// Drive any artificial variables still basic (at zero) out of the basis.
  void purge_artificial_basis(double eps) {
    for (std::size_t r = 0; r < rows_; ++r) {
      if (basis_[r] < artificial_start_) continue;
      // Find a non-artificial column with nonzero coefficient in this row.
      std::size_t replacement = cols_;
      for (std::size_t c = 0; c < artificial_start_; ++c) {
        if (std::abs(data_[r * width_ + c]) > eps) {
          replacement = c;
          break;
        }
      }
      if (replacement != cols_) pivot(r, replacement);
      // Otherwise the row is redundant (all-zero over structurals); harmless.
    }
  }

  [[nodiscard]] double phase1_objective() const {
    double total = 0.0;
    for (std::size_t r = 0; r < rows_; ++r)
      if (basis_[r] >= artificial_start_) total += data_[r * width_ + cols_];
    return total;
  }

  [[nodiscard]] std::vector<double> structural_values() const {
    std::vector<double> y(n_structural_, 0.0);
    for (std::size_t r = 0; r < rows_; ++r)
      if (basis_[r] < n_structural_)
        y[basis_[r]] = data_[r * width_ + cols_];
    return y;
  }

  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t iterations() const noexcept { return iterations_; }
  [[nodiscard]] std::size_t artificial_start() const noexcept {
    return artificial_start_;
  }

 private:
  [[nodiscard]] bool column_blocked(std::size_t c) const noexcept {
    return artificials_blocked_ && c >= artificial_start_;
  }

  void pivot(std::size_t leaving, std::size_t entering) {
    double* prow = data_.data() + leaving * width_;
    const double inv = 1.0 / prow[entering];
    for (std::size_t c = 0; c < width_; ++c) prow[c] *= inv;
    prow[entering] = 1.0;  // exact
    for (std::size_t r = 0; r < rows_; ++r) {
      if (r == leaving) continue;
      double* row = data_.data() + r * width_;
      const double factor = row[entering];
      if (factor == 0.0) continue;
      for (std::size_t c = 0; c < width_; ++c) row[c] -= factor * prow[c];
      row[entering] = 0.0;  // exact
    }
    const double zfactor = z_[entering];
    if (zfactor != 0.0) {
      for (std::size_t c = 0; c < width_; ++c) z_[c] -= zfactor * prow[c];
      z_[entering] = 0.0;
    }
    basis_[leaving] = entering;
  }

  SimplexOptions options_;
  std::size_t n_structural_;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t width_ = 0;
  std::size_t artificial_start_ = 0;
  bool artificials_blocked_ = false;
  std::vector<double> data_;
  std::vector<double> z_;
  std::vector<std::size_t> basis_;
  std::size_t iterations_ = 0;
};

}  // namespace

namespace {

// Handles resolved once (thread-safe magic static); the per-solve cost is a
// few relaxed atomics, so the microbenches over solve_simplex stay honest.
struct SimplexMetrics {
  obs::Counter& solves;
  obs::Histogram& iterations;
  static SimplexMetrics& get() {
    static SimplexMetrics metrics{
        obs::MetricRegistry::global().counter(
            "dust_solver_simplex_solves_total"),
        obs::MetricRegistry::global().histogram(
            "dust_solver_simplex_iterations")};
    return metrics;
  }
};

Solution solve_simplex_impl(const LinearProgram& lp,
                            const SimplexOptions& options) {
  Solution solution;
  const StandardForm sf = build_standard_form(lp);

  // Trivial case: no constraints — optimum at bounds (or unbounded).
  Tableau tableau(sf, options);
  const std::size_t max_iterations =
      options.max_iterations
          ? options.max_iterations
          : 200 * (sf.rows.size() + tableau.cols()) + 5000;

  // Phase 1: minimize sum of artificials.
  {
    std::vector<double> phase1_cost(tableau.cols(), 0.0);
    for (std::size_t c = tableau.artificial_start(); c < tableau.cols(); ++c)
      phase1_cost[c] = 1.0;
    const Status status = tableau.run(phase1_cost, max_iterations);
    if (status == Status::kIterationLimit) {
      solution.status = status;
      solution.iterations = tableau.iterations();
      return solution;
    }
    if (tableau.phase1_objective() > 1e-6) {
      solution.status = Status::kInfeasible;
      solution.iterations = tableau.iterations();
      return solution;
    }
    tableau.purge_artificial_basis(options.tolerance);
    tableau.block_artificials();
  }

  // Phase 2: original objective over standard-form columns.
  std::vector<double> phase2_cost(tableau.cols(), 0.0);
  std::copy(sf.cost.begin(), sf.cost.end(), phase2_cost.begin());
  const Status status = tableau.run(phase2_cost, max_iterations);
  solution.iterations = tableau.iterations();
  if (status != Status::kOptimal) {
    solution.status = status;
    return solution;
  }

  // Map standard-form values back to model variables.
  const std::vector<double> y = tableau.structural_values();
  solution.values.assign(lp.variable_count(), 0.0);
  for (std::size_t c = 0; c < sf.columns.size(); ++c) {
    const ColumnMap& map = sf.columns[c];
    switch (map.kind) {
      case ColumnMap::Kind::kShift:
        solution.values[map.var] = map.offset + y[c];
        break;
      case ColumnMap::Kind::kMirror:
        solution.values[map.var] = map.offset - y[c];
        break;
      case ColumnMap::Kind::kFreePlus:
        // Plus column; the paired minus column immediately follows and its
        // handler below subtracts. Add here:
        solution.values[map.var] += y[c];
        // Look ahead: subtract the minus half exactly once.
        solution.values[map.var] -= y[c + 1];
        ++c;  // skip the minus column
        break;
    }
  }
  solution.objective = lp.objective_value(solution.values);
  solution.status = Status::kOptimal;
  return solution;
}

}  // namespace

Solution solve_simplex(const LinearProgram& lp, const SimplexOptions& options) {
  Solution solution = solve_simplex_impl(lp, options);
  SimplexMetrics& metrics = SimplexMetrics::get();
  metrics.solves.inc();
  metrics.iterations.observe(static_cast<double>(solution.iterations));
  return solution;
}

}  // namespace dust::check
