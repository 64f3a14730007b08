// Differential test for the transportation simplex across pivot-rule
// changes. tests/golden/transportation_differential.expected holds the
// status and objective of every solve of the eleven digest families, recorded
// from the lower-bounded Dantzig pricing with the std::sort start. Any
// pivot rule may reach a different optimal basis at a degenerate optimum,
// so flows and pivot counts are free to move; the status may not, and the
// objective must agree to 1e-12 relative.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "solver/transportation.hpp"
#include "solver_transportation_families.hpp"

namespace dust::solver {
namespace {

struct Recorded {
  std::string family;
  std::size_t index = 0;
  int status = 0;
  double objective = 0.0;
};

std::vector<Recorded> load_recorded() {
  std::ifstream in(DUST_SOURCE_DIR
                   "/tests/golden/transportation_differential.expected");
  std::vector<Recorded> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    Recorded row;
    std::string objective;
    fields >> row.family >> row.index >> row.status >> objective;
    row.objective = std::strtod(objective.c_str(), nullptr);
    rows.push_back(row);
  }
  return rows;
}

TEST(TransportationDifferential, StatusAndObjectiveMatchRecorded) {
  const std::vector<Recorded> rows = load_recorded();
  ASSERT_EQ(rows.size(), 1253u) << "missing or truncated golden file";
  std::size_t next = 0;
  for (const families::Family& family : families::kAll) {
    std::size_t index = 0;
    family.run([&](const TransportationProblem&,
                   const TransportationResult& r) {
      ASSERT_LT(next, rows.size());
      const Recorded& want = rows[next++];
      ASSERT_EQ(want.family, family.name);
      ASSERT_EQ(want.index, index);
      EXPECT_EQ(static_cast<int>(r.status), want.status)
          << family.name << " solve " << index;
      EXPECT_LE(std::abs(r.objective - want.objective),
                1e-12 * std::abs(want.objective))
          << family.name << " solve " << index << ": " << r.objective
          << " vs recorded " << want.objective;
      ++index;
    });
  }
  EXPECT_EQ(next, rows.size());
}

}  // namespace
}  // namespace dust::solver
