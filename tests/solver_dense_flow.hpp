// Dense views of the transportation solver's sparse optimum, for tests that
// read or pass flows cell by cell.
#pragma once

#include <cstddef>
#include <vector>

#include "solver/transportation.hpp"

namespace dust::solver {

/// The result's flows as a row-major grid of `cells` cells (all zero unless
/// the result is optimal).
inline std::vector<double> dense_flow(const TransportationResult& r,
                                      std::size_t cells) {
  std::vector<double> flow(cells, 0.0);
  for (const TransportationCell& c : r.cells) flow.at(c.index) = c.flow;
  return flow;
}

/// Every cell of a row-major grid with its value, as a start hint (the
/// solver passes over the cells whose value is not above 1e-9).
inline std::vector<TransportationCell> hint_cells(const std::vector<double>& grid) {
  std::vector<TransportationCell> cells;
  for (std::size_t cell = 0; cell < grid.size(); ++cell)
    cells.push_back({cell, grid[cell]});
  return cells;
}

}  // namespace dust::solver
