// Pole geometry shared by the generator and the workloads: the sim reader
// node for a generated pole, its array calibration, and the
// road-parallel antenna pair (the pair ReaderDaemon reports angles on).
#pragma once

#include <cmath>
#include <cstddef>

#include "common/units.hpp"
#include "core/aoa.hpp"
#include "pipeline/generator.hpp"
#include "sim/medium.hpp"

namespace perfbench {

inline caraoke::sim::ReaderNode readerNode(const PoleSpec& pole) {
  caraoke::sim::ReaderNode node;
  node.pole.base = {pole.x, pole.y, 0.0};
  node.pole.heightMeters = pole.heightMeters;
  node.tiltRad = caraoke::deg2rad(pole.tiltDeg);
  return node;
}

inline caraoke::core::ArrayGeometry geometryOf(
    const caraoke::sim::ReaderNode& node) {
  caraoke::core::ArrayGeometry g;
  g.elements = node.array().elements();
  g.pairs = caraoke::sim::TriangleArray::pairs();
  return g;
}

inline std::size_t roadPairOf(const caraoke::core::ArrayGeometry& g) {
  std::size_t best = 0;
  double align = -1.0;
  for (std::size_t p = 0; p < g.pairs.size(); ++p)
    if (std::abs(g.baselineDirection(p).x) > align) {
      align = std::abs(g.baselineDirection(p).x);
      best = p;
    }
  return best;
}

}  // namespace perfbench
