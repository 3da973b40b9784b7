// Fiduccia–Mattheyses 2-way refinement with net pin counting, hill climbing
// and best-prefix rollback. For two parts the connectivity-1 metric equals
// the cut-net weight, which is what the pass optimises.
//
// A vertex's gain is always recomputed from scratch, summing over its nets
// in order, so gains carry no rounding history. A move only recomputes the
// pins of its critical nets, as in classic FM: a pin's term for a net reads
// "count == 1" on its own side and "count == 0" on the other, so when the
// source count A drops by one and the destination count B rises by one,
// only pins still on the source side can change (when A == 2 or B == 0) and
// pins on the destination side (when A == 1 or B == 1). Every other pin
// would recompute to the same bits and push nothing, so the pass makes the
// same moves as recomputing all of them.
//
// The pick is the unlocked vertex of highest (gain, random tie) that the
// balance allows. A move is allowed by weight alone and monotonically (a
// lighter vertex on the same side is allowed whenever a heavier one is), so
// each side keeps its own lazy heap and a side whose lightest vertex may
// not move is not searched.
#pragma once

#include <vector>

#include "hypergraph/hypergraph.h"
#include "util/rng.h"

namespace bsio::hg {

// Target/cap weights of the two sides of a bisection. Uneven targets are
// used when recursive bisection splits K into unequal halves.
struct BisectionConstraint {
  double target0 = 0.0;
  double target1 = 0.0;
  double max0 = 0.0;
  double max1 = 0.0;
};

BisectionConstraint make_constraint(double total_weight, double ratio0,
                                    double epsilon);

// Refines side[] (entries 0/1) in place; returns the resulting cut weight.
double fm_refine(const Hypergraph& h, std::vector<int>& side,
                 const BisectionConstraint& c, Rng& rng, int passes);

}  // namespace bsio::hg
