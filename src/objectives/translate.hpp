// Translation of management objectives into MaxSMT soft constraints (§7.2).
//
// Each objective (after GROUPBY desugaring) becomes one weighted soft
// constraint over the delta variables selected by its XPath expression:
//   NOMODIFY  — negation of the disjunction of the selected deltas;
//   ELIMINATE — conjunction of negated add deltas and non-negated remove
//               deltas;
//   EQUATE    — equality of the delta (and action-value) variables at
//               corresponding positions across the subtrees of the group.
#pragma once

#include <string>
#include <vector>

#include "encode/encoder.hpp"
#include "objectives/objective.hpp"

namespace aed {

/// The labels of the desugared objectives over `sketch`, in the order
/// addObjectives() registers them: one per GROUPBY value an objective
/// selects, or one "<label> [no matches]" when it selects no delta. Needs no
/// solver, so a caller that already knows the answer can report it.
std::vector<std::string> objectiveLabels(
    const Sketch& sketch, const std::vector<Objective>& objectives);

/// Adds one soft constraint per desugared objective to the encoder's
/// session, named as objectiveLabels() names it; check() reports each
/// label as satisfied or violated.
void addObjectives(Encoder& encoder, const std::vector<Objective>& objectives);

/// The default change-minimality pressure: one unit-weight soft constraint
/// per delta preferring it inactive. This doubles as the paper's `min-lines`
/// objective (every active delta is one added/removed configuration line),
/// and it keeps the solver from inventing gratuitous changes when an
/// operator supplies few or no objectives.
void addPerDeltaMinimality(Encoder& encoder);

}  // namespace aed
