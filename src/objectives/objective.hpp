// Management-objective language (§7.1).
//
// An objective is a restriction applied to syntax subtrees selected by an
// XPath expression:
//
//   NOMODIFY  //Router[name="B"]
//   NOMODIFY  //Router GROUPBY name WEIGHT 5
//   EQUATE    //PacketFilter GROUPBY name
//   ELIMINATE //RoutingProcess[type="static"]/Origination GROUPBY prefix
//
// GROUPBY is syntactic sugar: it desugars into one objective per distinct
// value of the given attribute on the selected subtree roots. Each
// (desugared) objective becomes one weighted soft constraint (§7.2);
// AED maximizes the total weight of satisfied objectives.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "objectives/xpath.hpp"

namespace aed {

enum class Restriction { kEliminate, kEquate, kNoModify };

struct Objective {
  Restriction restriction = Restriction::kNoModify;
  XPath xpath;
  std::string groupBy;  // attribute name; empty = no grouping
  unsigned weight = 1;
  std::string label;    // the original source text (diagnostics/reports)
};

/// Parses a single objective statement; throws AedError on syntax errors.
Objective parseObjective(std::string_view text);

/// Parses a newline-separated list; '#' starts a comment, blank lines are
/// skipped.
std::vector<Objective> parseObjectives(std::string_view text);

// ---- predefined objective library (Table 2) --------------------------------

/// Keep filters identical across devices sharing them ("preserve packet
/// filter clones"): EQUATE //PacketFilter GROUPBY name and
/// EQUATE //RouteFilter GROUPBY name.
std::vector<Objective> objectivesPreserveTemplates(unsigned weight = 1);

/// Minimize the number of devices changed: NOMODIFY //Router GROUPBY name.
std::vector<Objective> objectivesMinDevices(unsigned weight = 1);

/// Avoid changing the named devices (HW/SW issues):
/// NOMODIFY //Router[name="..."] per router.
std::vector<Objective> objectivesAvoidRouters(
    const std::vector<std::string>& routers, unsigned weight = 1);

/// Avoid static routes:
/// ELIMINATE //RoutingProcess[type="static"]/Origination GROUPBY prefix.
std::vector<Objective> objectivesAvoidStaticRoutes(unsigned weight = 1);

/// Minimize the number of packet filters used (min-pfs):
/// ELIMINATE //PacketFilter GROUPBY name.
std::vector<Objective> objectivesMinPacketFilters(unsigned weight = 1);

/// Avoid route redistribution (feature-usage objective):
/// ELIMINATE //Redistribution GROUPBY from.
std::vector<Objective> objectivesAvoidRedistribution(unsigned weight = 1);

}  // namespace aed
