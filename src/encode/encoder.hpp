// SMT encoding of configurations, routing algorithms, and policies.
//
// The Encoder turns (configuration tree, topology, sketch, policies) into a
// system of Z3 constraints over the sketch's delta variables, mirroring the
// paper's §5.2 (configuration constraints), §6.1/Appendix A (algorithmic
// constraints) and §6.2 (policy constraints):
//
//  * protocol parameter variables (procEnabled, adjacency sessions,
//    originations, redistributions, static routes) are constrained by the
//    current configuration and the delta variables;
//  * per (environment, destination class): symbolic route advertisements
//    between adjacent processes, best-route selection per process (highest
//    lp, lowest cost, deterministic name tie-break — identical to the
//    simulator; a metric every candidate carries as one numeral is left
//    out), router-level selection by administrative distance
//    (connected < static < bgp < ospf, the first usable static route
//    winning), controlFwd per directed link, and one distance ranking;
//  * per (environment, traffic class): dataFwd (controlFwd gated by packet
//    filters) and reach, made well-founded by the destination's ranking,
//    and per source onPath with its own ranking (distance variables rule
//    out cyclic self-support);
//  * policies become hard constraints over reach/onPath/dataFwd.
//
// Environments model link failures for path-preference policies: environment
// 0 has every link up; each path-preference policy gets an environment with
// the first primary-path link down.
//
// Split horizon matches the simulator: a process's advertisement to neighbor
// Y is invalid if its best route was chosen from Y.
#pragma once

#include <z3++.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "conftree/patch.hpp"
#include "conftree/tree.hpp"
#include "policy/policy.hpp"
#include "simulate/simulator.hpp"
#include "sketch/sketch.hpp"
#include "smt/session.hpp"
#include "topology/topology.hpp"

namespace aed {

struct EncoderOptions {
  /// §8 optimization 3: restrict new local-preference values to the (2n+1)
  /// rank slots of the currently configured values, encoded with booleans,
  /// instead of a free integer delta.
  bool booleanLp = true;
};

class Encoder {
 public:
  Encoder(SmtSession& session, const ConfigTree& tree, const Topology& topo,
          const Sketch& sketch, EncoderOptions options = {});

  /// Builds all constraints for the policy set. Call exactly once.
  void encode(const PolicySet& policies);

  /// Boolean expression that is true iff the delta is "active" (the
  /// corresponding change is part of the update). Used for the default
  /// minimality soft constraints and by the objective translator.
  z3::expr deltaActive(const DeltaVar& delta);

  /// After a sat check: turns the model's delta assignment into a patch.
  Patch extractPatch() const;

  /// The permit/deny action variable of an add-rule delta (route or packet
  /// filter); used by EQUATE to force clones to receive identical changes.
  z3::expr addAllowVar(const DeltaVar& delta);
  /// The local-preference *value* expression of an lp-modification or bgp
  /// add-rule delta; nullopt for kinds without one.
  std::optional<z3::expr> lpValueExpr(const DeltaVar& delta);

  SmtSession& session() { return session_; }
  const Sketch& sketch() const { return sketch_; }

  /// Encoding statistics for benches.
  std::size_t environmentCount() const { return environments_.size(); }

 private:
  // ---- key types -----------------------------------------------------------

  /// A symbolic route-advertisement / best-route record (§5.1).
  struct Record {
    std::optional<z3::expr> valid;  // Bool
    std::optional<z3::expr> lp;     // Int (BGP only; defaulted for OSPF)
    std::optional<z3::expr> cost;   // Int
  };

  struct ProcRef {
    std::string router;
    std::string type;  // "bgp" | "ospf"
    const Node* node;
    auto operator<=>(const ProcRef&) const = default;
    bool operator==(const ProcRef&) const = default;
  };

  // ---- construction helpers ------------------------------------------------

  void collectStructure();
  void collectLpValues();

  // Configuration-level (environment/class independent) parameter variables.
  z3::expr procEnabled(const std::string& router, const std::string& type);
  /// Whether `router` configures an adjacency towards `peer` in its process
  /// of `type` (current config modulo deltas).
  z3::expr adjConfigured(const std::string& router, const std::string& type,
                         const std::string& peer);

  // Per-destination-class filter action variables on an import edge.
  struct FilterAction {
    z3::expr allow;
    z3::expr lp;
    z3::expr med;
  };
  FilterAction routeFilterAction(const std::string& router,
                                 const std::string& type,
                                 const std::string& peer,
                                 const Ipv4Prefix& dst);

  /// Metric-value expression for a modification / addition site. `current`
  /// is the currently-assigned value, `domain` the distinct configured
  /// values for the (2n+1) boolean encoding (§8 applies it to "cost and
  /// metric" values alike). In integer mode the expression is
  /// current + free-delta (>= 0).
  z3::expr metricExpr(const std::string& stem, int current,
                      const std::vector<int>& domain);
  /// Local-preference instance of metricExpr.
  z3::expr lpExpr(const std::string& stem, int current);
  /// OSPF link-cost instance of metricExpr.
  z3::expr costExpr(const std::string& stem, int current);
  /// BGP MED instance of metricExpr.
  z3::expr medExpr(const std::string& stem, int current);
  /// Whether the lp expression differs from `current` in the model-to-be
  /// (used for deltaActive of kSetRouteFilterRuleLp).
  z3::expr lpChanged(const std::string& stem, int current);

  // Packet-filter allow expression for a directed hop and traffic class.
  z3::expr packetAllow(const std::string& router, const std::string& other,
                       const char* direction, const TrafficClass& cls);

  /// Origination of (a prefix covering) `dst` by a process, modulo deltas.
  z3::expr origEnabled(const ProcRef& proc, const Ipv4Prefix& dst);
  z3::expr redistEnabled(const ProcRef& proc, const std::string& from);

  // Static routes for (router, dst) whose next hop is up in an environment.
  struct StaticCandidate {
    std::string via;
    z3::expr active;  // delta expression under which this route is in use
  };
  std::vector<StaticCandidate> staticCandidates(const Environment& env,
                                                const std::string& router,
                                                const Ipv4Prefix& dst);

  // ---- per (environment, class) layers --------------------------------------

  /// Builds procBest records + chosenFrom vars + controlFwd for destination
  /// class `dst` in environment `e`.
  void buildRoutingLayer(std::size_t e, const Ipv4Prefix& dst);
  /// Builds dataFwd + reach for traffic class `cls` in environment `e`, and
  /// the ranking of (e, cls.dst) for its first class.
  void buildForwardingLayer(std::size_t e, const TrafficClass& cls);
  /// Builds (lazily) onPath variables from source router `g` for class
  /// `cls` in environment `e`; returns the onPath var map keyed by router.
  const std::map<std::string, z3::expr>& onPathLayer(
      std::size_t e, const TrafficClass& cls, const std::string& g);

  // Variable lookups (created by the build* functions).
  z3::expr bestValid(std::size_t e, const Ipv4Prefix& dst,
                     const std::string& router, const std::string& type);
  z3::expr chosenFrom(std::size_t e, const Ipv4Prefix& dst,
                      const std::string& router, const std::string& type,
                      const std::string& peer);
  z3::expr controlFwd(std::size_t e, const Ipv4Prefix& dst,
                      const std::string& from, const std::string& to);
  z3::expr dataFwd(std::size_t e, const TrafficClass& cls,
                   const std::string& from, const std::string& to);
  z3::expr reach(std::size_t e, const TrafficClass& cls,
                 const std::string& router);

  void encodePolicy(const Policy& policy, std::size_t env);

  // ---- patch materialization ------------------------------------------------

  void materializeDelta(const DeltaVar& delta, Patch& patch,
                        std::map<std::string, int>& frontSeq,
                        std::map<std::string, std::string>& newFilters) const;

  // ---- state ----------------------------------------------------------------

  SmtSession& session_;
  const ConfigTree& tree_;
  const Topology& topo_;
  const Sketch& sketch_;
  EncoderOptions options_;
  Simulator sim_;  // for concrete facts (local delivery, attachment)

  std::vector<Environment> environments_;
  std::vector<TrafficClass> classes_;
  std::vector<Ipv4Prefix> dstClasses_;

  /// All processes (current and potential) per router, and adjacency nodes.
  std::vector<ProcRef> procs_;
  std::map<std::pair<std::string, std::string>, const Node*> procNode_;

  /// Distinct configured lp / OSPF-cost values (for the (2n+1) boolean
  /// encoding).
  std::vector<int> lpValues_;
  std::vector<int> costValues_;
  std::vector<int> medValues_;

  /// Whether the policy set needs symbolic local-preference choices at all.
  /// Reachability and blocking are achievable through filter allow/deny
  /// actions alone; only path-steering policies (path-preference, waypoint,
  /// isolation) need route-preference freedom. Keeping lp concrete
  /// otherwise removes hundreds of don't-care variables from the MaxSMT
  /// search space.
  bool lpNeeded_ = false;

  /// Cache: delta name -> active expression.
  std::map<std::string, z3::expr> deltaActiveCache_;
  /// Cache: lp stem -> value expression (also keeps extraction from
  /// re-adding range constraints after check()).
  std::map<std::string, z3::expr> lpExprCache_;

  /// onPath layers: key "env|cls|g" -> router -> var.
  std::map<std::string, std::map<std::string, z3::expr>> onPathCache_;
  /// (environment, destination) layers whose distance ranking exists.
  std::set<std::string> rankings_;

  bool encoded_ = false;
};

}  // namespace aed
