#include "check/scenario.hpp"

#include <algorithm>

#include "gen/netgen.hpp"
#include "gen/policygen.hpp"
#include "util/rng.hpp"

namespace aed::check {

namespace {

/// Subsamples `policies` down to `limit` entries, always keeping entries for
/// which `mustKeep` holds (the withdrawn-subnet scenario must keep the
/// policies that demand the withdrawn prefix, or the repair workload
/// vanishes).
template <typename Pred>
void capPolicies(PolicySet& policies, std::size_t limit, Rng& rng,
                 Pred mustKeep) {
  if (policies.size() <= limit) return;
  PolicySet kept, rest;
  for (Policy& policy : policies) {
    (mustKeep(policy) ? kept : rest).push_back(std::move(policy));
  }
  for (std::size_t i = rest.size(); i > 1; --i) {
    std::swap(rest[i - 1], rest[rng.index(i)]);
  }
  for (Policy& policy : rest) {
    if (kept.size() >= limit) break;
    kept.push_back(std::move(policy));
  }
  policies = std::move(kept);
}

}  // namespace

Scenario Scenario::clone() const {
  Scenario copy;
  copy.seed = seed;
  copy.label = label;
  copy.tree = tree.clone();
  copy.policies = policies;
  copy.patch = patch;
  copy.fault = fault;
  return copy;
}

AedOptions Scenario::options() const {
  AedOptions options;
  // Two workers: enough to exercise the parallel per-destination solves,
  // small enough that hundreds of scenarios per minute do not oversubscribe
  // a CI runner.
  options.workers = 2;
  options.incrementalResolve = true;
  // A deployment fault is injected by the staged-deployment check alone.
  if (fault.kind != FaultInjection::Kind::kStageCommitFailure &&
      fault.kind != FaultInjection::Kind::kStageValidationTimeout) {
    options.faultInjection = fault;
  }
  return options;
}

Scenario makeScenario(std::uint64_t seed, const ScenarioProfile& profile) {
  Rng rng(seed);
  Scenario scenario;
  scenario.seed = seed;

  GeneratedNetwork net;
  if (rng.chance(profile.zooChance)) {
    ZooParams params;
    params.routers =
        4 + static_cast<int>(rng.below(
                static_cast<std::uint64_t>(profile.maxZooRouters - 4 + 1)));
    params.blockedPairFraction = 0.1 + rng.real() * 0.3;
    params.seed = rng.next();
    net = generateZoo(params);
    scenario.label = "zoo routers=" + std::to_string(params.routers);
  } else {
    DcParams params;
    params.racks = 2 + static_cast<int>(rng.below(
                           static_cast<std::uint64_t>(profile.maxRacks - 1)));
    params.aggs = 1 + static_cast<int>(
                          rng.below(static_cast<std::uint64_t>(profile.maxAggs)));
    params.spines = static_cast<int>(
        rng.below(static_cast<std::uint64_t>(profile.maxSpines + 1)));
    params.blockedPairFraction = 0.2 + rng.real() * 0.3;
    params.noiseRules = static_cast<int>(rng.below(4));
    params.seed = rng.next();
    net = generateDatacenter(params);
    scenario.label = "dc racks=" + std::to_string(params.racks) +
                     " aggs=" + std::to_string(params.aggs) +
                     " spines=" + std::to_string(params.spines);
  }

  const std::size_t policyCap =
      static_cast<std::size_t>(profile.maxBasePolicies) +
      static_cast<std::size_t>(profile.maxAddedPolicies);

  if (rng.chance(profile.withdrawnSubnetChance) && !net.hostSubnets.empty()) {
    // Repair-heavy variant: withdraw one host subnet's origination; the
    // inferred policies now demand reachability to a prefix nobody
    // advertises, and the sketch offers several distinct fixes — the
    // workload that drives real blocked-delta repair rounds.
    std::vector<std::string> owners;
    owners.reserve(net.hostSubnets.size());
    for (const auto& [router, subnet] : net.hostSubnets) owners.push_back(router);
    const std::string victim = owners[rng.index(owners.size())];
    const Ipv4Prefix withdrawn = net.hostSubnets.at(victim);
    PolicySet policies = makeWithdrawnSubnetUpdate(net, victim);
    capPolicies(policies, policyCap, rng, [&](const Policy& policy) {
      return policy.cls.dst == withdrawn;
    });
    scenario.policies = std::move(policies);
    scenario.label += " withdrawn=" + victim;
  } else {
    const int addCount =
        1 + static_cast<int>(rng.below(
                static_cast<std::uint64_t>(profile.maxAddedPolicies)));
    PolicyUpdate update = makeReachabilityUpdate(net.tree, addCount, rng.next(),
                                                 profile.maxBasePolicies);
    scenario.policies = std::move(update.base);
    for (Policy& added : update.added) {
      scenario.policies.push_back(std::move(added));
    }
    if (rng.chance(0.3)) {
      for (Policy& p : makeWaypointPolicies(net.tree, 1, rng.next())) {
        scenario.policies.push_back(std::move(p));
      }
    }
    if (rng.chance(0.15)) {
      for (Policy& p : makePathPreferencePolicies(net.tree, 1, rng.next())) {
        scenario.policies.push_back(std::move(p));
      }
    }
    scenario.label += " add=" + std::to_string(addCount);
  }

  scenario.tree = std::move(net.tree);
  scenario.label += " policies=" + std::to_string(scenario.policies.size());
  return scenario;
}

}  // namespace aed::check
