#include "check/shrink.hpp"

#include <algorithm>
#include <exception>
#include <string>
#include <vector>

#include "topology/topology.hpp"
#include "util/error.hpp"

namespace aed::check {

namespace {

bool applyLayerInvariant(Invariant inv) {
  return inv == Invariant::kJournalRollback ||
         inv == Invariant::kStagedVsOneShot;
}

class Shrinker {
 public:
  Shrinker(const Scenario& failing, const InvariantFailure& target,
           const ShrinkOptions& options)
      : current_(failing.clone()), target_(target), options_(options) {}

  ShrinkResult run() {
    stats_.routersBefore = current_.tree.routers().size();
    stats_.policiesBefore = current_.policies.size();
    stats_.editsBefore = current_.patch ? current_.patch->size() : 0;

    concretize();

    bool reduced = true;
    while (reduced && !exhausted()) {
      ++stats_.rounds;
      reduced = false;
      reduced |= reducePolicies();
      reduced |= reduceEdits();
      reduced |= reduceRouters();
      reduced |= reduceLinks();
    }

    stats_.routersAfter = current_.tree.routers().size();
    stats_.policiesAfter = current_.policies.size();
    stats_.editsAfter = current_.patch ? current_.patch->size() : 0;

    ShrinkResult result;
    InvariantFailure finalFailure = target_;
    reproduces(current_, &finalFailure);  // refresh the detail text
    result.minimized = std::move(current_);
    result.failure = std::move(finalFailure);
    result.stats = stats_;
    return result;
  }

 private:
  bool exhausted() const { return stats_.attempts >= options_.maxAttempts; }

  /// Re-checks only the failing invariant; true when it fails again with
  /// the same category. Any escaping exception counts as non-reproducing
  /// (delta debugging's "unresolved" outcome).
  bool reproduces(const Scenario& candidate, InvariantFailure* out = nullptr) {
    ++stats_.attempts;
    CheckOutcome outcome;
    try {
      outcome = checkScenario(candidate, mask(target_.invariant));
    } catch (const std::exception&) {
      return false;
    }
    for (const InvariantFailure& failure : outcome.failures) {
      if (failure.invariant == target_.invariant &&
          failure.category == target_.category) {
        if (out != nullptr) *out = failure;
        return true;
      }
    }
    return false;
  }

  bool accept(Scenario candidate) {
    if (exhausted() || !reproduces(candidate)) return false;
    current_ = std::move(candidate);
    ++stats_.accepted;
    return true;
  }

  /// Apply-layer failures re-check much faster (and more stably) against a
  /// fixed patch than against whatever a re-run of the solver produces on
  /// each reduced network, so embed the synthesized patch up front.
  void concretize() {
    if (!options_.concretizePatch || current_.patch.has_value() ||
        !applyLayerInvariant(target_.invariant)) {
      return;
    }
    AedOptions options = current_.options();
    const AedResult result =
        synthesize(current_.tree, current_.policies, {}, options);
    if (!result.success || result.degraded) return;
    Scenario candidate = current_.clone();
    candidate.patch = result.patch;
    accept(std::move(candidate));
  }

  /// ddmin-style chunked removal from a list dimension. `size` is the
  /// current list length; `without(start, count)` builds the candidate with
  /// [start, start+count) removed from the *current* scenario. Returns true
  /// if anything was removed. Iterates from the back so an accepted removal
  /// never shifts the positions still to be tried.
  template <typename WithoutFn>
  bool reduceChunks(std::size_t size, const WithoutFn& without) {
    bool any = false;
    std::size_t remaining = size;
    for (std::size_t chunk = std::max<std::size_t>(remaining / 2, 1);;
         chunk /= 2) {
      for (std::size_t end = remaining; end > 0;) {
        if (exhausted()) return any;
        const std::size_t begin = end > chunk ? end - chunk : 0;
        const std::size_t count = end - begin;
        Scenario candidate = without(begin, count);
        if (accept(std::move(candidate))) {
          any = true;
          remaining -= count;
        }
        end = begin;
      }
      if (chunk <= 1 || remaining == 0) break;
    }
    return any;
  }

  bool reducePolicies() {
    if (current_.policies.empty()) return false;
    return reduceChunks(
        current_.policies.size(), [&](std::size_t start, std::size_t count) {
          Scenario candidate = current_.clone();
          candidate.policies.erase(
              candidate.policies.begin() + static_cast<std::ptrdiff_t>(start),
              candidate.policies.begin() +
                  static_cast<std::ptrdiff_t>(start + count));
          return candidate;
        });
  }

  bool reduceEdits() {
    if (!current_.patch || current_.patch->empty()) return false;
    return reduceChunks(
        current_.patch->size(), [&](std::size_t start, std::size_t count) {
          Scenario candidate = current_.clone();
          Patch reduced;
          const auto& edits = current_.patch->edits();
          for (std::size_t i = 0; i < edits.size(); ++i) {
            if (i >= start && i < start + count) continue;
            reduced.add(edits[i]);
          }
          candidate.patch = std::move(reduced);
          return candidate;
        });
  }

  bool reduceRouters() {
    bool any = false;
    // Snapshot the names; the set shrinks as removals are accepted.
    std::vector<std::string> names;
    for (const Node* router : current_.tree.routers()) {
      names.push_back(router->name());
    }
    for (const std::string& name : names) {
      if (exhausted()) return any;
      Scenario candidate = current_.clone();
      if (!removeRouter(candidate, name)) continue;
      any |= accept(std::move(candidate));
    }
    return any;
  }

  bool reduceLinks() {
    bool any = false;
    bool removedOne = true;
    while (removedOne && !exhausted()) {
      removedOne = false;
      std::vector<Link> links;
      try {
        links = Topology::fromConfigs(current_.tree).links();
      } catch (const AedError&) {
        return any;  // malformed intermediate topology: leave links alone
      }
      for (const Link& link : links) {
        if (exhausted()) return any;
        Scenario candidate = current_.clone();
        if (!removeLink(candidate, link)) continue;
        if (accept(std::move(candidate))) {
          any = removedOne = true;
          break;  // the link list is stale now; recompute
        }
      }
    }
    return any;
  }

  /// Removes router `name` together with its link remnants on peers (peer
  /// interfaces on shared subnets and peer adjacencies naming it), keeping
  /// the candidate well-formed. False if the router or topology cannot be
  /// resolved.
  static bool removeRouter(Scenario& scenario, const std::string& name) {
    Node* victim = scenario.tree.router(name);
    if (victim == nullptr) return false;
    std::vector<Link> links;
    try {
      links = Topology::fromConfigs(scenario.tree).links();
    } catch (const AedError&) {
      return false;
    }
    for (const Link& link : links) {
      if (link.a != name && link.b != name) continue;
      const std::string& peer = link.a == name ? link.b : link.a;
      const std::string& peerIface = link.a == name ? link.ifaceB : link.ifaceA;
      Node* peerNode = scenario.tree.router(peer);
      if (peerNode == nullptr) continue;
      if (Node* iface = peerNode->findChild(NodeKind::kInterface, peerIface)) {
        peerNode->removeChild(*iface);
      }
      removePeerAdjacencies(*peerNode, name, link.subnet);
    }
    scenario.tree.root().removeChild(*victim);
    return true;
  }

  /// Removes one physical link: both interfaces and the adjacencies riding
  /// on its subnet.
  static bool removeLink(Scenario& scenario, const Link& link) {
    Node* routerA = scenario.tree.router(link.a);
    Node* routerB = scenario.tree.router(link.b);
    if (routerA == nullptr || routerB == nullptr) return false;
    if (Node* iface = routerA->findChild(NodeKind::kInterface, link.ifaceA)) {
      routerA->removeChild(*iface);
    }
    if (Node* iface = routerB->findChild(NodeKind::kInterface, link.ifaceB)) {
      routerB->removeChild(*iface);
    }
    removePeerAdjacencies(*routerA, link.b, link.subnet);
    removePeerAdjacencies(*routerB, link.a, link.subnet);
    return true;
  }

  /// Removes adjacencies on `router` that name `peer` and whose peerIp lies
  /// inside `subnet` (so parallel links on other subnets survive).
  static void removePeerAdjacencies(Node& router, const std::string& peer,
                                    const Ipv4Prefix& subnet) {
    for (Node* proc : router.childrenOfKind(NodeKind::kRoutingProcess)) {
      std::vector<Node*> dead;
      for (Node* adj : proc->childrenOfKind(NodeKind::kAdjacency)) {
        if (adj->attr("peer") != peer) continue;
        const auto peerIp = Ipv4Address::parse(adj->attr("peerIp"));
        if (!peerIp.has_value() || subnet.contains(*peerIp)) {
          dead.push_back(adj);
        }
      }
      for (Node* adj : dead) proc->removeChild(*adj);
    }
  }

  Scenario current_;
  InvariantFailure target_;
  ShrinkOptions options_;
  ShrinkStats stats_;
};

}  // namespace

ShrinkResult shrinkScenario(const Scenario& failing,
                            const InvariantFailure& target,
                            const ShrinkOptions& options) {
  return Shrinker(failing, target, options).run();
}

}  // namespace aed::check
