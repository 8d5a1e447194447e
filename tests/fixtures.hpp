// Shared test fixtures.
//
// figure1ConfigText() reproduces the example network of the paper's Figure 1:
// four routers A-D running BGP, with B filtering routes from A (deny
// 1.0.0.0/16, local-preference 20 otherwise) and B blocking packets from
// 3.0.0.0/16 arriving from D. The paper's three example policies over it:
//   P1 = blocking     3.0.0.0/16 -> 1.0.0.0/16   (holds: B's packet filter)
//   P2 = waypoint     2.0.0.0/16 -> 1.0.0.0/16 via C (holds: route filter)
//   P3 = reachability 3.0.0.0/16 -> 2.0.0.0/16   (violated: packet filter)
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "policy/policy.hpp"
#include "util/error.hpp"
#include "util/ipv4.hpp"
#include "util/strings.hpp"

namespace aed::testing {

/// Base seed for seed-driven tests: the AED_TEST_SEED environment variable
/// when set to a number that fits in 64 bits, else `fallback`. The effective seed is printed on
/// first use so any CI log carries what's needed to reproduce the run.
inline std::uint64_t testSeed(std::uint64_t fallback = 1) {
  std::uint64_t seed = fallback;
  if (const char* env = std::getenv("AED_TEST_SEED");
      env != nullptr && *env != '\0') {
    try {
      seed = parseU64(env, "AED_TEST_SEED");
    } catch (const AedError&) {
      // Not a number: keep the fallback.
    }
  }
  static const bool printed = [](std::uint64_t s) {
    std::cout << "[aed] effective base seed: " << s
              << " (override with AED_TEST_SEED)\n";
    return true;
  }(seed);
  (void)printed;
  return seed;
}

inline std::string figure1ConfigText() {
  return R"(hostname A
interface hosts
 ip address 1.0.0.1/16
interface toB
 ip address 10.0.1.1/30
interface toC
 ip address 10.0.3.1/30
router bgp 65001
 neighbor 10.0.1.2 remote-router B
 neighbor 10.0.3.2 remote-router C
 network 1.0.0.0/16
!
hostname B
interface hosts
 ip address 2.0.0.1/16
interface toA
 ip address 10.0.1.2/30
interface toC
 ip address 10.0.2.1/30
interface toD
 ip address 10.0.4.1/30
 packet-filter-in pf_b
router bgp 65002
 neighbor 10.0.1.1 remote-router A filter-in rf_a
 neighbor 10.0.2.2 remote-router C
 neighbor 10.0.4.2 remote-router D
 network 2.0.0.0/16
 route-filter rf_a seq 10 deny 1.0.0.0/16
 route-filter rf_a seq 20 permit any set local-preference 20
packet-filter pf_b seq 10 deny 3.0.0.0/16 any
packet-filter pf_b seq 20 permit any any
!
hostname C
interface hosts
 ip address 4.0.0.1/16
interface toA
 ip address 10.0.3.2/30
interface toB
 ip address 10.0.2.2/30
router bgp 65003
 neighbor 10.0.3.1 remote-router A
 neighbor 10.0.2.1 remote-router B
 network 4.0.0.0/16
!
hostname D
interface hosts
 ip address 3.0.0.1/16
interface toB
 ip address 10.0.4.2/30
router bgp 65004
 neighbor 10.0.4.1 remote-router B
 network 3.0.0.0/16
)";
}

// BGP diamond with equal lp and equal path length; med breaks the tie:
// S prefers X (med 10) over Y (med 50).
inline std::string medDiamondConfigText() {
  return
      "hostname S\n"
      "interface hosts\n"
      " ip address 1.0.0.1/16\n"
      "interface toX\n"
      " ip address 10.0.1.1/30\n"
      "interface toY\n"
      " ip address 10.0.2.1/30\n"
      "router bgp 65001\n"
      " neighbor 10.0.1.2 remote-router X filter-in rf_x\n"
      " neighbor 10.0.2.2 remote-router Y filter-in rf_y\n"
      " network 1.0.0.0/16\n"
      " route-filter rf_x seq 10 permit any set med 10\n"
      " route-filter rf_y seq 10 permit any set med 50\n"
      "hostname X\n"
      "interface toS\n"
      " ip address 10.0.1.2/30\n"
      "interface toT\n"
      " ip address 10.0.3.1/30\n"
      "router bgp 65002\n"
      " neighbor 10.0.1.1 remote-router S\n"
      " neighbor 10.0.3.2 remote-router T\n"
      "hostname Y\n"
      "interface toS\n"
      " ip address 10.0.2.2/30\n"
      "interface toT\n"
      " ip address 10.0.4.1/30\n"
      "router bgp 65003\n"
      " neighbor 10.0.2.1 remote-router S\n"
      " neighbor 10.0.4.2 remote-router T\n"
      "hostname T\n"
      "interface hosts\n"
      " ip address 2.0.0.1/16\n"
      "interface toX\n"
      " ip address 10.0.3.2/30\n"
      "interface toY\n"
      " ip address 10.0.4.2/30\n"
      "router bgp 65004\n"
      " neighbor 10.0.3.1 remote-router X\n"
      " neighbor 10.0.4.1 remote-router Y\n"
      " network 2.0.0.0/16\n";
}

// OSPF diamond: S reaches T via X (cost 5+5) or Y (cost 20+20); X wins.
inline std::string ospfDiamondConfigText() {
  return
      "hostname S\n"
      "interface hosts\n"
      " ip address 1.0.0.1/16\n"
      "interface toX\n"
      " ip address 10.0.1.1/30\n"
      "interface toY\n"
      " ip address 10.0.2.1/30\n"
      "router ospf 10\n"
      " neighbor 10.0.1.2 remote-router X cost 5\n"
      " neighbor 10.0.2.2 remote-router Y cost 20\n"
      " network 1.0.0.0/16\n"
      "hostname X\n"
      "interface toS\n"
      " ip address 10.0.1.2/30\n"
      "interface toT\n"
      " ip address 10.0.3.1/30\n"
      "router ospf 10\n"
      " neighbor 10.0.1.1 remote-router S cost 5\n"
      " neighbor 10.0.3.2 remote-router T cost 5\n"
      "hostname Y\n"
      "interface toS\n"
      " ip address 10.0.2.2/30\n"
      "interface toT\n"
      " ip address 10.0.4.1/30\n"
      "router ospf 10\n"
      " neighbor 10.0.2.1 remote-router S cost 20\n"
      " neighbor 10.0.4.2 remote-router T cost 20\n"
      "hostname T\n"
      "interface hosts\n"
      " ip address 2.0.0.1/16\n"
      "interface toX\n"
      " ip address 10.0.3.2/30\n"
      "interface toY\n"
      " ip address 10.0.4.2/30\n"
      "router ospf 10\n"
      " neighbor 10.0.3.1 remote-router X cost 5\n"
      " neighbor 10.0.4.1 remote-router Y cost 20\n"
      " network 2.0.0.0/16\n";
}

inline TrafficClass cls(const std::string& src, const std::string& dst) {
  return TrafficClass{*Ipv4Prefix::parse(src), *Ipv4Prefix::parse(dst)};
}

inline Policy figure1P1() {
  return Policy::blocking(cls("3.0.0.0/16", "1.0.0.0/16"));
}
inline Policy figure1P2() {
  return Policy::waypoint(cls("2.0.0.0/16", "1.0.0.0/16"), {"C"});
}
inline Policy figure1P3() {
  return Policy::reachability(cls("3.0.0.0/16", "2.0.0.0/16"));
}

}  // namespace aed::testing
