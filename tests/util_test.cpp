#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <latch>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/ipv4.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/parallel.hpp"

namespace aed {
namespace {

// ---------------------------------------------------------------- Ipv4Address

TEST(Ipv4Address, ParsesDottedQuad) {
  const auto addr = Ipv4Address::parse("10.1.2.3");
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(addr->bits(), 0x0A010203u);
  EXPECT_EQ(addr->str(), "10.1.2.3");
}

TEST(Ipv4Address, ParsesExtremes) {
  EXPECT_EQ(Ipv4Address::parse("0.0.0.0")->bits(), 0u);
  EXPECT_EQ(Ipv4Address::parse("255.255.255.255")->bits(), 0xFFFFFFFFu);
}

TEST(Ipv4Address, RejectsMalformed) {
  EXPECT_FALSE(Ipv4Address::parse("").has_value());
  EXPECT_FALSE(Ipv4Address::parse("10.1.2").has_value());
  EXPECT_FALSE(Ipv4Address::parse("10.1.2.3.4").has_value());
  EXPECT_FALSE(Ipv4Address::parse("10.1.2.256").has_value());
  EXPECT_FALSE(Ipv4Address::parse("10.1.2.x").has_value());
  EXPECT_FALSE(Ipv4Address::parse("10..2.3").has_value());
  EXPECT_FALSE(Ipv4Address::parse(" 10.1.2.3").has_value());
}

TEST(Ipv4Address, OctetConstructorMatchesParse) {
  EXPECT_EQ(Ipv4Address(192, 168, 42, 1), *Ipv4Address::parse("192.168.42.1"));
}

TEST(Ipv4Address, Ordering) {
  EXPECT_LT(*Ipv4Address::parse("10.0.0.1"), *Ipv4Address::parse("10.0.0.2"));
  EXPECT_LT(*Ipv4Address::parse("9.255.255.255"),
            *Ipv4Address::parse("10.0.0.0"));
}

// ----------------------------------------------------------------- Ipv4Prefix

TEST(Ipv4Prefix, ParsesAndCanonicalizes) {
  const auto prefix = Ipv4Prefix::parse("10.1.2.3/16");
  ASSERT_TRUE(prefix.has_value());
  EXPECT_EQ(prefix->str(), "10.1.0.0/16");
  EXPECT_EQ(prefix->length(), 16);
}

TEST(Ipv4Prefix, ParsesDefaultAndHostRoutes) {
  EXPECT_EQ(Ipv4Prefix::parse("1.2.3.4/0")->str(), "0.0.0.0/0");
  EXPECT_EQ(Ipv4Prefix::parse("1.2.3.4/32")->str(), "1.2.3.4/32");
}

TEST(Ipv4Prefix, RejectsMalformed) {
  EXPECT_FALSE(Ipv4Prefix::parse("10.0.0.0").has_value());
  EXPECT_FALSE(Ipv4Prefix::parse("10.0.0.0/33").has_value());
  EXPECT_FALSE(Ipv4Prefix::parse("10.0.0.0/-1").has_value());
  EXPECT_FALSE(Ipv4Prefix::parse("10.0.0.0/8x").has_value());
  EXPECT_FALSE(Ipv4Prefix::parse("banana/8").has_value());
}

TEST(Ipv4Prefix, ContainsAddress) {
  const auto prefix = *Ipv4Prefix::parse("10.1.0.0/16");
  EXPECT_TRUE(prefix.contains(*Ipv4Address::parse("10.1.255.255")));
  EXPECT_TRUE(prefix.contains(*Ipv4Address::parse("10.1.0.0")));
  EXPECT_FALSE(prefix.contains(*Ipv4Address::parse("10.2.0.0")));
}

TEST(Ipv4Prefix, ContainsPrefix) {
  const auto wide = *Ipv4Prefix::parse("10.0.0.0/8");
  const auto narrow = *Ipv4Prefix::parse("10.1.0.0/16");
  EXPECT_TRUE(wide.contains(narrow));
  EXPECT_FALSE(narrow.contains(wide));
  EXPECT_TRUE(wide.contains(wide));
}

TEST(Ipv4Prefix, Overlaps) {
  const auto a = *Ipv4Prefix::parse("10.0.0.0/8");
  const auto b = *Ipv4Prefix::parse("10.1.0.0/16");
  const auto c = *Ipv4Prefix::parse("11.0.0.0/8");
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_TRUE(b.overlaps(a));
  EXPECT_FALSE(a.overlaps(c));
  EXPECT_TRUE(Ipv4Prefix::parse("0.0.0.0/0")->overlaps(c));
}

TEST(Ipv4Prefix, NthAddress) {
  const auto prefix = *Ipv4Prefix::parse("10.0.1.0/30");
  EXPECT_EQ(prefix.nth(1).str(), "10.0.1.1");
  EXPECT_EQ(prefix.nth(2).str(), "10.0.1.2");
}

// --------------------------------------------------- packetEquivalenceClasses

TEST(PacketEquivalenceClasses, DisjointInputsPassThrough) {
  const auto classes = packetEquivalenceClasses(
      {*Ipv4Prefix::parse("10.0.0.0/16"), *Ipv4Prefix::parse("11.0.0.0/16")});
  ASSERT_EQ(classes.size(), 2u);
  EXPECT_EQ(classes[0].str(), "10.0.0.0/16");
  EXPECT_EQ(classes[1].str(), "11.0.0.0/16");
}

TEST(PacketEquivalenceClasses, SplitsSupernet) {
  const auto classes = packetEquivalenceClasses(
      {*Ipv4Prefix::parse("10.0.0.0/8"), *Ipv4Prefix::parse("10.1.0.0/16")});
  // Result must be pairwise disjoint and cover 10.0.0.0/8.
  for (std::size_t i = 0; i < classes.size(); ++i) {
    for (std::size_t j = i + 1; j < classes.size(); ++j) {
      EXPECT_FALSE(classes[i].overlaps(classes[j]))
          << classes[i].str() << " vs " << classes[j].str();
    }
  }
  // 10.1.0.0/16 must be exactly one of the classes.
  EXPECT_NE(std::find(classes.begin(), classes.end(),
                      *Ipv4Prefix::parse("10.1.0.0/16")),
            classes.end());
  // Coverage: each class is inside 10.0.0.0/8.
  for (const auto& c : classes) {
    EXPECT_TRUE(Ipv4Prefix::parse("10.0.0.0/8")->contains(c));
  }
}

TEST(PacketEquivalenceClasses, DeduplicatesInput) {
  const auto classes = packetEquivalenceClasses(
      {*Ipv4Prefix::parse("10.0.0.0/16"), *Ipv4Prefix::parse("10.0.0.0/16")});
  EXPECT_EQ(classes.size(), 1u);
}

TEST(PacketEquivalenceClasses, EmptyInput) {
  EXPECT_TRUE(packetEquivalenceClasses({}).empty());
}

// -------------------------------------------------------------------- strings

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  a b  "), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n"), "");
}

TEST(Strings, SplitWhitespace) {
  const auto parts = splitWhitespace("  a  bc\td ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "bc");
  EXPECT_EQ(parts[2], "d");
  EXPECT_TRUE(splitWhitespace("").empty());
}

TEST(Strings, SplitChar) {
  const auto parts = splitChar("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, "-"), "a-b-c");
  EXPECT_EQ(join({}, "-"), "");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(startsWith("route-filter x", "route-filter"));
  EXPECT_FALSE(startsWith("rx", "route"));
}

TEST(Strings, ParseU64AcceptsTheFullRange) {
  EXPECT_EQ(parseU64("0", "t"), 0u);
  EXPECT_EQ(parseU64("18446744073709551615", "t"), UINT64_MAX);
}

TEST(Strings, ParseU64RejectsOverflowSignsAndJunk) {
  for (const char* bad : {"18446744073709551616", "-1", "1x", ""}) {
    try {
      parseU64(bad, "--flag");
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const AedError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kParseError) << bad;
      EXPECT_NE(std::string(e.what()).find("--flag"), std::string::npos);
    }
  }
}

// ------------------------------------------------------------------------ rng

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next() == b.next();
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(10), 10u);
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.range(-2, 2));
  EXPECT_EQ(seen, (std::set<std::int64_t>{-2, -1, 0, 1, 2}));
}

TEST(Rng, RealInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.real();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

// ---------------------------------------------------------------- runParallel

TEST(ThreadPool, RunsAllTasks) {
  std::atomic<int> counter{0};
  runParallel(100, 4, [&counter](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ReturnsValues) {
  std::vector<std::size_t> slots(16);
  runParallel(slots.size(), 2, [&slots](std::size_t i) { slots[i] = 6 * i; });
  for (std::size_t i = 0; i < slots.size(); ++i) EXPECT_EQ(slots[i], 6 * i);
}

TEST(ThreadPool, PropagatesExceptions) {
  EXPECT_THROW(runParallel(1, 1, [](std::size_t) { throw AedError("boom"); }),
               AedError);
}

TEST(ThreadPool, AtLeastOneWorker) {
  // Zero lanes still runs every task, all on the calling thread.
  std::vector<std::thread::id> ranOn(5);
  runParallel(ranOn.size(), 0, [&ranOn](std::size_t i) {
    ranOn[i] = std::this_thread::get_id();
  });
  for (const std::thread::id id : ranOn) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

TEST(RunParallel, ExecutesEverything) {
  std::atomic<int> counter{0};
  runParallel(20, 4, [&counter](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 20);
}

TEST(RunParallel, CallerIsOneLane) {
  // Tasks 0 and 1 wait for each other, so each of the two lanes runs one.
  std::latch both(2);
  std::vector<std::thread::id> ranOn(2);
  runParallel(ranOn.size(), 2, [&](std::size_t i) {
    both.arrive_and_wait();
    ranOn[i] = std::this_thread::get_id();
  });
  EXPECT_NE(ranOn[0], ranOn[1]);
  EXPECT_EQ((ranOn[0] == std::this_thread::get_id()) +
                (ranOn[1] == std::this_thread::get_id()),
            1);
}

// -------------------------------------------------------------------- require

TEST(Require, ThrowsOnFalse) {
  EXPECT_THROW(require(false, "nope"), AedError);
  EXPECT_NO_THROW(require(true, "fine"));
}

}  // namespace
}  // namespace aed
