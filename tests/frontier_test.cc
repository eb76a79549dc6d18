// The round discipline of Frontier and BatchFrontier (core/frontier.h):
// round 0 in the caller's order, every later round in ascending id order
// (read off the next-round bitmap) however sparse or dense it is, staged
// nodes in schedule order, and no state left behind by an early Clear().

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "resacc/core/frontier.h"
#include "resacc/util/rng.h"

namespace resacc {
namespace {

// 4096 nodes make 64 bitmap words: a 3-node round leaves almost all of
// them empty, a 2048-node round fills almost all of them.
constexpr NodeId kNodes = 4096;

// `count` distinct node ids in a shuffled (schedule) order.
std::vector<NodeId> ShuffledNodes(std::size_t count, std::uint64_t seed) {
  std::vector<NodeId> all(kNodes);
  for (NodeId v = 0; v < kNodes; ++v) all[v] = v;
  Rng rng(seed);
  for (std::size_t i = kNodes - 1; i > 0; --i) {
    std::swap(all[i], all[rng.NextBounded(i + 1)]);
  }
  all.resize(count);
  return all;
}

std::vector<NodeId> Sorted(std::vector<NodeId> nodes) {
  std::sort(nodes.begin(), nodes.end());
  return nodes;
}

// Drains the round that Next() promotes to (the frontier must hold no
// current-round work), returning the popped sequence.
std::vector<NodeId> DrainRound(Frontier& frontier) {
  std::vector<NodeId> popped;
  NodeId v;
  if (!frontier.Next(&v)) return popped;
  const std::size_t round = frontier.round();
  popped.push_back(v);
  while (frontier.pending_count() > 0) {
    frontier.Next(&v);
    popped.push_back(v);
  }
  EXPECT_EQ(frontier.round(), round);
  return popped;
}

struct LanePop {
  NodeId node;
  BatchFrontier::LaneMask lanes;
  bool operator==(const LanePop&) const = default;
};

std::vector<LanePop> DrainRound(BatchFrontier& frontier) {
  std::vector<LanePop> popped;
  LanePop pop{};
  if (!frontier.Next(&pop.node, &pop.lanes)) return popped;
  popped.push_back(pop);
  while (frontier.pending_count() > 0) {
    frontier.Next(&pop.node, &pop.lanes);
    popped.push_back(pop);
  }
  return popped;
}

class PromotionTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PromotionTest, FrontierRoundsAreAscending) {
  const std::vector<NodeId> nodes = ShuffledNodes(GetParam(), 5);
  Frontier frontier(kNodes);
  for (NodeId v : nodes) EXPECT_TRUE(frontier.Schedule(v));
  for (NodeId v : nodes) EXPECT_FALSE(frontier.Schedule(v));
  EXPECT_EQ(DrainRound(frontier), Sorted(nodes));
  EXPECT_EQ(frontier.round(), 1u);
  NodeId v;
  EXPECT_FALSE(frontier.Next(&v));
}

TEST_P(PromotionTest, BatchFrontierRoundsAreAscending) {
  const std::vector<NodeId> nodes = ShuffledNodes(GetParam(), 9);
  BatchFrontier frontier(kNodes);
  // Lane 0 schedules every node and lane 3 every other one, in separate
  // passes, so a node's mask is assembled from two Schedule calls.
  for (NodeId v : nodes) frontier.Schedule(v, 0b0001);
  for (std::size_t i = 0; i < nodes.size(); i += 2) {
    frontier.Schedule(nodes[i], 0b1000);
  }
  std::vector<LanePop> expected;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    expected.push_back({nodes[i], i % 2 == 0 ? 0b1001u : 0b0001u});
  }
  std::sort(expected.begin(), expected.end(),
            [](const LanePop& a, const LanePop& b) { return a.node < b.node; });
  EXPECT_EQ(DrainRound(frontier), expected);
  EXPECT_EQ(frontier.round(), 1u);
}

// A 3-node round and an n/2-node round.
INSTANTIATE_TEST_SUITE_P(RoundSizes, PromotionTest,
                         ::testing::Values(std::size_t{3},
                                           std::size_t{kNodes / 2}));

TEST(FrontierTest, SparseAndDenseRoundsAlternate) {
  // Consecutive rounds switch between sparse and dense; every one comes
  // out ascending, so no bit survives its round.
  Frontier frontier(kNodes);
  for (const std::size_t count : {3u, 2048u, 5u, 1500u, 1u}) {
    const std::vector<NodeId> nodes = ShuffledNodes(count, count);
    for (NodeId v : nodes) frontier.Schedule(v);
    EXPECT_EQ(DrainRound(frontier), Sorted(nodes)) << count << " nodes";
  }
}

TEST(FrontierTest, RoundZeroKeepsCallerOrder) {
  Frontier frontier(kNodes);
  for (const NodeId v : {NodeId{900}, NodeId{7}, NodeId{3000}, NodeId{7},
                         NodeId{41}}) {
    frontier.Seed(v);
  }
  EXPECT_TRUE(frontier.scheduled(900));
  EXPECT_EQ(DrainRound(frontier),
            (std::vector<NodeId>{900, 7, 3000, 41}));
  EXPECT_EQ(frontier.round(), 0u);
}

TEST(FrontierTest, StagedKeepsScheduleOrder) {
  Frontier frontier(kNodes);
  frontier.Seed(10);
  NodeId v;
  ASSERT_TRUE(frontier.Next(&v));
  const std::vector<NodeId> order = ShuffledNodes(200, 3);
  for (NodeId u : order) frontier.Schedule(u);
  // A popped node may be scheduled again; a staged one only once.
  frontier.Schedule(10);
  frontier.Schedule(order[0]);
  std::vector<NodeId> expected = order;
  if (std::find(order.begin(), order.end(), 10) == order.end()) {
    expected.push_back(10);
  }
  EXPECT_EQ(std::vector<NodeId>(frontier.staged().begin(),
                                frontier.staged().end()),
            expected);
}

// Early stop mid-round (cancellation), then reuse: nothing scheduled
// before Clear() may resurface: a stale bitmap bit of the staged round
// would be emitted by the next promotion.
TEST(FrontierTest, ClearMidRoundLeavesNoStaleState) {
  Frontier frontier(kNodes);
  const std::vector<NodeId> first = ShuffledNodes(2048, 21);
  for (NodeId v : first) frontier.Schedule(v);
  NodeId v;
  ASSERT_TRUE(frontier.Next(&v));  // round 1
  for (NodeId u : ShuffledNodes(1000, 22)) frontier.Schedule(u);
  ASSERT_TRUE(frontier.Next(&v));
  frontier.Clear();
  EXPECT_EQ(frontier.round(), 0u);
  EXPECT_EQ(frontier.pending_count(), 0u);
  EXPECT_TRUE(frontier.staged().empty());
  for (NodeId u = 0; u < kNodes; ++u) {
    ASSERT_FALSE(frontier.scheduled(u)) << "node " << u;
  }
  EXPECT_FALSE(frontier.Next(&v));

  frontier.Seed(4000);
  frontier.Seed(2);
  EXPECT_EQ(DrainRound(frontier), (std::vector<NodeId>{4000, 2}));
  for (const std::size_t count : {2048u, 3u}) {
    const std::vector<NodeId> nodes = ShuffledNodes(count, 40 + count);
    for (NodeId u : nodes) frontier.Schedule(u);
    EXPECT_EQ(DrainRound(frontier), Sorted(nodes)) << count << " nodes";
  }
  EXPECT_FALSE(frontier.Next(&v));
}

TEST(BatchFrontierTest, ClearMidRoundLeavesNoStaleState) {
  BatchFrontier frontier(kNodes);
  for (NodeId u : ShuffledNodes(2048, 31)) frontier.Schedule(u, 0b011);
  NodeId v;
  BatchFrontier::LaneMask lanes;
  ASSERT_TRUE(frontier.Next(&v, &lanes));
  for (NodeId u : ShuffledNodes(1000, 32)) frontier.Schedule(u, 0b100);
  ASSERT_TRUE(frontier.Next(&v, &lanes));
  frontier.Clear();
  EXPECT_EQ(frontier.round(), 0u);
  EXPECT_EQ(frontier.pending_count(), 0u);
  for (NodeId u = 0; u < kNodes; ++u) {
    ASSERT_EQ(frontier.scheduled(u), 0u) << "node " << u;
  }
  EXPECT_FALSE(frontier.Next(&v, &lanes));

  for (const std::size_t count : {2048u, 3u}) {
    const std::vector<NodeId> nodes = ShuffledNodes(count, 50 + count);
    for (NodeId u : nodes) frontier.Schedule(u, 0b10);
    std::vector<LanePop> expected;
    for (NodeId u : Sorted(nodes)) expected.push_back({u, 0b10});
    EXPECT_EQ(DrainRound(frontier), expected) << count << " nodes";
  }
  EXPECT_FALSE(frontier.Next(&v, &lanes));
}

}  // namespace
}  // namespace resacc
