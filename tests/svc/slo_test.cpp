// SLO deadline budgets: the deadline_ms -> augmentation-budget map must be
// a pure, monotone function of the request (no wall clock), and a budgeted
// solve must stay certified — truncation widens the bracket, it never
// invalidates it.

#include "svc/slo.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "check/certify.hpp"

namespace flattree::svc {
namespace {

using graph::Graph;
using graph::NodeId;

/// Ring + chords (the inc::McfWarmCache test graph): enough path diversity
/// that GK needs many augmentations, so small budgets truncate.
Graph test_graph() {
  Graph g(8);
  for (NodeId v = 0; v < 8; ++v) g.add_link(v, static_cast<NodeId>((v + 1) % 8));
  g.add_link(0, 4, 2.0);
  g.add_link(2, 6, 2.0);
  g.add_link(1, 5);
  return g;
}

std::vector<mcf::Commodity> test_commodities() {
  return {{0, 3, 1.0}, {1, 6, 1.0}, {4, 7, 0.5}, {2, 5, 1.5}};
}

TEST(SloBudget, ZeroDeadlineMeansUnlimited) {
  SloPolicy policy;
  EXPECT_EQ(budget_augmentations(policy, 0.0), 0u);
  EXPECT_EQ(budget_augmentations(policy, -1.0), 0u);
}

TEST(SloBudget, ScalesWithDeadlineAndPolicy) {
  SloPolicy policy;
  policy.augmentations_per_ms = 1000.0;
  policy.min_augmentations = 8;
  EXPECT_EQ(budget_augmentations(policy, 2.0), 2000u);
  EXPECT_EQ(budget_augmentations(policy, 0.5), 500u);
  policy.augmentations_per_ms = 250.0;
  EXPECT_EQ(budget_augmentations(policy, 2.0), 500u);
}

TEST(SloBudget, FloorsTinyDeadlines) {
  // Even an unmeetable deadline buys enough work for a usable bound.
  SloPolicy policy;
  policy.augmentations_per_ms = 1000.0;
  policy.min_augmentations = 32;
  EXPECT_EQ(budget_augmentations(policy, 0.001), 32u);
  EXPECT_EQ(budget_augmentations(policy, 0.032), 32u);
  EXPECT_EQ(budget_augmentations(policy, 0.033), 33u);
}

TEST(SloBudget, MonotoneInDeadline) {
  SloPolicy policy;
  std::uint64_t prev = 0;
  for (double dl : {0.01, 0.1, 1.0, 10.0, 100.0, 1000.0}) {
    std::uint64_t b = budget_augmentations(policy, dl);
    EXPECT_GE(b, prev) << dl;
    prev = b;
  }
}

TEST(SloBudget, SaturatesInsteadOfOverflowing) {
  SloPolicy policy;
  std::uint64_t cap = budget_augmentations(policy, 1e300);
  EXPECT_EQ(cap, 9000000000000000000ull);
  EXPECT_EQ(budget_augmentations(policy, 1e308), cap);
}

TEST(SloSolveTest, UnlimitedBudgetIsNotTruncated) {
  Graph g = test_graph();
  SloSolve s = solve_with_budget(g, test_commodities(), 0.12, /*budget=*/0);
  EXPECT_FALSE(s.result.truncated);
  EXPECT_TRUE(s.certified);
  EXPECT_GT(s.result.lambda_lower, 0.0);
  EXPECT_GE(s.result.lambda_upper, s.result.lambda_lower);
}

TEST(SloSolveTest, TinyBudgetTruncatesButStaysCertified) {
  Graph g = test_graph();
  SloSolve s = solve_with_budget(g, test_commodities(), 0.12, /*budget=*/3);
  EXPECT_TRUE(s.result.truncated);
  EXPECT_EQ(s.budget, 3u);
  // The truncated answer is still externally verified evidence: the flows
  // are feasible and the bracket is valid, just wider.
  EXPECT_TRUE(s.certified);
  SloSolve full = solve_with_budget(g, test_commodities(), 0.12, 0);
  EXPECT_LE(s.result.lambda_lower, full.result.lambda_lower);
  EXPECT_GE(s.result.lambda_upper, full.result.lambda_lower);
}

TEST(SloSolveTest, EmptyCommoditiesAreVacuouslyCertified) {
  Graph g = test_graph();
  SloSolve s = solve_with_budget(g, {}, 0.12, 100);
  EXPECT_TRUE(s.certified);
  EXPECT_FALSE(s.result.truncated);
  EXPECT_EQ(s.result.lambda_lower, 0.0);
}

}  // namespace
}  // namespace flattree::svc
