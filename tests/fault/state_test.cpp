#include "fault/state.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "fault/fault_check.hpp"

namespace flattree::fault {
namespace {

FaultEvent ev(double t, FaultKind kind, std::uint32_t a, std::uint32_t b = 0) {
  FaultEvent e;
  e.time = t;
  e.kind = kind;
  e.a = a;
  e.b = b;
  return e;
}

// Down *counts*, not booleans: overlapping failures (a pod power cut plus
// an individual switch fault inside it) unwind only at the last repair.
TEST(FaultState, OverlappingFailuresUnwindExactly) {
  FaultState s(8, 4);
  EXPECT_TRUE(s.apply(ev(1.0, FaultKind::SwitchDown, 3)));   // power domain
  EXPECT_FALSE(s.apply(ev(2.0, FaultKind::SwitchDown, 3)));  // individual fault
  EXPECT_TRUE(s.switch_down(3));
  EXPECT_EQ(s.down_switch_count(), 1u);
  EXPECT_FALSE(s.apply(ev(3.0, FaultKind::SwitchUp, 3)));  // power restored
  EXPECT_TRUE(s.switch_down(3));                           // still individually down
  EXPECT_TRUE(s.apply(ev(4.0, FaultKind::SwitchUp, 3)));
  EXPECT_FALSE(s.switch_down(3));
  EXPECT_TRUE(s.clean());
  EXPECT_TRUE(check_conserved(s).ok());
}

TEST(FaultState, LinkFaultsKeyOnNormalizedPairs) {
  FaultState s(8, 0);
  EXPECT_TRUE(s.apply(ev(1.0, FaultKind::LinkDown, 5, 2)));
  EXPECT_TRUE(s.pair_down(2, 5));
  EXPECT_TRUE(s.pair_down(5, 2));  // orientation-free
  EXPECT_FALSE(s.apply(ev(2.0, FaultKind::LinkDown, 2, 5)));
  EXPECT_FALSE(s.apply(ev(3.0, FaultKind::LinkUp, 5, 2)));
  EXPECT_TRUE(s.apply(ev(4.0, FaultKind::LinkUp, 2, 5)));
  EXPECT_FALSE(s.pair_down(2, 5));
  EXPECT_TRUE(check_conserved(s).ok());
}

TEST(FaultState, RejectsOutOfRangeAndUnmatchedRepairs) {
  FaultState s(4, 2);
  EXPECT_THROW(s.apply(ev(1.0, FaultKind::SwitchDown, 4)), std::invalid_argument);
  EXPECT_THROW(s.apply(ev(1.0, FaultKind::ConverterStuck, 2)), std::invalid_argument);
  EXPECT_THROW(s.apply(ev(1.0, FaultKind::SwitchUp, 0)), std::invalid_argument);
  EXPECT_THROW(s.apply(ev(1.0, FaultKind::LinkUp, 0, 1)), std::invalid_argument);
  EXPECT_THROW(s.apply(ev(1.0, FaultKind::ConverterFreed, 0)), std::invalid_argument);
}

TEST(FaultState, FailedSwitchesIsNormalized) {
  FaultState s(16, 0);
  s.apply(ev(1.0, FaultKind::SwitchDown, 9));
  s.apply(ev(2.0, FaultKind::SwitchDown, 4));
  s.apply(ev(3.0, FaultKind::SwitchDown, 12));
  core::FailureSet f = s.failed_switches();
  EXPECT_EQ(f.failed_switches, (std::vector<NodeId>{4, 9, 12}));
  EXPECT_TRUE(f.contains(9));
  EXPECT_FALSE(f.contains(5));
}

TEST(FaultState, StuckConvertersAreTracked) {
  FaultState s(4, 3);
  EXPECT_TRUE(s.apply(ev(1.0, FaultKind::ConverterStuck, 1)));
  EXPECT_TRUE(s.converter_stuck(1));
  EXPECT_FALSE(s.converter_stuck(0));
  EXPECT_EQ(s.stuck_converter_count(), 1u);
  EXPECT_TRUE(s.apply(ev(2.0, FaultKind::ConverterFreed, 1)));
  EXPECT_TRUE(s.clean());
}

}  // namespace
}  // namespace flattree::fault
