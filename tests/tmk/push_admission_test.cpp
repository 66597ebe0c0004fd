// Admission to a push set, shared by the update push (streaks of stable
// barrier epochs) and the migratory lock push (streaks of touching critical
// sections): the base threshold, the doubling re-admission backoff after
// each demotion, its 16x cap, and what a deny resets and reports.
#include <gtest/gtest.h>

#include <algorithm>

#include "tmk/page.h"

namespace now::tmk {
namespace {

// Consecutive observations a page needs, from a fresh streak, to be
// admitted (bounded, so a broken threshold fails instead of spinning).
std::uint32_t observations_to_admit(PushAdmission& a, std::uint32_t base) {
  for (std::uint32_t n = 1; n <= 1000; ++n)
    if (a.admit(base)) return n;
  return 0;
}

// Admits and denies the page k times, leaving it out of the set with k
// denials and a fresh streak.
PushAdmission after_denials(std::uint32_t k, std::uint32_t base) {
  PushAdmission a;
  for (std::uint32_t i = 0; i < k; ++i) {
    observations_to_admit(a, base);
    EXPECT_TRUE(a.deny());
  }
  EXPECT_EQ(a.denials, k);
  EXPECT_FALSE(a.member);
  EXPECT_EQ(a.streak, 0u);
  return a;
}

TEST(PushAdmission, FirstAdmissionAtTheBaseThreshold) {
  for (std::uint32_t base : {1u, 2u, 3u}) {
    PushAdmission a;
    for (std::uint32_t i = 1; i < base; ++i) EXPECT_FALSE(a.admit(base));
    EXPECT_TRUE(a.admit(base)) << "base " << base;
    EXPECT_EQ(a.streak, base);
    // A member stays admitted while the streak goes on.
    EXPECT_TRUE(a.admit(base));
  }
}

TEST(PushAdmission, EachDenialDoublesTheStreakNeededUpTo16x) {
  for (std::uint32_t base : {1u, 2u, 3u}) {
    for (std::uint32_t k = 0; k <= 7; ++k) {
      PushAdmission a = after_denials(k, base);
      EXPECT_EQ(observations_to_admit(a, base), base << std::min(k, 4u))
          << "base " << base << ", " << k << " denials";
    }
    // The cap: any number of denials past four still needs exactly 16x.
    PushAdmission a = after_denials(12, base);
    EXPECT_EQ(observations_to_admit(a, base), 16 * base);
  }
}

TEST(PushAdmission, DenyResetsTheStreakAndReportsMembership) {
  // A member's deny is a demotion: it leaves the set, its streak restarts
  // and the backoff grows.
  PushAdmission a;
  ASSERT_TRUE(a.admit(1));
  a.admit(1);
  EXPECT_TRUE(a.deny());
  EXPECT_FALSE(a.member);
  EXPECT_EQ(a.streak, 0u);
  EXPECT_EQ(a.denials, 1u);

  // A non-member's deny is no demotion and adds no backoff, but it still
  // breaks the streak under way: re-admission needs the whole streak again.
  EXPECT_FALSE(a.admit(1));  // 1 of the 2 observations one denial needs
  EXPECT_FALSE(a.deny());
  EXPECT_EQ(a.streak, 0u);
  EXPECT_EQ(a.denials, 1u);
  EXPECT_EQ(observations_to_admit(a, 1), 2u);
}

}  // namespace
}  // namespace now::tmk
