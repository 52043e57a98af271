#include <gtest/gtest.h>

#include "diag/failure_log.h"
#include "test_helpers.h"

namespace m3dfl {
namespace {

ScanChains make_chains(const Netlist& nl, std::int32_t n) {
  return ScanChains(nl, n, 1);
}

TEST(FailureLogTest, BypassKeepsEveryObservation) {
  const Netlist nl = testing::small_netlist(2);
  const ScanChains chains = make_chains(nl, 4);
  const std::vector<Observation> raw = {
      {0, false, 3}, {0, true, 1}, {2, false, 7}};
  const FailureLog log = make_failure_log(raw, chains, nullptr);
  EXPECT_FALSE(log.compacted);
  EXPECT_EQ(log.scan_fails.size(), 2u);
  EXPECT_EQ(log.po_fails.size(), 1u);
  EXPECT_TRUE(log.channel_fails.empty());
  EXPECT_EQ(log.num_failing_patterns(), 2);
  EXPECT_EQ(log.num_failing_bits(), 3);
}

TEST(FailureLogTest, XorCompactionParity) {
  const Netlist nl = testing::small_netlist(2);  // 32 flops
  const ScanChains chains = make_chains(nl, 4);
  const XorCompactor compactor(chains, 4);  // one channel

  // Two failing cells in the SAME channel at the same position cancel.
  const std::int32_t f0 = chains.flop_at(0, 2);
  const std::int32_t f1 = chains.flop_at(1, 2);
  const std::int32_t f2 = chains.flop_at(2, 5);
  ASSERT_GE(f0, 0);
  ASSERT_GE(f1, 0);
  ASSERT_GE(f2, 0);
  const std::vector<Observation> raw = {
      {0, false, f0}, {0, false, f1}, {0, false, f2}};
  const FailureLog log = make_failure_log(raw, chains, &compactor);
  EXPECT_TRUE(log.compacted);
  // f0^f1 cancel at position 2; f2 survives at position 5.
  ASSERT_EQ(log.channel_fails.size(), 1u);
  EXPECT_EQ(log.channel_fails[0].pattern, 0);
  EXPECT_EQ(log.channel_fails[0].channel, 0);
  EXPECT_EQ(log.channel_fails[0].position, 5);
}

TEST(FailureLogTest, OddParitySurvives) {
  const Netlist nl = testing::small_netlist(2);
  const ScanChains chains = make_chains(nl, 4);
  const XorCompactor compactor(chains, 4);
  const std::int32_t f0 = chains.flop_at(0, 1);
  const std::int32_t f1 = chains.flop_at(1, 1);
  const std::int32_t f2 = chains.flop_at(2, 1);
  const std::vector<Observation> raw = {
      {3, false, f0}, {3, false, f1}, {3, false, f2}};
  const FailureLog log = make_failure_log(raw, chains, &compactor);
  ASSERT_EQ(log.channel_fails.size(), 1u);
  EXPECT_EQ(log.channel_fails[0].position, 1);
}

TEST(FailureLogTest, PoFailsBypassCompaction) {
  const Netlist nl = testing::small_netlist(2);
  const ScanChains chains = make_chains(nl, 4);
  const XorCompactor compactor(chains, 2);
  const std::vector<Observation> raw = {{1, true, 0}, {1, true, 3}};
  const FailureLog log = make_failure_log(raw, chains, &compactor);
  EXPECT_EQ(log.po_fails.size(), 2u);
  EXPECT_TRUE(log.channel_fails.empty());
}

TEST(FailureLogTest, TruncationKeepsFirstPatterns) {
  FailureLog log;
  log.scan_fails = {{0, false, 1}, {2, false, 1}, {5, false, 2},
                    {9, false, 3}};
  log.po_fails = {{2, true, 0}, {9, true, 1}};
  const FailureLog cut = truncate_failure_log(log, 2);
  EXPECT_EQ(cut.pattern_limit, 2);
  // First two failing patterns are 0 and 2.
  ASSERT_EQ(cut.scan_fails.size(), 2u);
  EXPECT_EQ(cut.scan_fails[0].pattern, 0);
  EXPECT_EQ(cut.scan_fails[1].pattern, 2);
  ASSERT_EQ(cut.po_fails.size(), 1u);
  EXPECT_EQ(cut.po_fails[0].pattern, 2);
  EXPECT_EQ(cut.num_failing_patterns(), 2);
}

TEST(FailureLogTest, TruncationNoOpWhenWithinBudget) {
  FailureLog log;
  log.scan_fails = {{0, false, 1}, {4, false, 2}};
  const FailureLog cut = truncate_failure_log(log, 10);
  EXPECT_EQ(cut.scan_fails.size(), 2u);
  EXPECT_EQ(cut.pattern_limit, 10);
  const FailureLog uncut = truncate_failure_log(log, 0);
  EXPECT_EQ(uncut.pattern_limit, 0);
  EXPECT_EQ(uncut.scan_fails.size(), 2u);
}

TEST(FailureLogTest, TruncationCountsChannelPatterns) {
  FailureLog log;
  log.compacted = true;
  log.channel_fails = {{1, 0, 0}, {3, 1, 2}, {8, 0, 1}};
  const FailureLog cut = truncate_failure_log(log, 2);
  ASSERT_EQ(cut.channel_fails.size(), 2u);
  EXPECT_EQ(cut.channel_fails[1].pattern, 3);
  EXPECT_TRUE(cut.compacted);
}

TEST(FailureLogTest, TruncationUnderAtAndOverTheLimit) {
  FailureLog log;
  log.scan_fails = {{1, false, 0}, {4, false, 2}, {4, false, 3},
                    {7, false, 1}};
  log.po_fails = {{4, true, 0}, {9, true, 1}};  // patterns 1, 4, 7, 9
  for (const std::int32_t limit : {5, 4}) {    // under, at
    const FailureLog cut = truncate_failure_log(log, limit);
    EXPECT_EQ(cut.pattern_limit, limit);
    EXPECT_EQ(cut.scan_fails, log.scan_fails);
    EXPECT_EQ(cut.po_fails, log.po_fails);
  }
  const FailureLog cut = truncate_failure_log(log, 3);  // over
  EXPECT_EQ(cut.pattern_limit, 3);
  EXPECT_EQ(cut.scan_fails, log.scan_fails);
  EXPECT_EQ(cut.po_fails, (std::vector<Observation>{{4, true, 0}}));
  EXPECT_EQ(cut.num_failing_patterns(), 3);

  // The in-place form agrees and cuts the pattern list with the log.
  std::vector<std::int32_t> patterns;
  failing_patterns(log, &patterns);
  EXPECT_EQ(patterns, (std::vector<std::int32_t>{1, 4, 7, 9}));
  FailureLog in_place = log;
  truncate_failure_log(&in_place, 3, &patterns);
  EXPECT_EQ(patterns, (std::vector<std::int32_t>{1, 4, 7}));
  EXPECT_EQ(in_place.scan_fails, cut.scan_fails);
  EXPECT_EQ(in_place.po_fails, cut.po_fails);
  EXPECT_EQ(in_place.pattern_limit, 3);
}

TEST(FailureLogTest, ReusedBufferMatchesAFreshLog) {
  const Netlist nl = testing::small_netlist(2);
  const ScanChains chains = make_chains(nl, 4);
  const XorCompactor compactor(chains, 2);
  const std::vector<Observation> a = {
      {0, false, chains.flop_at(0, 1)}, {0, false, chains.flop_at(1, 1)},
      {2, true, 1}, {5, false, chains.flop_at(2, 3)}};
  const std::vector<Observation> b = {{1, false, chains.flop_at(3, 0)},
                                      {1, true, 0}};
  FailureLog buffer;
  for (const XorCompactor* c : {&compactor, static_cast<const XorCompactor*>(
                                                nullptr)}) {
    for (const auto* raw : {&a, &b}) {
      make_failure_log(*raw, chains, c, &buffer);
      const FailureLog fresh = make_failure_log(*raw, chains, c);
      EXPECT_EQ(buffer.compacted, fresh.compacted);
      EXPECT_EQ(buffer.scan_fails, fresh.scan_fails);
      EXPECT_EQ(buffer.channel_fails, fresh.channel_fails);
      EXPECT_EQ(buffer.po_fails, fresh.po_fails);
      EXPECT_EQ(buffer.pattern_limit, 0);
      buffer.pattern_limit = 7;  // stale state the next fill must reset
    }
  }
}

TEST(FailureLogTest, EmptyLog) {
  FailureLog log;
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.num_failing_patterns(), 0);
  EXPECT_EQ(log.num_failing_bits(), 0);
}

}  // namespace
}  // namespace m3dfl
