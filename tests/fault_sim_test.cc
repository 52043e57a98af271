#include <algorithm>
#include <map>

#include <gtest/gtest.h>

#include "core/framework.h"
#include "m3d/partition.h"
#include "sim/fault_sim.h"
#include "test_helpers.h"

namespace m3dfl {
namespace {

// Brute-force reference: full scalar re-simulation of the faulty machine,
// one pattern at a time, with no cone extraction or word packing.  Anything
// the event-driven simulator reports must match this.
class ReferenceSim {
 public:
  ReferenceSim(const Netlist& nl, const PatternSet& patterns,
               const MivMap* mivs)
      : nl_(nl), patterns_(patterns), mivs_(mivs) {}

  std::vector<Observation> simulate(std::span<const Fault> faults) const {
    // Branch overrides: input pin -> fault type; stem overrides: net -> type.
    std::map<PinId, FaultType> branches;
    std::map<NetId, FaultType> stems;
    for (const Fault& f : faults) {
      if (f.is_miv()) {
        const Miv& miv = mivs_->miv(f.miv);
        for (const PinRef& sink : miv.far_sinks) {
          branches[nl_.pin_id(sink)] = FaultType::kMivDelay;
        }
      } else if (nl_.pin_ref(f.pin).is_output()) {
        stems[nl_.pin_net(f.pin)] = f.type;
      } else {
        branches[f.pin] = f.type;
      }
    }

    std::vector<Observation> out;
    for (std::int32_t p = 0; p < patterns_.num_patterns; ++p) {
      const std::vector<char> v1_good = evaluate_v1(p, {}, {});
      const std::vector<char> good_v2 =
          evaluate_v2(p, v1_good, v1_good, {}, {});
      // Static faults corrupt the launch cycle too; evaluate_v1 applies only
      // the static subset of the overrides.
      const std::vector<char> v1_bad = evaluate_v1(p, branches, stems);
      const std::vector<char> bad_v2 =
          evaluate_v2(p, v1_bad, v1_bad, branches, stems);
      for (std::size_t i = 0; i < nl_.flops().size(); ++i) {
        const GateId ff = nl_.flops()[i];
        const NetId d = nl_.gate(ff).fanin[0];
        bool good = good_v2[static_cast<std::size_t>(d)] != 0;
        bool bad = bad_v2[static_cast<std::size_t>(d)] != 0;
        bad = apply_branch(branches, nl_.input_pin(ff, 0), d, v1_bad, bad);
        if (good != bad) {
          out.push_back(Observation{p, false, static_cast<std::int32_t>(i)});
        }
      }
      for (std::size_t i = 0; i < nl_.primary_outputs().size(); ++i) {
        const GateId po = nl_.primary_outputs()[i];
        const NetId n = nl_.gate(po).fanin[0];
        bool good = good_v2[static_cast<std::size_t>(n)] != 0;
        bool bad = bad_v2[static_cast<std::size_t>(n)] != 0;
        bad = apply_branch(branches, nl_.input_pin(po, 0), n, v1_bad, bad);
        if (good != bad) {
          out.push_back(Observation{p, true, static_cast<std::int32_t>(i)});
        }
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  static bool scalar_fault(FaultType type, bool launch, bool current) {
    return (faulty_value(type, launch ? ~0ULL : 0u,
                         current ? ~0ULL : 0u) & 1u) != 0;
  }

  bool apply_branch(const std::map<PinId, FaultType>& branches, PinId pin,
                    NetId net, const std::vector<char>& v1,
                    bool current) const {
    const auto it = branches.find(pin);
    if (it == branches.end()) return current;
    return scalar_fault(it->second, v1[static_cast<std::size_t>(net)] != 0,
                        current);
  }

  // Launch-cycle evaluation; only the *static* overrides act in this cycle.
  std::vector<char> evaluate_v1(
      std::int32_t p, const std::map<PinId, FaultType>& branches,
      const std::map<NetId, FaultType>& stems) const {
    std::map<PinId, FaultType> static_branches;
    std::map<NetId, FaultType> static_stems;
    for (const auto& [pin, type] : branches) {
      if (is_static_fault(type)) static_branches[pin] = type;
    }
    for (const auto& [net, type] : stems) {
      if (is_static_fault(type)) static_stems[net] = type;
    }
    std::vector<char> value(static_cast<std::size_t>(nl_.num_nets()), 0);
    for (std::size_t i = 0; i < nl_.primary_inputs().size(); ++i) {
      value[static_cast<std::size_t>(
          nl_.gate(nl_.primary_inputs()[i]).fanout)] =
          patterns_.pi.bit(static_cast<std::int32_t>(i), p) ? 1 : 0;
    }
    for (std::size_t i = 0; i < nl_.flops().size(); ++i) {
      value[static_cast<std::size_t>(nl_.gate(nl_.flops()[i]).fanout)] =
          patterns_.scan.bit(static_cast<std::int32_t>(i), p) ? 1 : 0;
    }
    // Static seeds on source nets (constants ignore the launch argument).
    for (const auto& [net, type] : static_stems) {
      const GateId driver = nl_.net(net).driver;
      if (!is_combinational(nl_.gate(driver).type)) {
        value[static_cast<std::size_t>(net)] =
            scalar_fault(type, false, false) ? 1 : 0;
      }
    }
    if (static_branches.empty() && static_stems.empty()) {
      evaluate_comb(value, {}, {}, {});
    } else {
      evaluate_comb(value, value, static_branches, static_stems);
    }
    return value;
  }

  std::vector<char> evaluate_v2(std::int32_t p,
                                const std::vector<char>& launch,
                                const std::vector<char>& v1,
                                const std::map<PinId, FaultType>& branches,
                                const std::map<NetId, FaultType>& stems) const {
    (void)p;
    std::vector<char> value(static_cast<std::size_t>(nl_.num_nets()), 0);
    for (std::size_t i = 0; i < nl_.primary_inputs().size(); ++i) {
      value[static_cast<std::size_t>(
          nl_.gate(nl_.primary_inputs()[i]).fanout)] =
          patterns_.pi.bit(static_cast<std::int32_t>(i), p) ? 1 : 0;
    }
    for (std::size_t i = 0; i < nl_.flops().size(); ++i) {
      const Gate& ff = nl_.gate(nl_.flops()[i]);
      // Launch state: D value at (possibly faulty) V1, with any static/delay
      // override at the D pin applied at the launch capture.
      bool d = launch[static_cast<std::size_t>(ff.fanin[0])] != 0;
      d = apply_branch(branches, nl_.input_pin(nl_.flops()[i], 0),
                       ff.fanin[0], v1, d);
      value[static_cast<std::size_t>(ff.fanout)] = d ? 1 : 0;
    }
    // Seed stem overrides on source nets.
    for (const auto& [net, type] : stems) {
      const GateId driver = nl_.net(net).driver;
      if (!is_combinational(nl_.gate(driver).type)) {
        value[static_cast<std::size_t>(net)] =
            scalar_fault(type, v1[static_cast<std::size_t>(net)] != 0,
                         value[static_cast<std::size_t>(net)] != 0)
                ? 1
                : 0;
      }
    }
    evaluate_comb(value, v1, branches, stems);
    return value;
  }

  void evaluate_comb(std::vector<char>& value, const std::vector<char>& v1,
                     const std::map<PinId, FaultType>& branches,
                     const std::map<NetId, FaultType>& stems) const {
    for (GateId g : nl_.topo_order()) {
      const Gate& gate = nl_.gate(g);
      bool ins[8];
      std::size_t k = 0;
      for (std::size_t i = 0; i < gate.fanin.size(); ++i) {
        const NetId in = gate.fanin[i];
        bool v = value[static_cast<std::size_t>(in)] != 0;
        if (!v1.empty()) {
          v = apply_branch(branches,
                           nl_.input_pin(g, static_cast<std::int32_t>(i)), in,
                           v1, v);
        }
        ins[k++] = v;
      }
      bool out = eval_gate_scalar(gate.type, std::span<const bool>(ins, k));
      if (!v1.empty()) {
        const auto it = stems.find(gate.fanout);
        if (it != stems.end()) {
          out = scalar_fault(it->second,
                             v1[static_cast<std::size_t>(gate.fanout)] != 0,
                             out);
        }
      }
      value[static_cast<std::size_t>(gate.fanout)] = out ? 1 : 0;
    }
  }

  const Netlist& nl_;
  const PatternSet& patterns_;
  const MivMap* mivs_;
};

struct SimSetup {
  Netlist nl;
  TierAssignment tiers;
  MivMap mivs;
  PatternSet patterns;
  LocSimulator sim;

  explicit SimSetup(std::uint64_t seed)
      : nl(testing::small_netlist(seed)),
        tiers(partition_tiers(nl, {})),
        mivs(nl, tiers),
        patterns([&] {
          Rng rng(seed ^ 0xF00D);
          return PatternSet::random(
              static_cast<std::int32_t>(nl.primary_inputs().size()),
              static_cast<std::int32_t>(nl.flops().size()), 80, rng);
        }()),
        sim(nl) {
    sim.run(patterns);
  }
};

// A pin fault of one kind (0 STR, 1 STF, 3 SA0, 4 SA1) at `pin`.
Fault pin_fault(PinId pin, int kind) {
  switch (kind) {
    case 0: return Fault::slow_to_rise(pin);
    case 1: return Fault::slow_to_fall(pin);
    case 3: return Fault::stuck_at(pin, false);
    default: return Fault::stuck_at(pin, true);
  }
}
constexpr int kPinKinds[] = {0, 1, 3, 4};

// A random fault of one kind: a pin kind above, or 2 for an MIV fault.
Fault random_fault(const Netlist& nl, const MivMap& mivs, Rng& rng,
                   int kind) {
  if (kind == 2) {
    return Fault::miv_delay(static_cast<MivId>(
        rng.next_below(static_cast<std::uint64_t>(mivs.num_mivs()))));
  }
  return pin_fault(static_cast<PinId>(rng.next_below(
                       static_cast<std::uint64_t>(nl.num_pins()))),
                   kind);
}

// simulate() with its ordering contract checked: strictly increasing by
// (pattern, po-flag, index).
std::vector<Observation> sorted_simulate(FaultSimulator& fsim,
                                         std::span<const Fault> faults) {
  std::vector<Observation> obs = fsim.simulate(faults);
  EXPECT_TRUE(std::is_sorted(obs.begin(), obs.end()));
  EXPECT_EQ(std::adjacent_find(obs.begin(), obs.end()), obs.end());
  return obs;
}

class FaultSimVsReference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultSimVsReference, RandomTdfFaultsMatch) {
  SimSetup s(GetParam());
  FaultSimulator fsim(s.nl, s.sim, &s.mivs);
  ReferenceSim ref(s.nl, s.patterns, &s.mivs);
  Rng rng(GetParam() ^ 0xBEEF);
  for (int trial = 0; trial < 25; ++trial) {
    const PinId pin =
        static_cast<PinId>(rng.next_below(
            static_cast<std::uint64_t>(s.nl.num_pins())));
    const Fault f = rng.next_bool() ? Fault::slow_to_rise(pin)
                                    : Fault::slow_to_fall(pin);
    EXPECT_EQ(fsim.simulate(f), ref.simulate({&f, 1}))
        << fault_to_string(s.nl, f);
  }
}

TEST_P(FaultSimVsReference, MivFaultsMatch) {
  SimSetup s(GetParam());
  ASSERT_GT(s.mivs.num_mivs(), 0);
  FaultSimulator fsim(s.nl, s.sim, &s.mivs);
  ReferenceSim ref(s.nl, s.patterns, &s.mivs);
  Rng rng(GetParam() ^ 0xCAFE);
  for (int trial = 0; trial < 10; ++trial) {
    const Fault f = Fault::miv_delay(static_cast<MivId>(
        rng.next_below(static_cast<std::uint64_t>(s.mivs.num_mivs()))));
    EXPECT_EQ(fsim.simulate(f), ref.simulate({&f, 1}))
        << fault_to_string(s.nl, f);
  }
}

TEST_P(FaultSimVsReference, MultiFaultsMatch) {
  SimSetup s(GetParam());
  FaultSimulator fsim(s.nl, s.sim, &s.mivs);
  ReferenceSim ref(s.nl, s.patterns, &s.mivs);
  Rng rng(GetParam() ^ 0xD00D);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Fault> faults;
    const int k = 2 + static_cast<int>(rng.next_below(4));
    for (int i = 0; i < k; ++i) {
      const PinId pin = static_cast<PinId>(
          rng.next_below(static_cast<std::uint64_t>(s.nl.num_pins())));
      faults.push_back(rng.next_bool() ? Fault::slow_to_rise(pin)
                                       : Fault::slow_to_fall(pin));
    }
    EXPECT_EQ(fsim.simulate(std::span<const Fault>(faults.data(),
                                                   faults.size())),
              ref.simulate(std::span<const Fault>(faults.data(),
                                                  faults.size())));
  }
}

TEST_P(FaultSimVsReference, StuckAtFaultsMatch) {
  SimSetup s(GetParam());
  FaultSimulator fsim(s.nl, s.sim, &s.mivs);
  ReferenceSim ref(s.nl, s.patterns, &s.mivs);
  Rng rng(GetParam() ^ 0x5A5A);
  for (int trial = 0; trial < 20; ++trial) {
    const PinId pin = static_cast<PinId>(
        rng.next_below(static_cast<std::uint64_t>(s.nl.num_pins())));
    const Fault f = Fault::stuck_at(pin, rng.next_bool());
    EXPECT_EQ(fsim.simulate(f), ref.simulate({&f, 1}))
        << fault_to_string(s.nl, f);
  }
}

TEST_P(FaultSimVsReference, MixedStaticAndDelayFaultsMatch) {
  SimSetup s(GetParam());
  FaultSimulator fsim(s.nl, s.sim, &s.mivs);
  ReferenceSim ref(s.nl, s.patterns, &s.mivs);
  Rng rng(GetParam() ^ 0x1234);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Fault> faults;
    for (int i = 0; i < 3; ++i) {
      const PinId pin = static_cast<PinId>(
          rng.next_below(static_cast<std::uint64_t>(s.nl.num_pins())));
      switch (rng.next_below(4)) {
        case 0: faults.push_back(Fault::slow_to_rise(pin)); break;
        case 1: faults.push_back(Fault::slow_to_fall(pin)); break;
        case 2: faults.push_back(Fault::stuck_at(pin, false)); break;
        default: faults.push_back(Fault::stuck_at(pin, true)); break;
      }
    }
    EXPECT_EQ(fsim.simulate(std::span<const Fault>(faults.data(),
                                                   faults.size())),
              ref.simulate(std::span<const Fault>(faults.data(),
                                                  faults.size())));
  }
}

TEST_P(FaultSimVsReference, DetectsMatchesForEveryFaultKind) {
  SimSetup s(GetParam());
  ASSERT_GT(s.mivs.num_mivs(), 0);
  FaultSimulator fsim(s.nl, s.sim, &s.mivs);
  ReferenceSim ref(s.nl, s.patterns, &s.mivs);
  Rng rng(GetParam() ^ 0xDE7EC7);
  for (int kind = 0; kind < 5; ++kind) {
    for (int trial = 0; trial < 8; ++trial) {
      const Fault f = random_fault(s.nl, s.mivs, rng, kind);
      EXPECT_EQ(fsim.detects(f), !ref.simulate({&f, 1}).empty())
          << fault_to_string(s.nl, f);
    }
  }
  // Multi-fault (TDF only) and mixed (any kind) sets: the set itself, then
  // each member's detects() verdict right after it, so overrides left over
  // from the set would show.
  for (int trial = 0; trial < 8; ++trial) {
    const bool mixed = trial % 2 == 1;
    std::vector<Fault> faults;
    const int k = 2 + static_cast<int>(rng.next_below(4));
    for (int i = 0; i < k; ++i) {
      const int kind = static_cast<int>(rng.next_below(mixed ? 5 : 2));
      faults.push_back(random_fault(s.nl, s.mivs, rng, kind));
    }
    const std::span<const Fault> set(faults.data(), faults.size());
    EXPECT_EQ(sorted_simulate(fsim, set), ref.simulate(set));
    for (const Fault& f : faults) {
      EXPECT_EQ(fsim.detects(f), !ref.simulate({&f, 1}).empty())
          << fault_to_string(s.nl, f);
    }
  }
}

TEST_P(FaultSimVsReference, DuplicateFaultsOnOneSiteMatch) {
  SimSetup s(GetParam());
  FaultSimulator fsim(s.nl, s.sim, &s.mivs);
  ReferenceSim ref(s.nl, s.patterns, &s.mivs);
  Rng rng(GetParam() ^ 0xD0B1E);
  for (int trial = 0; trial < 12; ++trial) {
    const PinId pin = static_cast<PinId>(
        rng.next_below(static_cast<std::uint64_t>(s.nl.num_pins())));
    const Fault f = pin_fault(pin, kPinKinds[trial % 4]);
    const Fault twice[] = {f, f};
    const auto obs = sorted_simulate(fsim, twice);
    EXPECT_EQ(obs, ref.simulate(twice)) << fault_to_string(s.nl, f);
    EXPECT_EQ(obs, fsim.simulate(f)) << fault_to_string(s.nl, f);
    if (s.nl.pin_is_output(pin)) continue;
    // Two kinds on one branch pin: the last one wins.
    const Fault g = pin_fault(pin, kPinKinds[(trial + 1 + trial / 4) % 4]);
    const Fault both[] = {f, g};
    EXPECT_EQ(sorted_simulate(fsim, both), ref.simulate(both))
        << fault_to_string(s.nl, f) << " then " << fault_to_string(s.nl, g);
  }
  ASSERT_GT(s.mivs.num_mivs(), 0);
  const Fault miv = Fault::miv_delay(0);
  const Fault miv_twice[] = {miv, miv};
  EXPECT_EQ(sorted_simulate(fsim, miv_twice), ref.simulate(miv_twice));
}

TEST_P(FaultSimVsReference, StemAndBranchFaultsOnOneNetMatch) {
  SimSetup s(GetParam());
  FaultSimulator fsim(s.nl, s.sim, &s.mivs);
  ReferenceSim ref(s.nl, s.patterns, &s.mivs);
  Rng rng(GetParam() ^ 0x57E4);
  for (int trial = 0; trial < 16; ++trial) {
    const NetId net = static_cast<NetId>(
        rng.next_below(static_cast<std::uint64_t>(s.nl.num_nets())));
    const Net& n = s.nl.net(net);
    if (n.sinks.empty()) continue;
    const PinId stem = s.nl.output_pin(n.driver);
    const PinId branch = s.nl.pin_id(
        n.sinks[rng.next_below(static_cast<std::uint64_t>(n.sinks.size()))]);
    const Fault a = pin_fault(stem, kPinKinds[rng.next_below(4)]);
    const Fault b = pin_fault(branch, kPinKinds[rng.next_below(4)]);
    const Fault stem_first[] = {a, b};
    const Fault branch_first[] = {b, a};
    EXPECT_EQ(sorted_simulate(fsim, stem_first), ref.simulate(stem_first))
        << fault_to_string(s.nl, a) << " + " << fault_to_string(s.nl, b);
    EXPECT_EQ(sorted_simulate(fsim, branch_first), ref.simulate(branch_first))
        << fault_to_string(s.nl, b) << " + " << fault_to_string(s.nl, a);
  }
}

TEST_P(FaultSimVsReference, FaultUpstreamOfAStemFaultMatches) {
  // A fault on a gate's input and another on its output stem, every kind
  // pairing: the upstream effect re-evaluates the stem's driver, and the
  // stem override must act on that faulty output (and on the faulty launch
  // value when the upstream fault is static).
  SimSetup s(GetParam());
  FaultSimulator fsim(s.nl, s.sim, &s.mivs);
  ReferenceSim ref(s.nl, s.patterns, &s.mivs);
  Rng rng(GetParam() ^ 0x5E7713);
  const auto& topo = s.nl.topo_order();
  for (int trial = 0; trial < 4; ++trial) {
    const GateId g = topo[rng.next_below(topo.size())];
    const PinId in = s.nl.input_pin(
        g, static_cast<std::int32_t>(
               rng.next_below(s.nl.gate(g).fanin.size())));
    for (const int upstream : kPinKinds) {
      for (const int stem : kPinKinds) {
        const Fault faults[] = {pin_fault(in, upstream),
                                pin_fault(s.nl.output_pin(g), stem)};
        EXPECT_EQ(sorted_simulate(fsim, faults), ref.simulate(faults))
            << fault_to_string(s.nl, faults[0]) << " + "
            << fault_to_string(s.nl, faults[1]);
      }
    }
  }
}

TEST_P(FaultSimVsReference, FlopAndPoPinFaultsMatch) {
  SimSetup s(GetParam());
  FaultSimulator fsim(s.nl, s.sim, &s.mivs);
  ReferenceSim ref(s.nl, s.patterns, &s.mivs);
  std::vector<PinId> pins;
  for (std::size_t i = 0; i < s.nl.flops().size(); i += 5) {
    const GateId ff = s.nl.flops()[i];
    pins.push_back(s.nl.input_pin(ff, 0));  // D pin
    pins.push_back(s.nl.output_pin(ff));    // Q stem
  }
  for (std::size_t i = 0; i < s.nl.primary_outputs().size(); i += 3) {
    pins.push_back(s.nl.input_pin(s.nl.primary_outputs()[i], 0));
  }
  for (const PinId pin : pins) {
    for (const int kind : kPinKinds) {
      const Fault f = pin_fault(pin, kind);
      const auto expected = ref.simulate({&f, 1});
      EXPECT_EQ(sorted_simulate(fsim, {&f, 1}), expected)
          << fault_to_string(s.nl, f);
      EXPECT_EQ(fsim.detects(f), !expected.empty())
          << fault_to_string(s.nl, f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultSimVsReference,
                         ::testing::Values(1, 7, 23, 41, 77));

// The stock aes Syn-2 design (partitioned tiers, real MIVs, ATPG patterns)
// against the same oracle, every fault kind.
TEST(FaultSimVsReferenceStock, AesSyn2WithMivsMatches) {
  const std::unique_ptr<Design> design =
      Design::build(Profile::kAes, DesignConfig::kSyn2);
  const Netlist& nl = design->netlist();
  ASSERT_GT(design->mivs().num_mivs(), 0);
  FaultSimulator fsim(nl, design->good_sim(), &design->mivs());
  ReferenceSim ref(nl, design->patterns(), &design->mivs());
  Rng rng(0xAE5);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Fault> faults;
    if (trial < 15) {
      faults.push_back(random_fault(nl, design->mivs(), rng, trial % 5));
    } else {
      for (int i = 0; i < 3; ++i) {
        faults.push_back(random_fault(nl, design->mivs(), rng,
                                      static_cast<int>(rng.next_below(5))));
      }
    }
    const std::span<const Fault> set(faults.data(), faults.size());
    const auto expected = ref.simulate(set);
    EXPECT_EQ(sorted_simulate(fsim, set), expected)
        << fault_to_string(nl, faults[0]);
    if (faults.size() == 1) {
      EXPECT_EQ(fsim.detects(faults[0]), !expected.empty())
          << fault_to_string(nl, faults[0]);
    }
  }
}

TEST(FaultSimTest, DuplicateSiteFaultsFollowFirstStemLastBranch) {
  // Two kinds on one site in one call: the first stem fault on a net wins,
  // the last branch fault on a pin wins.
  SimSetup s(19);
  FaultSimulator fsim(s.nl, s.sim, &s.mivs);
  std::int32_t checked = 0;
  for (GateId g : s.nl.topo_order()) {
    if (checked >= 10) break;
    const PinId stem = s.nl.output_pin(g);
    const PinId branch = s.nl.input_pin(g, 0);
    const Fault stems[] = {Fault::slow_to_rise(stem),
                           Fault::stuck_at(stem, true)};
    EXPECT_EQ(fsim.simulate(stems), fsim.simulate(stems[0]));
    const Fault branches[] = {Fault::stuck_at(branch, false),
                              Fault::slow_to_fall(branch)};
    EXPECT_EQ(fsim.simulate(branches), fsim.simulate(branches[1]));
    ++checked;
  }
  EXPECT_EQ(checked, 10);
}

TEST(FaultSimTest, StuckAtCorruptsLaunchState) {
  // pi -> ff_a (D) ; ff_a.Q -> INV -> ff_b (D).  A SA1 on pi's net corrupts
  // ff_a's launch capture, which only becomes observable at ff_b through the
  // second cycle — the two-cycle semantics a capture-only model would miss.
  Netlist nl;
  const GateId pi = nl.add_gate(GateType::kPrimaryInput, "pi");
  const GateId ffa = nl.add_gate(GateType::kScanFlop, "ffa");
  const GateId inv = nl.add_gate(GateType::kInv, "inv");
  const GateId ffb = nl.add_gate(GateType::kScanFlop, "ffb");
  const NetId n_pi = nl.add_net();
  const NetId n_qa = nl.add_net();
  const NetId n_i = nl.add_net();
  const NetId n_qb = nl.add_net();  // scan-observed only
  nl.set_output(pi, n_pi);
  nl.set_output(ffa, n_qa);
  nl.set_output(inv, n_i);
  nl.set_output(ffb, n_qb);
  nl.connect_input(ffa, n_pi);
  nl.connect_input(inv, n_qa);
  nl.connect_input(ffb, n_i);
  nl.finalize();

  // One pattern: pi = 0, both flops load 0.
  PatternSet p;
  p.num_patterns = 1;
  p.pi = BitMatrix(1, 1);
  p.scan = BitMatrix(2, 1);
  LocSimulator sim(nl);
  sim.run(p);
  FaultSimulator fsim(nl, sim);

  // Good: launch captures ffa <- 0, V2: inv(0) = 1, ffb captures 1 and
  // ffa re-captures 0.  SA1 on the PI net: launch ffa <- 1, V2 inv(1) = 0 at
  // ffb, and ffa re-captures 1.
  const auto obs =
      fsim.simulate(Fault::stuck_at(nl.output_pin(pi), true));
  ASSERT_EQ(obs.size(), 2u);
  EXPECT_EQ(obs[0], (Observation{0, false, 0}));  // ffa: 0 -> 1
  EXPECT_EQ(obs[1], (Observation{0, false, 1}));  // ffb: 1 -> 0
}

TEST(FaultSimTest, DetectsAgreesWithSimulate) {
  SimSetup s(11);
  FaultSimulator fsim(s.nl, s.sim, &s.mivs);
  Rng rng(99);
  for (int trial = 0; trial < 40; ++trial) {
    const PinId pin = static_cast<PinId>(
        rng.next_below(static_cast<std::uint64_t>(s.nl.num_pins())));
    const Fault f = rng.next_bool() ? Fault::slow_to_rise(pin)
                                    : Fault::slow_to_fall(pin);
    EXPECT_EQ(fsim.detects(f), !fsim.simulate(f).empty());
  }
}

TEST(FaultSimTest, OppositeDirectionsDisjointActivation) {
  // A pattern that activates STR at a site cannot simultaneously activate
  // STF there: per pattern, the failing sets of the two directions at one
  // pin are disjoint.
  SimSetup s(13);
  FaultSimulator fsim(s.nl, s.sim, &s.mivs);
  const PinId pin = s.nl.output_pin(s.nl.topo_order()[5]);
  const auto rises = fsim.simulate(Fault::slow_to_rise(pin));
  const auto falls = fsim.simulate(Fault::slow_to_fall(pin));
  for (const Observation& r : rises) {
    for (const Observation& f : falls) {
      EXPECT_FALSE(r == f);
    }
  }
}

TEST(FaultSimTest, MivFaultSparesNearTierSinks) {
  // Build a dedicated circuit: one net with a near-tier and a far-tier sink.
  Netlist nl;
  const GateId pi = nl.add_gate(GateType::kPrimaryInput, "pi");
  const GateId ff_src = nl.add_gate(GateType::kScanFlop, "ffs");
  const GateId buf = nl.add_gate(GateType::kBuf, "buf");
  const GateId ff_near = nl.add_gate(GateType::kScanFlop, "ffn");
  const GateId ff_far = nl.add_gate(GateType::kScanFlop, "fff");
  const GateId po = nl.add_gate(GateType::kPrimaryOutput, "po");
  const NetId n_pi = nl.add_net();
  const NetId n_q = nl.add_net();
  const NetId n_b = nl.add_net();
  const NetId n_n = nl.add_net();
  const NetId n_f = nl.add_net();
  nl.set_output(pi, n_pi);
  nl.set_output(ff_src, n_q);
  nl.set_output(buf, n_b);
  nl.set_output(ff_near, n_n);
  nl.set_output(ff_far, n_f);
  nl.connect_input(buf, n_q);
  nl.connect_input(ff_near, n_b);  // near-tier sink of n_b
  nl.connect_input(ff_far, n_b);   // far-tier sink of n_b
  nl.connect_input(ff_src, n_pi);
  nl.connect_input(po, n_n);
  (void)n_f;
  nl.finalize();

  std::vector<std::int8_t> tiers(static_cast<std::size_t>(nl.num_gates()),
                                 static_cast<std::int8_t>(kBottomTier));
  TierAssignment ta(std::move(tiers));
  ta.set_tier(ff_far, kTopTier);
  const MivMap mivs(nl, ta);
  const MivId miv = mivs.miv_of_net(n_b);
  ASSERT_NE(miv, kNullMiv);

  // Patterns: load ffs with 0 then launch 1 (transition on n_b).
  PatternSet p;
  p.num_patterns = 1;
  p.pi = BitMatrix(1, 1);
  p.scan = BitMatrix(3, 1);
  p.pi.set_bit(0, 0, true);   // D of ff_src = 1
  // scan order = flop order: ffs, ffn, fff all load 0.
  LocSimulator sim(nl);
  sim.run(p);

  FaultSimulator fsim(nl, sim, &mivs);
  const auto obs = fsim.simulate(Fault::miv_delay(miv));
  // Launch: ffs goes 0 -> 1, so n_b rises in the at-speed cycle; the MIV
  // delays it only toward the far-tier flop fff (flop index 2).
  ASSERT_EQ(obs.size(), 1u);
  EXPECT_EQ(obs[0].pattern, 0);
  EXPECT_FALSE(obs[0].at_po);
  EXPECT_EQ(obs[0].index, 2);
}

TEST(FaultSimTest, UnactivatedFaultYieldsNoObservations) {
  // A slow-to-rise fault at a pin whose net never rises between launch and
  // capture is never activated, hence never observed.
  SimSetup s(17);
  FaultSimulator fsim(s.nl, s.sim, &s.mivs);
  std::int32_t checked = 0;
  for (PinId pin = 0; pin < s.nl.num_pins() && checked < 20; ++pin) {
    const NetId net = s.nl.pin_net(pin);
    if (net == kNullNet) continue;
    std::uint64_t rising = 0;
    for (std::int32_t w = 0; w < s.sim.num_words(); ++w) {
      rising |= s.sim.transition(net, w) & ~s.sim.v1(net, w) &
                valid_mask(s.sim.num_patterns(), w);
    }
    if (rising != 0) continue;
    ++checked;
    EXPECT_TRUE(fsim.simulate(Fault::slow_to_rise(pin)).empty())
        << s.nl.pin_name(pin);
  }
  EXPECT_GT(checked, 0);
}

}  // namespace
}  // namespace m3dfl
