#include "sim/fault_sim.h"

#include <algorithm>
#include <bit>
#include <limits>

namespace m3dfl {
namespace {

// Advances a 32-bit stamp version.  On wrap-around the stamp arrays it
// guards are cleared, so a stale stamp can never match again.
template <typename... Stamps>
void next_version(std::uint32_t& version, Stamps&... stamps) {
  if (++version != 0) return;
  (std::fill(stamps.begin(), stamps.end(), 0u), ...);
  version = 1;
}

}  // namespace

FaultSimulator::FaultSimulator(const Netlist& netlist,
                               const LocSimulator& good, const MivMap* mivs)
    : netlist_(&netlist), good_(&good), mivs_(mivs) {
  M3DFL_REQUIRE(&good.netlist() == &netlist,
                "good-machine results belong to a different netlist");
  const auto n = static_cast<std::size_t>(netlist.num_gates());
  level_.assign(n, 0);
  std::int32_t max_level = 0;
  for (GateId g : netlist.topo_order()) {
    std::int32_t lvl = 0;
    for (NetId in : netlist.gate(g).fanin) {
      lvl = std::max(
          lvl, level_[static_cast<std::size_t>(netlist.net(in).driver)]);
    }
    level_[static_cast<std::size_t>(g)] = lvl + 1;
    max_level = std::max(max_level, lvl + 1);
  }
  buckets_.resize(static_cast<std::size_t>(max_level) + 1);
  first_pin_.assign(n, kNullPin);
  for (GateId g = 0; g < netlist.num_gates(); ++g) {
    if (!netlist.gate(g).fanin.empty()) {
      first_pin_[static_cast<std::size_t>(g)] = netlist.input_pin(g, 0);
    }
  }
  flop_index_.assign(n, -1);
  for (std::size_t i = 0; i < netlist.flops().size(); ++i) {
    flop_index_[static_cast<std::size_t>(netlist.flops()[i])] =
        static_cast<std::int32_t>(i);
  }
  po_index_.assign(n, -1);
  for (std::size_t i = 0; i < netlist.primary_outputs().size(); ++i) {
    po_index_[static_cast<std::size_t>(netlist.primary_outputs()[i])] =
        static_cast<std::int32_t>(i);
  }

  const auto pins = static_cast<std::size_t>(netlist.num_pins());
  const auto nets = static_cast<std::size_t>(netlist.num_nets());
  branch_type_.assign(pins, FaultType::kSlowToRise);
  branch_stamp_.assign(pins, 0);
  stem_type_.assign(nets, FaultType::kSlowToRise);
  stem_stamp_.assign(nets, 0);
  branch_gate_stamp_.assign(n, 0);
  val_.assign(nets, 0);
  stamp_.assign(nets, 0);
  val1_.assign(nets, 0);
  stamp1_.assign(nets, 0);
  scheduled_.assign(n, 0);
}

void FaultSimulator::set_branch(PinId pin, GateId gate, FaultType type) {
  branch_type_[static_cast<std::size_t>(pin)] = type;
  branch_stamp_[static_cast<std::size_t>(pin)] = fault_version_;
  std::uint32_t& held = branch_gate_stamp_[static_cast<std::size_t>(gate)];
  if (held != fault_version_) {
    held = fault_version_;
    branch_gates_.push_back(gate);
  }
}

void FaultSimulator::load_faults(std::span<const Fault> faults) {
  const Netlist& nl = *netlist_;
  next_version(fault_version_, branch_stamp_, stem_stamp_,
               branch_gate_stamp_);
  stem_nets_.clear();
  branch_gates_.clear();
  has_static_ = false;
  for (const Fault& f : faults) {
    has_static_ = has_static_ || f.is_static();
    if (f.is_miv()) {
      M3DFL_REQUIRE(mivs_ != nullptr,
                    "MIV fault simulated without an MIV map");
      for (const PinRef& sink : mivs_->miv(f.miv).far_sinks) {
        set_branch(nl.pin_id(sink), sink.gate, FaultType::kMivDelay);
      }
      continue;
    }
    const PinRef ref = nl.pin_ref(f.pin);
    if (!ref.is_output()) {
      set_branch(f.pin, ref.gate, f.type);
      continue;
    }
    const NetId net = nl.gate(ref.gate).fanout;
    M3DFL_ASSERT(net != kNullNet);
    std::uint32_t& held = stem_stamp_[static_cast<std::size_t>(net)];
    if (held != fault_version_) {
      held = fault_version_;
      stem_type_[static_cast<std::size_t>(net)] = f.type;
      stem_nets_.push_back(net);
    }
  }
}

template <bool kLaunch>
std::uint64_t FaultSimulator::apply(FaultType type, NetId net,
                                    std::uint64_t v, std::int32_t w) const {
  if constexpr (kLaunch) {
    return is_static_fault(type) ? faulty_value(type, v, v) : v;
  } else {
    return faulty_value(type, value_v1(net, w), v);
  }
}

template <bool kLaunch>
std::uint64_t FaultSimulator::read_input(GateId g, std::int32_t i, NetId net,
                                         std::uint64_t v,
                                         std::int32_t w) const {
  if (branch_gate_stamp_[static_cast<std::size_t>(g)] != fault_version_) {
    return v;
  }
  const auto pin =
      static_cast<std::size_t>(first_pin_[static_cast<std::size_t>(g)] + i);
  return branch_stamp_[pin] == fault_version_
             ? apply<kLaunch>(branch_type_[pin], net, v, w)
             : v;
}

void FaultSimulator::begin_pass() {
  next_version(pass_, scheduled_);
  terminals_.clear();
  lo_ = std::numeric_limits<std::int32_t>::max();
  hi_ = 0;
}

void FaultSimulator::schedule(GateId g) {
  std::uint32_t& mark = scheduled_[static_cast<std::size_t>(g)];
  if (mark == pass_) return;
  mark = pass_;
  const std::int32_t lvl = level_[static_cast<std::size_t>(g)];
  if (lvl == 0) {
    terminals_.push_back(g);  // flop or PO
    return;
  }
  buckets_[static_cast<std::size_t>(lvl)].push_back(g);
  lo_ = std::min(lo_, lvl);
  hi_ = std::max(hi_, lvl);
}

template <bool kLaunch>
void FaultSimulator::seed(std::int32_t w) {
  for (NetId net : stem_nets_) {
    const std::uint64_t cur = value<kLaunch>(net, w);
    const std::uint64_t f = apply<kLaunch>(
        stem_type_[static_cast<std::size_t>(net)], net, cur, w);
    if (f != cur) {
      set_value<kLaunch>(net, f);
      schedule_sinks(net);
    }
  }
  for (GateId g : branch_gates_) schedule(g);
}

template <bool kLaunch>
void FaultSimulator::evaluate(GateId g, std::int32_t w) {
  const Gate& gate = netlist_->gate(g);
  const std::size_t k = gate.fanin.size();
  M3DFL_ASSERT(k <= 8);
  std::uint64_t inputs[8];
  for (std::size_t i = 0; i < k; ++i) {
    const NetId net = gate.fanin[i];
    inputs[i] = read_input<kLaunch>(g, static_cast<std::int32_t>(i), net,
                                    value<kLaunch>(net, w), w);
  }
  std::uint64_t outv =
      eval_gate(gate.type, std::span<const std::uint64_t>(inputs, k));
  const NetId out = gate.fanout;
  if (stem_stamp_[static_cast<std::size_t>(out)] == fault_version_) {
    outv = apply<kLaunch>(stem_type_[static_cast<std::size_t>(out)], out,
                          outv, w);
  }
  if (outv != value<kLaunch>(out, w)) {
    set_value<kLaunch>(out, outv);
    schedule_sinks(out);
  }
}

template <bool kLaunch>
void FaultSimulator::propagate(std::int32_t w) {
  // Sinks sit strictly above their drivers, so a bucket never grows while
  // it is drained and hi_ can only rise ahead of the sweep.
  for (std::int32_t lvl = lo_; lvl <= hi_; ++lvl) {
    std::vector<GateId>& bucket = buckets_[static_cast<std::size_t>(lvl)];
    for (GateId g : bucket) evaluate<kLaunch>(g, w);
    bucket.clear();
  }
}

bool FaultSimulator::run_word(std::int32_t w,
                              std::vector<Observation>* out) {
  const Netlist& nl = *netlist_;
  next_version(version_, stamp_, stamp1_);
  relaunched_.clear();

  // ---- Launch cycle (static faults only) -----------------------------------
  if (has_static_) {
    begin_pass();
    seed<true>(w);
    propagate<true>(w);
    // Re-launch the flops whose faulty launch capture differs: their Q nets
    // carry it through the at-speed cycle.  (Good launch state == good V1 of
    // the D net == good V2 of the Q net.)
    for (GateId t : terminals_) {
      if (flop_index_[static_cast<std::size_t>(t)] < 0) continue;
      const Gate& ff = nl.gate(t);
      if (ff.fanout == kNullNet) continue;
      const NetId d = ff.fanin[0];
      const std::uint64_t v = read_input<true>(t, 0, d, value_v1(d, w), w);
      if (v != good_->v2(ff.fanout, w)) {
        set_value<false>(ff.fanout, v);
        relaunched_.push_back(ff.fanout);
      }
    }
  }

  // ---- At-speed capture cycle ----------------------------------------------
  begin_pass();
  for (NetId q : relaunched_) schedule_sinks(q);
  seed<false>(w);
  propagate<false>(w);

  // ---- Observation ---------------------------------------------------------
  const std::uint64_t mask = valid_mask(good_->num_patterns(), w);
  hits_.clear();
  for (GateId t : terminals_) {
    const NetId d = nl.gate(t).fanin[0];
    const std::uint64_t v = read_input<false>(t, 0, d, value_v2(d, w), w);
    const std::uint64_t diff = (v ^ good_->v2(d, w)) & mask;
    if (diff == 0) continue;
    if (out == nullptr) return true;
    const std::int32_t fi = flop_index_[static_cast<std::size_t>(t)];
    const std::uint64_t key =
        fi >= 0 ? static_cast<std::uint64_t>(fi)
                : (1ULL << 32) | static_cast<std::uint64_t>(
                                     po_index_[static_cast<std::size_t>(t)]);
    hits_.push_back(Hit{key, diff});
  }
  if (hits_.empty()) return false;
  // Emit in (pattern, po-flag, index) order: terminals sorted once, then
  // pattern bits in ascending order across them.
  std::sort(hits_.begin(), hits_.end(),
            [](const Hit& a, const Hit& b) { return a.key < b.key; });
  std::uint64_t bits = 0;
  for (const Hit& h : hits_) bits |= h.diff;
  while (bits != 0) {
    const int b = std::countr_zero(bits);
    bits &= bits - 1;
    for (const Hit& h : hits_) {
      if (((h.diff >> b) & 1ULL) == 0) continue;
      out->push_back(Observation{w * kWordBits + b, (h.key >> 32) != 0,
                                 static_cast<std::int32_t>(h.key)});
    }
  }
  return true;
}

std::vector<Observation> FaultSimulator::simulate(const Fault& fault) {
  return simulate(std::span<const Fault>(&fault, 1));
}

std::vector<Observation> FaultSimulator::simulate(
    std::span<const Fault> faults) {
  std::vector<Observation> out;
  simulate(faults, &out);
  return out;
}

void FaultSimulator::simulate(std::span<const Fault> faults,
                              std::vector<Observation>* out) {
  out->clear();
  load_faults(faults);
  for (std::int32_t w = 0; w < good_->num_words(); ++w) {
    run_word(w, out);
  }
}

bool FaultSimulator::detects(const Fault& fault) {
  load_faults(std::span<const Fault>(&fault, 1));
  for (std::int32_t w = 0; w < good_->num_words(); ++w) {
    if (run_word(w, nullptr)) return true;
  }
  return false;
}

}  // namespace m3dfl
