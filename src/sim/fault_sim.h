// Levelized event-driven fault simulator.
//
// Simulates faulty machines on top of the good-machine results of a
// LocSimulator run, word-parallel over 64 patterns.  Per pattern word only
// the gates an event reaches are re-evaluated: the fault sites seed events,
// scheduled gates are processed level by level from per-level buckets, and a
// gate schedules its sinks only when its faulty output differs from the
// value its net already holds.  The flops and primary outputs the events
// reach are the observation terminals.
//
// Per-netlist tables (combinational level, first input-pin id, flop and PO
// indices) are built once per simulator.  Fault overrides live in flat
// per-pin (branch) and per-net (stem) arrays stamped with a per-call
// version, and the faulty net values and the schedule are stamped the same
// way, so no call allocates memory proportional to the design.  When one
// call injects several faults on one site, the first stem fault on a net
// wins and the last branch fault on a pin wins.
//
// Delay faults (the paper's model) corrupt only the at-speed capture cycle,
// so a single capture pass over the V2 plane suffices; each override holds
// transitions at the launch (V1) value.  Static stuck-at faults (the
// library's extension) corrupt the launch cycle too.  The same engine then
// runs twice per word: a launch pass over the V1 plane with only the static
// overrides, a re-launch of every flop whose faulty V1 D value differs from
// the good one onto its Q net, and the capture pass from there, in which
// delay overrides take the *faulty* launch value.  That is exact two-cycle
// LOC semantics.
//
// Multi-fault injection (paper Sec. VII-A: 2-5 TDFs in one tier) applies
// each fault's behaviour to the value actually arriving at its site, so
// upstream fault effects compose correctly.
#ifndef M3DFL_SIM_FAULT_SIM_H_
#define M3DFL_SIM_FAULT_SIM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "m3d/miv.h"
#include "netlist/netlist.h"
#include "sim/fault.h"
#include "sim/simulator.h"

namespace m3dfl {

// One failing tester observation: pattern index plus the observation point
// (a scan cell by flop index, or a primary output by PO index).
struct Observation {
  std::int32_t pattern = 0;
  bool at_po = false;
  std::int32_t index = 0;  // flop index or PO index

  friend bool operator==(const Observation&, const Observation&) = default;
  friend auto operator<=>(const Observation&, const Observation&) = default;
};

class FaultSimulator {
 public:
  // `mivs` may be null if no MIV faults will be simulated.
  FaultSimulator(const Netlist& netlist, const LocSimulator& good,
                 const MivMap* mivs = nullptr);

  // All failing observations of the fault (set) across all patterns, sorted
  // by (pattern, po-flag, index).
  std::vector<Observation> simulate(const Fault& fault);
  std::vector<Observation> simulate(std::span<const Fault> faults);
  // Same, written into `*out` (cleared first) so hot loops reuse its
  // capacity.
  void simulate(std::span<const Fault> faults, std::vector<Observation>* out);

  // True iff any pattern detects the fault; early-exits on first detection.
  bool detects(const Fault& fault);

 private:
  // A terminal whose faulty value differs in the current word.
  struct Hit {
    std::uint64_t key;   // (at_po << 32) | index: the observation order
    std::uint64_t diff;  // failing pattern bits of the word
  };

  // Stamps the fault overrides of one call.
  void load_faults(std::span<const Fault> faults);
  void set_branch(PinId pin, GateId gate, FaultType type);
  // Simulates one pattern word; appends its failing observations in order.
  // Returns true if any failure was found (for detects()).
  bool run_word(std::int32_t w, std::vector<Observation>* out);

  // One event-driven pass: the launch pass (kLaunch, V1 plane, static
  // overrides only) or the capture pass (V2 plane, every override).
  template <bool kLaunch>
  void seed(std::int32_t w);
  template <bool kLaunch>
  void propagate(std::int32_t w);
  template <bool kLaunch>
  void evaluate(GateId g, std::int32_t w);
  // The value of `net` after fault `type` acts on it in this pass.
  template <bool kLaunch>
  std::uint64_t apply(FaultType type, NetId net, std::uint64_t v,
                      std::int32_t w) const;
  // The value gate `g` reads at input `i` (net `net` carrying `v`).
  template <bool kLaunch>
  std::uint64_t read_input(GateId g, std::int32_t i, NetId net,
                           std::uint64_t v, std::int32_t w) const;

  void begin_pass();
  void schedule(GateId g);
  void schedule_sinks(NetId net) {
    for (const PinRef& sink : netlist_->net(net).sinks) schedule(sink.gate);
  }

  template <bool kLaunch>
  std::uint64_t value(NetId net, std::int32_t w) const {
    return kLaunch ? value_v1(net, w) : value_v2(net, w);
  }
  template <bool kLaunch>
  void set_value(NetId net, std::uint64_t v) {
    const auto i = static_cast<std::size_t>(net);
    (kLaunch ? stamp1_ : stamp_)[i] = version_;
    (kLaunch ? val1_ : val_)[i] = v;
  }
  // Launch-cycle faulty value of a net (falls back to the good V1).
  std::uint64_t value_v1(NetId net, std::int32_t w) const {
    return stamp1_[static_cast<std::size_t>(net)] == version_
               ? val1_[static_cast<std::size_t>(net)]
               : good_->v1(net, w);
  }
  // Capture-cycle faulty value of a net (falls back to the good V2).
  std::uint64_t value_v2(NetId net, std::int32_t w) const {
    return stamp_[static_cast<std::size_t>(net)] == version_
               ? val_[static_cast<std::size_t>(net)]
               : good_->v2(net, w);
  }

  const Netlist* netlist_;
  const LocSimulator* good_;
  const MivMap* mivs_;

  // ---- Per-netlist tables --------------------------------------------------
  std::vector<std::int32_t> level_;        // gate -> comb level (0 non-comb)
  std::vector<PinId> first_pin_;           // gate -> first input-pin id
  std::vector<std::int32_t> flop_index_;   // gate -> flop index (-1 otherwise)
  std::vector<std::int32_t> po_index_;     // gate -> PO index (-1 otherwise)

  // ---- Fault overrides of the current call ---------------------------------
  std::uint32_t fault_version_ = 0;
  std::vector<FaultType> branch_type_;     // per input pin
  std::vector<std::uint32_t> branch_stamp_;
  std::vector<FaultType> stem_type_;       // per net
  std::vector<std::uint32_t> stem_stamp_;
  std::vector<std::uint32_t> branch_gate_stamp_;  // gate holds a branch
  std::vector<NetId> stem_nets_;
  std::vector<GateId> branch_gates_;
  bool has_static_ = false;

  // ---- Faulty values of the current word (V2 and V1 planes) ---------------
  std::uint32_t version_ = 0;
  std::vector<std::uint64_t> val_;
  std::vector<std::uint32_t> stamp_;
  std::vector<std::uint64_t> val1_;
  std::vector<std::uint32_t> stamp1_;

  // ---- Schedule of the current pass ----------------------------------------
  std::uint32_t pass_ = 0;
  std::vector<std::uint32_t> scheduled_;   // per gate
  std::vector<std::vector<GateId>> buckets_;  // per comb level
  std::int32_t lo_ = 0;
  std::int32_t hi_ = 0;
  std::vector<GateId> terminals_;          // reached flops and POs
  std::vector<NetId> relaunched_;          // Q nets re-launched this word
  std::vector<Hit> hits_;
};

}  // namespace m3dfl

#endif  // M3DFL_SIM_FAULT_SIM_H_
