// Tester failure logs.
//
// A failure log is what the tester reports for one failing die: the set of
// test patterns that failed and, per failing pattern, the observation points
// where the response mismatched.  Two acquisition modes exist, mirroring the
// paper's with/without response compaction studies:
//  * bypass     — raw scan-out: every failing *scan cell* is identified;
//  * compacted  — XOR space compaction: a failing bit only identifies a
//    (pattern, channel, shift-position) triple, i.e. the parity of the
//    aliased cells, losing which chain actually failed.
// Primary outputs are observed directly in both modes.
#ifndef M3DFL_DIAG_FAILURE_LOG_H_
#define M3DFL_DIAG_FAILURE_LOG_H_

#include <cstdint>
#include <vector>

#include "dft/compactor.h"
#include "dft/scan.h"
#include "sim/fault_sim.h"

namespace m3dfl {

// One failing compacted scan bit.
struct ChannelFail {
  std::int32_t pattern = 0;
  std::int32_t channel = 0;
  std::int32_t position = 0;
  friend bool operator==(const ChannelFail&, const ChannelFail&) = default;
  friend auto operator<=>(const ChannelFail&, const ChannelFail&) = default;
};

struct FailureLog {
  bool compacted = false;
  // Bypass mode: failing scan cells (Observation::at_po == false).
  std::vector<Observation> scan_fails;
  // Compacted mode: failing channel bits.
  std::vector<ChannelFail> channel_fails;
  // Failing primary outputs (both modes).
  std::vector<Observation> po_fails;
  // Tester fail-memory depth: when positive, the log only covers the first
  // `pattern_limit` failing patterns (the tester stopped logging after
  // that).  Diagnosis must truncate candidate predictions the same way.
  std::int32_t pattern_limit = 0;

  bool empty() const {
    return scan_fails.empty() && channel_fails.empty() && po_fails.empty();
  }
  // Number of distinct failing patterns.
  std::int32_t num_failing_patterns() const;
  // Total failing tester bits.
  std::int32_t num_failing_bits() const;
};

// Builds a failure log from raw fault-simulation observations.  When
// `compactor` is non-null the scan part is passed through XOR compaction
// (odd parity over the aliased cells fails); otherwise bypass mode.
FailureLog make_failure_log(const std::vector<Observation>& raw,
                            const ScanChains& chains,
                            const XorCompactor* compactor);
// Same, written into `*out` (fully overwritten) so hot loops reuse its
// buffers.
void make_failure_log(const std::vector<Observation>& raw,
                      const ScanChains& chains, const XorCompactor* compactor,
                      FailureLog* out);

// Distinct failing patterns of a log, ascending, written into `*out`.
void failing_patterns(const FailureLog& log, std::vector<std::int32_t>* out);

// Models the tester's limited fail memory: keeps only the entries of the
// first `max_failing_patterns` distinct failing patterns (stop-on-Nth-fail).
// Real ATE always truncates failure logs this way, and diagnosing from
// truncated logs is the root of much of the resolution loss commercial
// tools exhibit — especially with large pattern sets (netcard) and response
// compaction, where each surviving bit carries less information.
// No-op when max_failing_patterns <= 0; otherwise the returned log holds no
// spare capacity.
FailureLog truncate_failure_log(FailureLog log,
                                std::int32_t max_failing_patterns);
// In-place form for hot loops: `*patterns` must hold failing_patterns(*log)
// and is truncated along with the log.
void truncate_failure_log(FailureLog* log, std::int32_t max_failing_patterns,
                          std::vector<std::int32_t>* patterns);

}  // namespace m3dfl

#endif  // M3DFL_DIAG_FAILURE_LOG_H_
