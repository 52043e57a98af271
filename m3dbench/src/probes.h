// Layer probes of the traced run.
//
// The service worker is opaque from outside, so the traced run also drives
// each layer's public functions directly, on the workload's own design,
// logs and training set, with a span around every call: the design build
// step by step, the serial diagnosis stages a worker runs, fault
// simulation, streaming back-trace, the session journal, training, and
// model loading.  Every probe checks its outputs against the workload's
// reference, so a probe that diverges counts as a failed operation.
#ifndef M3DBENCH_PROBES_H_
#define M3DBENCH_PROBES_H_

#include <memory>
#include <string>
#include <vector>

#include "common.h"

namespace m3dbench {

// Counters the serve layer reports for a run's services.
struct ServeStats {
  std::vector<double> queue_ms;  // DiagnosisResult::queue_seconds, in ms
  std::int64_t lookups = 0;      // cache hits + misses
  std::int64_t hits = 0;
  std::int64_t coalesced = 0;
  std::int64_t batches = 0;
  std::int64_t batched = 0;
  void add_counters(const serve::DiagnosisService& service);
};

// Exact work counts the probes measure (reported as per-layer metrics and
// pinned by the determinism check).
struct ProbeCounts {
  double atpg_patterns = 0.0;
  double atpg_coverage = 0.0;
  double subgraph_nodes_mean = 0.0;
  double candidates_mean = 0.0;
  double log_responses_mean = 0.0;
  double epochs_run = 0.0;
  std::vector<double> epoch_ms;
  double journal_appends = 0.0;
  double journal_bytes_per_record = 0.0;
};

struct ProbeInput {
  // The design the build probe replays, step by step.
  Profile profile = Profile::kAes;
  DesignConfig config = DesignConfig::kSyn2;
  std::shared_ptr<const Design> build_design;  // Design::build(profile, config)
  // The design the dies were logged on.
  std::shared_ptr<const Design> design;
  std::string model;                     // serialized framework
  const DiagnosisFramework* framework = nullptr;
  std::vector<const Die*> dies;          // each with its reference filled
  const LabeledDataset* train_data = nullptr;
  FrameworkOptions train_options;
};

// Runs every probe; spans land in `tracer`, checks in `out.checker`.
ProbeCounts run_probes(const ProbeInput& in, const RunOptions& run,
                       Tracer& tracer, Outcome& out);

// Assembles the per-layer metric set from the run's spans and counters.
void layer_metrics(const Tracer& tracer, const ServeStats& serve,
                   const ProbeCounts& counts, double overhead_frac,
                   Outcome& out);

}  // namespace m3dbench

#endif  // M3DBENCH_PROBES_H_
