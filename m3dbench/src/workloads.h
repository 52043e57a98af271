// The four benchmark workloads.  Each does a fixed, seeded amount of work
// per pass, repeats it after a warm-up until --seconds have elapsed (and
// at least kMinPasses times), reports medians over the passes, and checks
// every output against the serial reference.  See m3dbench/README.md.
#ifndef M3DBENCH_WORKLOADS_H_
#define M3DBENCH_WORKLOADS_H_

#include "common.h"

namespace m3dbench {

Outcome diag_cold(const RunOptions& run);
Outcome diag_retest(const RunOptions& run);
Outcome stream_feed(const RunOptions& run);
Outcome offline_train(const RunOptions& run);

}  // namespace m3dbench

#endif  // M3DBENCH_WORKLOADS_H_
