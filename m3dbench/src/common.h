// Shared pieces of the benchmark driver: run options, result accounting,
// statistics, seeded workload inputs, the serial reference path, quality
// scoring, and the aes set-up the diagnosis workloads share.
#ifndef M3DBENCH_COMMON_H_
#define M3DBENCH_COMMON_H_

#include <atomic>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/framework.h"
#include "core/pipeline.h"
#include "serve/service.h"
#include "trace.h"

namespace m3dbench {

using namespace m3dfl;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Scratch space for journals, inside the checkout; removed at exit.
  std::string scratch_dir;
  // Where the traced run writes its spans.
  std::string trace_path;
  // Service worker threads: at most nproc - 1, so the submitting thread
  // keeps a core, and never more than kMaxWorkers so the figure does not
  // depend on the host's core count beyond that.
  std::int32_t workers = 3;
};

inline constexpr std::int32_t kMaxWorkers = 3;
// Every workload runs at least this many measured passes, even when they
// overrun --seconds, so each per-pass median has something to choose from.
inline constexpr int kMinPasses = 2;
inline constexpr int kSetupRepeats = 3;

// Metric name -> (value, unit), printed in insertion order.
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  std::string to_json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

// Operation accounting and the output-correctness gate.  Every checked
// operation counts as attempted; a mismatch or a non-kOk status counts as
// failed and is reported on stderr (the first few in full).
class Checker {
 public:
  void check(bool ok, const std::string& what);
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

// What one workload run produced.
struct Outcome {
  MetricSet end_to_end;
  MetricSet per_layer;
  // Values that must repeat bit for bit for a fixed seed: quality metrics
  // and work counts, plus a digest of the generated inputs.
  std::map<std::string, double> exact;
  std::string inputs_digest;
  Checker checker;
};

// ---- statistics -------------------------------------------------------------

double mean(const std::vector<double>& v);
double median(std::vector<double> v);
// Linear interpolation between closest ranks, q in [0, 1].
double percentile(std::vector<double> v, double q);
// Runs `work` until `seconds` have elapsed and at least kMinPasses passes
// ran; `work` receives the pass index.  Returns the number of passes.
template <typename F>
int run_passes(double seconds, F&& work) {
  const Clock::time_point t0 = Clock::now();
  int passes = 0;
  while (passes < kMinPasses || seconds_since(t0) < seconds) work(passes++);
  return passes;
}
// Per-key samples: median per key first, then the percentile across keys
// (the latency rule: per-die median over passes, percentile over dies).
class KeyedSamples {
 public:
  explicit KeyedSamples(std::size_t keys) : samples_(keys) {}
  void add(std::size_t key, double value) { samples_[key].push_back(value); }
  std::vector<double> medians() const;

 private:
  std::vector<std::vector<double>> samples_;
};

// Peak resident set size of this process (VmHWM), in MiB.
double peak_rss_mb();

// Calls fn(i) for every i in [0, n) on `threads` threads, the caller's
// included, and rethrows the first exception once every thread has joined.
template <typename F>
void parallel_for(std::int32_t threads, std::size_t n, F&& fn) {
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::exception_ptr error;
  const auto work = [&] {
    try {
      for (std::size_t i = next++; i < n; i = next++) fn(i);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mu);
      if (!error) error = std::current_exception();
      next = n;  // the other threads stop at their next index
    }
  };
  std::vector<std::thread> pool;
  for (std::int32_t t = 1; t < threads; ++t) pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}
std::uint64_t fnv1a(const std::string& text, std::uint64_t hash = 0);

// ---- workload inputs --------------------------------------------------------

// One failing die as the tester reports it.
struct Die {
  Sample sample;           // the log plus its ground truth
  std::string text;        // the log in faillog text form
  std::vector<std::string> body;  // text lines after the header
  std::int32_t records = 0;       // failing observations in the log
  std::string reference;   // serial-reference rendering of its diagnosis
};

// Natural shares (per mille) of failure logs by their number of distinct
// failing patterns: share[k] for k + 1 patterns, the last entry for that
// many or more.  Per-log diagnosis cost and report size fall steeply with
// that count (one failing pattern leaves the widest suspect set), so an
// unstratified draw lets a handful of rare logs swing a run's totals by
// tens of percent from seed to seed.
struct PatternShares {
  std::vector<int> per_mille;  // sums to 1000
  // Upper pattern count of each entry (inclusive); the last is unbounded.
  std::vector<int> upper;
};
// aes Syn-2, 20% MIV faults, measured over 2000 generate_samples logs.
const PatternShares& aes_syn2_shares();
// leon3mp Syn-2: its tester logs at most 3 failing patterns per die.
const PatternShares& leon_syn2_shares();

// Distinct failure logs on `design`, drawn from generate_samples (20% MIV
// faults) with seed `seed`, stratified to `shares`: the mix is what
// generate_samples produces, only with its sampling noise removed.
// Returned in a seeded shuffled order.
std::vector<Die> stratified_dies(const DesignContext& design,
                                 const PatternShares& shares,
                                 std::uint64_t seed, std::int32_t count,
                                 Tracer& tracer);

// The serial reference rendering of one diagnosis: diagnose_atpg +
// subgraph_for_log + DiagnosisFramework::diagnose, with the back-trace
// confidence, rendered by serve::result_to_string.
std::string reference_result(const Design& design,
                             const DiagnosisFramework& framework,
                             const FailureLog& log);
// Fills Die::reference for every die, spreading the dies over `threads`
// threads (each die still takes the serial path).
void compute_references(const Design& design,
                        const DiagnosisFramework& framework,
                        std::vector<Die>& dies, std::int32_t threads);

// ---- quality ----------------------------------------------------------------

// Accuracy, resolution and first-hit index of diagnosis reports (the
// paper's report metrics), and the Tier-predictor's accuracy on dies whose
// defect sits in a tier.
class QualityTotals {
 public:
  void add(const DesignContext& design, const DiagnosisReport& report,
           const FrameworkPrediction& prediction, const Sample& sample);
  double accuracy() const;
  double resolution() const;
  double fhi() const;
  double tier_acc() const;

 private:
  std::int64_t dies_ = 0;
  std::int64_t hits_ = 0;
  double resolution_sum_ = 0.0;
  double fhi_sum_ = 0.0;
  std::int64_t tier_dies_ = 0;
  std::int64_t tier_hits_ = 0;
};

// Records accuracy, tier_acc, resolution and fhi as end-to-end metrics.
void record_quality(const QualityTotals& quality, Outcome& out);

// ---- aes set-up shared by the diagnosis workloads ---------------------------

struct DiagSetup {
  std::shared_ptr<const Design> syn1;
  std::shared_ptr<const Design> syn2;
  LabeledDataset train_data;
  std::string model;  // DiagnosisFramework::save of the trained model
  std::shared_ptr<const DiagnosisFramework> framework;
  FrameworkOptions options;  // what the model was trained with
  double total_s = 0.0;      // everything, through register_design
};

// Framework options of every model the benchmark trains: a fixed epoch
// budget (patience equal to the budget disables early stopping), so the
// amount of training work does not depend on the loss curve.
FrameworkOptions framework_options(std::int32_t epochs);

// Builds aes Syn-1 and Syn-2, trains the transfer model on Syn-1 (plus the
// two augmentation partitions), loads it into a service and registers
// Syn-2.
DiagSetup setup_diag(const RunOptions& run, Tracer& tracer);
// Repeats the set-up until kSetupRepeats have run (each must train the same
// model bytes as `first`) and records the median as setup_s.  Called after
// the passes, so the repeats are spread over the run instead of sharing one
// stretch of host load.
void repeat_setup(const DiagSetup& first, const RunOptions& run,
                  Tracer& tracer, Outcome& out);

serve::ServiceOptions service_options(const RunOptions& run,
                                      std::size_t requests);
// A fresh service (cold cache) that loads `model` and registers `design`
// (the register_design call is traced as lint.register_design).  Returns
// the design id through `id`.
std::unique_ptr<serve::DiagnosisService> fresh_service(
    const std::string& model, std::shared_ptr<const Design> design,
    const RunOptions& run, std::size_t requests, Tracer& tracer,
    std::int32_t& id);

}  // namespace m3dbench

#endif  // M3DBENCH_COMMON_H_
