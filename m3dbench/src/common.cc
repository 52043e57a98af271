#include "common.h"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <set>
#include <sstream>

#include <sys/resource.h>

#include "diag/log_io.h"
#include "diag/metrics.h"
#include "graph/backtrace.h"
#include "util/rng.h"

namespace m3dbench {

// ---- output -----------------------------------------------------------------

void MetricSet::set(const std::string& name, double value,
                    const std::string& unit) {
  items_.emplace_back(name, std::make_pair(value, unit));
}

std::string MetricSet::to_json() const {
  std::ostringstream os;
  os.precision(17);
  os << "{";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    const double v = items_[i].second.first;
    os << (i ? ", " : "") << "\"" << items_[i].first << "\": {\"value\": "
       << (std::isfinite(v) ? v : 0.0) << ", \"unit\": \""
       << items_[i].second.second << "\"}";
  }
  os << "}";
  return os.str();
}

void Checker::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failed_ <= 5) std::cerr << "m3dbench: FAILED: " << what << "\n";
}

// ---- statistics -------------------------------------------------------------

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::vector<double> KeyedSamples::medians() const {
  std::vector<double> out;
  for (const std::vector<double>& s : samples_) {
    if (!s.empty()) out.push_back(median(s));
  }
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::uint64_t fnv1a(const std::string& text, std::uint64_t hash) {
  if (hash == 0) hash = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// ---- workload inputs --------------------------------------------------------

namespace {

int pattern_class(const FailureLog& log, const PatternShares& shares) {
  std::set<std::int32_t> patterns;
  for (const Observation& o : log.scan_fails) patterns.insert(o.pattern);
  for (const Observation& o : log.po_fails) patterns.insert(o.pattern);
  for (const ChannelFail& c : log.channel_fails) patterns.insert(c.pattern);
  const int n = static_cast<int>(patterns.size());
  for (std::size_t c = 0; c + 1 < shares.upper.size(); ++c) {
    if (n <= shares.upper[c]) return static_cast<int>(c);
  }
  return static_cast<int>(shares.upper.size()) - 1;
}

// Largest-remainder apportionment of `count` over the class shares.
std::vector<std::int32_t> class_quotas(const PatternShares& shares,
                                       std::int32_t count) {
  const int classes = static_cast<int>(shares.per_mille.size());
  std::vector<std::int32_t> quota(classes);
  std::vector<std::pair<int, int>> remainder;  // (-remainder, class)
  std::int32_t given = 0;
  for (int c = 0; c < classes; ++c) {
    quota[c] = count * shares.per_mille[c] / 1000;
    given += quota[c];
    remainder.emplace_back(-(count * shares.per_mille[c] % 1000), c);
  }
  std::sort(remainder.begin(), remainder.end());
  for (std::size_t i = 0; given < count; ++i, ++given) {
    ++quota[remainder[i % remainder.size()].second];
  }
  return quota;
}

}  // namespace

const PatternShares& aes_syn2_shares() {
  static const PatternShares shares{
      {27, 21, 20, 25, 20, 14, 20, 18, 20, 14, 19, 60, 722},
      {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 15, 16}};
  return shares;
}

const PatternShares& leon_syn2_shares() {
  static const PatternShares shares{{10, 12, 978}, {1, 2, 3}};
  return shares;
}

std::vector<Die> stratified_dies(const DesignContext& design,
                                 const PatternShares& shares,
                                 std::uint64_t seed, std::int32_t count,
                                 Tracer& tracer) {
  const std::vector<std::int32_t> quota = class_quotas(shares, count);
  std::vector<std::int32_t> taken(quota.size(), 0);
  std::set<std::string> seen;
  std::vector<Die> dies;
  constexpr std::int32_t kBatch = 256;
  constexpr int kMaxRounds = 400;
  for (int round = 0; static_cast<std::int32_t>(dies.size()) < count;
       ++round) {
    M3DFL_REQUIRE(round < kMaxRounds,
                  "m3dbench: could not fill the failing-pattern quotas");
    DataGenOptions gen;
    gen.num_samples = kBatch;
    gen.miv_fault_prob = 0.2;
    gen.seed = seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(round);
    std::vector<Sample> batch;
    {
      ScopedSpan span(tracer, "diag.generate_samples", kBatch);
      batch = generate_samples(design, gen);
    }
    for (Sample& s : batch) {
      const int c = pattern_class(s.log, shares);
      if (taken[c] >= quota[c]) continue;
      std::string text = failure_log_to_string(s.log);
      if (!seen.insert(text).second) continue;  // keep signatures distinct
      ++taken[c];
      Die die;
      die.records = static_cast<std::int32_t>(
          s.log.scan_fails.size() + s.log.po_fails.size() +
          s.log.channel_fails.size());
      std::istringstream lines(text);
      std::string line;
      std::getline(lines, line);  // "m3dfl-faillog 1" header
      while (std::getline(lines, line)) die.body.push_back(line);
      die.text = std::move(text);
      die.sample = std::move(s);
      dies.push_back(std::move(die));
    }
  }
  Rng rng(seed ^ 0x5EEDF00DULL);
  rng.shuffle(dies);
  return dies;
}

std::string reference_result(const Design& design,
                             const DiagnosisFramework& framework,
                             const FailureLog& log) {
  const DesignContext ctx = design.context();
  serve::DiagnosisResult result;
  result.design = design.name();
  result.report = diagnose_atpg(ctx, log);
  const Subgraph subgraph = subgraph_for_log(design, log);
  result.pruned =
      framework.diagnose(ctx, subgraph, result.report, &result.prediction);
  result.confidence = framework.diagnosis_confidence(
      backtrace_with_support(design.graph(), ctx, log), &result.prediction);
  return serve::result_to_string(design.netlist(), result);
}

void compute_references(const Design& design,
                        const DiagnosisFramework& framework,
                        std::vector<Die>& dies, std::int32_t threads) {
  parallel_for(threads, dies.size(), [&](std::size_t i) {
    dies[i].reference = reference_result(design, framework, dies[i].sample.log);
  });
}

// ---- quality ----------------------------------------------------------------

void QualityTotals::add(const DesignContext& design,
                        const DiagnosisReport& report,
                        const FrameworkPrediction& prediction,
                        const Sample& sample) {
  const SampleEvaluation e = evaluate_report(design, report, sample);
  ++dies_;
  if (e.accurate) ++hits_;
  resolution_sum_ += e.resolution;
  fhi_sum_ += e.fhi;
  if (sample.fault_tier != kMivTier) {
    ++tier_dies_;
    if (prediction.tier == sample.fault_tier) ++tier_hits_;
  }
}

double QualityTotals::accuracy() const {
  return dies_ == 0 ? 0.0 : static_cast<double>(hits_) / dies_;
}
double QualityTotals::resolution() const {
  return dies_ == 0 ? 0.0 : resolution_sum_ / dies_;
}
double QualityTotals::fhi() const {
  return dies_ == 0 ? 0.0 : fhi_sum_ / dies_;
}
double QualityTotals::tier_acc() const {
  return tier_dies_ == 0 ? 0.0 : static_cast<double>(tier_hits_) / tier_dies_;
}

void record_quality(const QualityTotals& quality, Outcome& out) {
  out.end_to_end.set("accuracy", quality.accuracy(), "ratio");
  out.end_to_end.set("tier_acc", quality.tier_acc(), "ratio");
  out.end_to_end.set("resolution", quality.resolution(), "candidates");
  out.end_to_end.set("fhi", quality.fhi(), "rank");
  out.exact["accuracy"] = quality.accuracy();
  out.exact["tier_acc"] = quality.tier_acc();
  out.exact["resolution"] = quality.resolution();
  out.exact["fhi"] = quality.fhi();
}

// ---- aes set-up -------------------------------------------------------------

FrameworkOptions framework_options(std::int32_t epochs) {
  FrameworkOptions options;
  options.training.epochs = epochs;
  options.training.patience = epochs;
  return options;
}

serve::ServiceOptions service_options(const RunOptions& run,
                                      std::size_t requests) {
  serve::ServiceOptions options;
  options.num_threads = run.workers;
  // Everything is submitted at once: the queue holds the whole burst, so
  // submit() never blocks on backpressure.
  options.queue_capacity = std::max<std::size_t>(256, requests);
  return options;
}

std::unique_ptr<serve::DiagnosisService> fresh_service(
    const std::string& model, std::shared_ptr<const Design> design,
    const RunOptions& run, std::size_t requests, Tracer& tracer,
    std::int32_t& id) {
  std::unique_ptr<serve::DiagnosisService> service;
  {
    ScopedSpan span(tracer, "serve.start");
    std::istringstream is(model);
    service = std::make_unique<serve::DiagnosisService>(
        is, service_options(run, requests));
  }
  ScopedSpan span(tracer, "lint.register_design");
  id = service->register_design(std::move(design));
  return service;
}

namespace {

constexpr std::int32_t kAesTrainSyn1 = 40;
constexpr std::int32_t kAesTrainPerRandom = 20;
constexpr std::int32_t kAesEpochs = 20;
constexpr std::uint64_t kAesTrainSeed = 2024;

}  // namespace

DiagSetup setup_diag(const RunOptions& run, Tracer& tracer) {
  DiagSetup s;
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span(tracer, "core.design_build");
    s.syn1 = Design::build(Profile::kAes, DesignConfig::kSyn1);
    s.syn2 = Design::build(Profile::kAes, DesignConfig::kSyn2);
  }
  TransferTrainOptions data;
  data.samples_syn1 = kAesTrainSyn1;
  data.samples_per_random = kAesTrainPerRandom;
  data.seed = kAesTrainSeed;
  {
    ScopedSpan span(tracer, "core.build_transfer_training_set");
    s.train_data = build_transfer_training_set(Profile::kAes, *s.syn1, data);
  }
  s.options = framework_options(kAesEpochs);
  auto framework = std::make_shared<DiagnosisFramework>(s.options);
  {
    ScopedSpan span(tracer, "core.train");
    framework->train(s.train_data.graphs);
  }
  std::ostringstream model;
  framework->save(model);
  s.model = model.str();
  s.framework = std::move(framework);
  std::int32_t id = 0;
  fresh_service(s.model, s.syn2, run, 0, tracer, id)->shutdown();
  s.total_s = seconds_since(t0);
  return s;
}

void repeat_setup(const DiagSetup& first, const RunOptions& run,
                  Tracer& tracer, Outcome& out) {
  std::vector<double> total{first.total_s};
  for (int r = 1; r < kSetupRepeats; ++r) {
    const DiagSetup s = setup_diag(run, tracer);
    total.push_back(s.total_s);
    out.checker.check(s.model == first.model,
                      "set-up repeat " + std::to_string(r) +
                          " trained a different model");
  }
  out.end_to_end.set("setup_s", median(total), "s");
  out.exact["model_digest"] = static_cast<double>(fnv1a(first.model) >> 11);
}

}  // namespace m3dbench
