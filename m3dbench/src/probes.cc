#include "probes.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <sstream>
#include <thread>

#include "atpg/tdf_atpg.h"
#include "core/checkpoint.h"
#include "diag/log_io.h"
#include "diag/stream_backtrace.h"
#include "dft/compactor.h"
#include "dft/scan.h"
#include "gnn/oversample.h"
#include "gnn/serialize.h"
#include "gnn/trainer.h"
#include "graph/backtrace.h"
#include "graph/subgraph.h"
#include "m3d/miv.h"
#include "m3d/partition.h"
#include "netlist/generator.h"
#include "serve/journal.h"
#include "serve/session.h"
#include "sim/fault_sim.h"
#include "util/fault_injector.h"
#include "util/rng.h"

namespace m3dbench {

namespace fs = std::filesystem;

void ServeStats::add_counters(const serve::DiagnosisService& service) {
  const serve::Metrics& m = service.metrics();
  hits += m.cache_hits.load();
  lookups += m.cache_hits.load() + m.cache_misses.load();
  coalesced += m.cache_coalesced.load();
  batches += m.batches.load();
  batched += m.batched_requests.load();
}

namespace {

std::string render(const Design& design, serve::DiagnosisResult& result) {
  return serve::result_to_string(design.netlist(), result);
}

// The design build, one public call at a time (what Design::build does).
void build_probe(const ProbeInput& in, Tracer& tracer, ProbeCounts& counts,
                 Outcome& out) {
  M3DFL_REQUIRE(in.config != DesignConfig::kTpi,
                "m3dbench: the build probe does not replay test points");
  const ProfileSpec spec = profile_spec(in.profile);
  Netlist netlist;
  {
    ScopedSpan span(tracer, "netlist.generate");
    netlist = generate_netlist(generator_for(spec, in.config));
  }
  TierAssignment tiers;
  {
    ScopedSpan span(tracer, "m3d.partition");
    tiers = partition_tiers(netlist, partition_for(spec, in.config));
  }
  MivMap mivs;
  {
    ScopedSpan span(tracer, "m3d.miv");
    mivs = MivMap(netlist, tiers);
  }
  {
    ScopedSpan span(tracer, "dft.scan");
    const ScanChains scan(netlist, spec.num_chains, spec.scan_seed);
    const XorCompactor compactor(scan, spec.chains_per_channel);
  }
  AtpgResult atpg;
  {
    ScopedSpan span(tracer, "atpg.generate");
    atpg = generate_tdf_patterns(netlist, spec.atpg);
  }
  LocSimulator good(netlist);
  {
    ScopedSpan span(tracer, "sim.good_run");
    good.run(atpg.patterns);
  }
  HeteroGraph graph;
  {
    ScopedSpan span(tracer, "graph.hetero_build");
    graph = HeteroGraph(netlist, tiers, mivs);
  }
  counts.atpg_patterns = atpg.patterns.num_patterns;
  counts.atpg_coverage = atpg.coverage();
  const Design& d = *in.build_design;
  out.checker.check(atpg.patterns.num_patterns == d.patterns().num_patterns &&
                        atpg.num_detected == d.atpg().num_detected &&
                        graph.num_nodes() == d.graph().num_nodes() &&
                        graph.num_edges() == d.graph().num_edges(),
                    "build probe differs from Design::build of " + d.name());
}

// The stages a service worker runs for one request, called serially with a
// span each, under one replay.request span per die.  Returns the ATPG base
// reports (the fault-simulation probe samples their candidates).
std::vector<DiagnosisReport> stage_probe(const ProbeInput& in, Tracer& tracer,
                                         ProbeCounts& counts, Outcome& out) {
  const Design& design = *in.design;
  const DesignContext ctx = design.context();
  const DiagnosisFramework& fw = *in.framework;
  std::vector<DiagnosisReport> base_reports;
  double nodes = 0.0, candidates = 0.0, responses = 0.0;
  for (std::size_t i = 0; i < in.dies.size(); ++i) {
    const Die& die = *in.dies[i];
    const FailureLog& log = die.sample.log;
    ScopedSpan request(tracer, "replay.request", i);
    BacktraceResult backtrace;
    {
      ScopedSpan span(tracer, "graph.backtrace", i);
      backtrace = backtrace_with_support(design.graph(), ctx, log);
    }
    Subgraph subgraph;
    {
      ScopedSpan span(tracer, "graph.subgraph", i);
      subgraph = extract_subgraph(design.graph(), backtrace.candidates);
    }
    NormalizedAdjacency adjacency;
    {
      ScopedSpan span(tracer, "gnn.adjacency", i);
      adjacency = subgraph_adjacency(subgraph);
    }
    serve::DiagnosisResult result;
    result.design = design.name();
    {
      ScopedSpan span(tracer, "diag.atpg", i);
      result.report = diagnose_atpg(ctx, log);
    }
    base_reports.push_back(result.report);
    {
      ScopedSpan span(tracer, "gnn.predict", i);
      result.prediction = fw.predict(subgraph, adjacency);
    }
    {
      ScopedSpan span(tracer, "core.refine", i);
      result.pruned = fw.refine_report(ctx, result.prediction, result.report);
    }
    result.prediction.pruned = !result.pruned.empty();
    result.confidence = fw.diagnosis_confidence(backtrace, &result.prediction);
    out.checker.check(render(design, result) == die.reference,
                      "stage replay of die " + std::to_string(i) +
                          " differs from the serial reference");
    nodes += subgraph.num_nodes();
    candidates += static_cast<double>(base_reports.back().candidates.size());
    responses += die.records;
  }
  const double n = std::max<double>(1.0, static_cast<double>(in.dies.size()));
  counts.subgraph_nodes_mean = nodes / n;
  counts.candidates_mean = candidates / n;
  counts.log_responses_mean = responses / n;
  return base_reports;
}

// Fault simulation of a fixed sample of candidate faults: the two best
// candidates of every replayed report.
void fault_sim_probe(const ProbeInput& in,
                     const std::vector<DiagnosisReport>& reports,
                     Tracer& tracer) {
  const Design& design = *in.design;
  FaultSimulator simulator(design.netlist(), design.good_sim(),
                           &design.mivs());
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const std::vector<Candidate>& c = reports[i].candidates;
    for (std::size_t k = 0; k < std::min<std::size_t>(2, c.size()); ++k) {
      ScopedSpan span(tracer, "sim.fault_sim", i);
      simulator.simulate(c[k].fault);
    }
  }
}

// Record-by-record parsing and incremental back-trace of every die.
void stream_probe(const ProbeInput& in, Tracer& tracer, Outcome& out) {
  const Design& design = *in.design;
  const DesignContext ctx = design.context();
  StreamingOptions options;
  options.tp_threshold = in.framework->tp_threshold();
  for (std::size_t i = 0; i < in.dies.size(); ++i) {
    const Die& die = *in.dies[i];
    StreamingBacktrace stream(design.graph(), ctx, options);
    int line_no = 1;  // the header is line 1
    for (const std::string& line : die.body) {
      StreamRecord record;
      {
        ScopedSpan span(tracer, "diag.parse", i);
        record = parse_stream_record(line, ++line_no);
      }
      ScopedSpan span(tracer, "diag.stream_add", i);
      stream.add(record);
    }
    out.checker.check(
        stream.finalize().candidates ==
            backtrace_with_support(design.graph(), ctx, die.sample.log)
                .candidates,
        "streaming back-trace of die " + std::to_string(i) +
            " differs from the batch back-trace");
  }
}

std::uintmax_t directory_bytes(const std::string& dir) {
  std::uintmax_t bytes = 0;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file()) bytes += e.file_size();
  }
  return bytes;
}

// The write-ahead journal, driven directly: one session per die, one
// append_record per body line.
void journal_probe(const ProbeInput& in, const RunOptions& run,
                   Tracer& tracer, ProbeCounts& counts, Outcome& out) {
  const std::string dir = run.scratch_dir + "/journal-probe";
  fs::remove_all(dir);
  double frames = 0.0;
  {
    serve::SessionJournal journal(dir);
    for (std::size_t i = 0; i < in.dies.size(); ++i) {
      const std::uint64_t id = i + 1;
      journal.append_open(id, in.design->name(), 0.0, 0.0);
      for (const std::string& line : in.dies[i]->body) {
        ScopedSpan span(tracer, "journal.append", i);
        journal.append_record(id, line);
      }
      journal.append_close(id, "finalized");
      frames += 2.0 + static_cast<double>(in.dies[i]->body.size());
    }
    out.checker.check(journal.durable(), "journal probe lost an append");
  }
  counts.journal_appends = frames;
  counts.journal_bytes_per_record =
      static_cast<double>(directory_bytes(dir)) / std::max(1.0, frames);
  fs::remove_all(dir);
}

// Streaming sessions with the write-ahead journal on (the stream-feed
// passes run them with it off; README.md, "Noise").
void session_probe(const ProbeInput& in, const RunOptions& run,
                   Tracer& tracer, Outcome& out) {
  const std::string dir = run.scratch_dir + "/session-probe";
  fs::remove_all(dir);
  std::int32_t id = 0;
  auto service = fresh_service(in.model, in.design, run, in.dies.size(),
                               tracer, id);
  {
    serve::SessionManagerOptions options;
    options.journal_dir = dir;
    serve::SessionManager sessions(*service, options);
    for (std::size_t i = 0; i < in.dies.size(); ++i) {
      const serve::SessionTicket ticket = sessions.begin_diagnosis(id);
      out.checker.check(ticket.admitted(), "session probe: begin refused");
      if (!ticket.admitted()) continue;
      for (const std::string& line : in.dies[i]->body) {
        ScopedSpan span(tracer, "serve.session_add", i);
        const serve::SessionUpdate u =
            sessions.add_response(ticket.session_id, line);
        if (u.status != serve::StatusCode::kOk) {
          out.checker.check(false, "session probe: record rejected: " +
                                       u.message);
        }
      }
      serve::DiagnosisResult result;
      {
        ScopedSpan span(tracer, "serve.finalize", i);
        result = sessions.finalize(ticket.session_id).get();
      }
      out.checker.check(result.ok() &&
                            render(*in.design, result) == in.dies[i]->reference,
                        "session probe: die " + std::to_string(i) +
                            " differs from the serial reference");
    }
  }
  service->shutdown();
  fs::remove_all(dir);
}

template <typename Model>
std::string model_bytes(const Model& model) {
  std::ostringstream os;
  save_model(os, model);
  return os.str();
}

// Training, outside-in: the checkpointing Trainer that
// DiagnosisFramework::train delegates to, with an unarmed fault injector
// whose epoch-boundary seam counts epochs (an observer thread timestamps
// each count change), then the three one-shot trainers on the same data.
void train_probe(const ProbeInput& in, Tracer& tracer, ProbeCounts& counts,
                 Outcome& out) {
  const std::vector<Subgraph>& graphs = in.train_data->graphs;
  const FrameworkOptions& options = in.train_options;
  DiagnosisFramework framework(options);
  FaultInjector injector(kNumTrainSeams);
  const int epoch_seam = static_cast<int>(TrainSeam::kEpochEnd);
  std::atomic<bool> done{false};
  std::vector<double> epoch_ms;
  std::thread observer([&] {
    std::int64_t seen = 0;
    Clock::time_point last = Clock::now();
    while (!done.load()) {
      const std::int64_t calls = injector.calls(epoch_seam);
      if (calls != seen) {
        const Clock::time_point now = Clock::now();
        if (calls == seen + 1) {
          epoch_ms.push_back(
              std::chrono::duration<double, std::milli>(now - last).count());
        }
        seen = calls;
        last = now;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  });
  try {
    ScopedSpan span(tracer, "gnn.framework_train");
    Trainer trainer(framework);
    trainer.set_fault_injector(&injector);
    trainer.train(graphs);
  } catch (...) {
    done = true;
    observer.join();
    throw;
  }
  done = true;
  observer.join();
  counts.epochs_run = static_cast<double>(injector.calls(epoch_seam));
  counts.epoch_ms = std::move(epoch_ms);
  std::ostringstream saved;
  framework.save(saved);
  out.checker.check(saved.str() == in.model,
                    "train probe: Trainer produced a different model");

  TierPredictor tier(options.model);
  {
    ScopedSpan span(tracer, "gnn.train_tier");
    train_tier_predictor(tier, graphs, options.training);
  }
  out.checker.check(model_bytes(tier) ==
                        model_bytes(framework.tier_predictor()),
                    "train probe: one-shot tier predictor differs");
  MivPinpointer miv(options.model);
  {
    ScopedSpan span(tracer, "gnn.train_miv");
    train_miv_pinpointer(miv, graphs, options.training);
  }
  out.checker.check(model_bytes(miv) ==
                        model_bytes(framework.miv_pinpointer()),
                    "train probe: one-shot MIV pinpointer differs");
  // The classifier's training set as the framework derives it: dies the
  // frozen tier predictor calls with confidence >= T_P, labeled by whether
  // the call was right, balanced with dummy-buffer copies.
  std::vector<Subgraph> cls_graphs;
  std::vector<int> cls_labels;
  for (const Subgraph& g : graphs) {
    if (g.empty() || (g.tier_label != 0 && g.tier_label != 1)) continue;
    double confidence = 0.0;
    const int tier_call =
        framework.tier_predictor().predicted_tier(g, &confidence);
    if (confidence < framework.tp_threshold()) continue;
    cls_graphs.push_back(g);
    cls_labels.push_back(tier_call == g.tier_label ? 1 : 0);
  }
  if (!cls_graphs.empty()) {
    Rng rng(options.training.seed ^ 0xB0FFE2);
    balance_with_buffers(cls_graphs, cls_labels, rng);
  }
  PruneClassifier classifier(framework.tier_predictor(), options.model);
  ScopedSpan span(tracer, "gnn.train_classifier");
  train_prune_classifier(classifier, cls_graphs, cls_labels, options.training);
}

void model_load_probe(const ProbeInput& in, Tracer& tracer) {
  for (int r = 0; r < 5; ++r) {
    DiagnosisFramework framework;
    std::istringstream is(in.model);
    ScopedSpan span(tracer, "core.framework_load");
    framework.load(is);
  }
}

double span_percentile(const Tracer& tracer, const char* name, double q,
                       double scale) {
  return percentile(tracer.durations_us(name), q) * scale;
}

double span_mean(const Tracer& tracer, const char* name, double scale) {
  return mean(tracer.durations_us(name)) * scale;
}

}  // namespace

ProbeCounts run_probes(const ProbeInput& in, const RunOptions& run,
                       Tracer& tracer, Outcome& out) {
  ProbeCounts counts;
  build_probe(in, tracer, counts, out);
  const std::vector<DiagnosisReport> reports =
      stage_probe(in, tracer, counts, out);
  fault_sim_probe(in, reports, tracer);
  stream_probe(in, tracer, out);
  journal_probe(in, run, tracer, counts, out);
  session_probe(in, run, tracer, out);
  train_probe(in, tracer, counts, out);
  model_load_probe(in, tracer);
  return counts;
}

void layer_metrics(const Tracer& tracer, const ServeStats& serve,
                   const ProbeCounts& counts, double overhead_frac,
                   Outcome& out) {
  MetricSet& m = out.per_layer;
  constexpr double kMs = 1e-3, kS = 1e-6, kUs = 1.0;
  m.set("netlist.generate_ms", span_mean(tracer, "netlist.generate", kMs),
        "ms");
  m.set("m3d.partition_ms", span_mean(tracer, "m3d.partition", kMs), "ms");
  m.set("m3d.miv_ms", span_mean(tracer, "m3d.miv", kMs), "ms");
  m.set("dft.scan_ms", span_mean(tracer, "dft.scan", kMs), "ms");
  m.set("atpg.generate_s", span_mean(tracer, "atpg.generate", kS), "s");
  m.set("atpg.patterns", counts.atpg_patterns, "count");
  m.set("atpg.coverage", counts.atpg_coverage, "ratio");
  m.set("sim.good_run_ms", span_mean(tracer, "sim.good_run", kMs), "ms");
  m.set("sim.fault_sim_us_mean", span_mean(tracer, "sim.fault_sim", kUs), "us");
  m.set("graph.hetero_build_ms", span_mean(tracer, "graph.hetero_build", kMs),
        "ms");
  m.set("graph.backtrace_ms_p50",
        span_percentile(tracer, "graph.backtrace", 0.5, kMs), "ms");
  m.set("graph.subgraph_ms_p50",
        span_percentile(tracer, "graph.subgraph", 0.5, kMs), "ms");
  m.set("graph.subgraph_nodes_mean", counts.subgraph_nodes_mean, "nodes");
  m.set("diag.atpg_ms_p50", span_percentile(tracer, "diag.atpg", 0.5, kMs),
        "ms");
  m.set("diag.atpg_ms_p90", span_percentile(tracer, "diag.atpg", 0.9, kMs),
        "ms");
  m.set("diag.candidates_mean", counts.candidates_mean, "candidates");
  m.set("diag.log_responses_mean", counts.log_responses_mean, "responses");
  double gen_us = 0.0, gen_samples = 0.0;
  for (const Span& s : tracer.spans()) {
    if (s.name != "diag.generate_samples") continue;
    gen_us += s.duration_us();
    gen_samples += static_cast<double>(s.request);
  }
  m.set("diag.datagen_ms_per_sample",
        gen_samples > 0 ? gen_us * kMs / gen_samples : 0.0, "ms");
  m.set("diag.parse_us_p50", span_percentile(tracer, "diag.parse", 0.5, kUs),
        "us");
  m.set("diag.stream_add_us_p50",
        span_percentile(tracer, "diag.stream_add", 0.5, kUs), "us");
  m.set("diag.stream_add_us_p90",
        span_percentile(tracer, "diag.stream_add", 0.9, kUs), "us");
  m.set("gnn.adjacency_us_p50",
        span_percentile(tracer, "gnn.adjacency", 0.5, kUs), "us");
  m.set("gnn.predict_us_p50", span_percentile(tracer, "gnn.predict", 0.5, kUs),
        "us");
  m.set("gnn.train_tier_s", span_mean(tracer, "gnn.train_tier", kS), "s");
  m.set("gnn.train_miv_s", span_mean(tracer, "gnn.train_miv", kS), "s");
  m.set("gnn.train_classifier_s", span_mean(tracer, "gnn.train_classifier", kS),
        "s");
  m.set("gnn.epochs_run", counts.epochs_run, "count");
  m.set("gnn.epoch_ms_p50", median(counts.epoch_ms), "ms");
  m.set("core.refine_us_p50", span_percentile(tracer, "core.refine", 0.5, kUs),
        "us");
  m.set("core.model_load_ms",
        span_percentile(tracer, "core.framework_load", 0.5, kMs), "ms");
  m.set("serve.submit_us_p50",
        span_percentile(tracer, "serve.submit", 0.5, kUs), "us");
  m.set("serve.queue_wait_ms_p50", median(serve.queue_ms), "ms");
  const double lookups = std::max<double>(1.0, serve.lookups);
  m.set("serve.cache_hit_frac", serve.hits / lookups, "ratio");
  m.set("serve.coalesced_frac", serve.coalesced / lookups, "ratio");
  m.set("serve.batch_mean",
        serve.batches > 0 ? static_cast<double>(serve.batched) / serve.batches
                          : 0.0,
        "requests");
  m.set("serve.session_add_us_p50",
        span_percentile(tracer, "serve.session_add", 0.5, kUs), "us");
  m.set("serve.finalize_ms_p50",
        span_percentile(tracer, "serve.finalize", 0.5, kMs), "ms");
  m.set("journal.append_us_p50",
        span_percentile(tracer, "journal.append", 0.5, kUs), "us");
  m.set("journal.appends", counts.journal_appends, "count");
  m.set("journal.bytes_per_record", counts.journal_bytes_per_record, "bytes");
  m.set("lint.register_design_ms",
        span_percentile(tracer, "lint.register_design", 0.5, kMs), "ms");
  m.set("trace.overhead_frac", overhead_frac, "ratio");

  out.exact["atpg.patterns"] = counts.atpg_patterns;
  out.exact["atpg.coverage"] = counts.atpg_coverage;
  out.exact["graph.subgraph_nodes_mean"] = counts.subgraph_nodes_mean;
  out.exact["diag.candidates_mean"] = counts.candidates_mean;
  out.exact["diag.log_responses_mean"] = counts.log_responses_mean;
  out.exact["gnn.epochs_run"] = counts.epochs_run;
  out.exact["journal.appends"] = counts.journal_appends;
  out.exact["journal.bytes_per_record"] = counts.journal_bytes_per_record;
}

}  // namespace m3dbench
