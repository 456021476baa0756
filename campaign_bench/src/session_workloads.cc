// vision_campaign and tabular_kmnc: one Session campaign stream (closed
// loop) over a warm model cache, driven one SessionRun::Step at a time.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "campaign_bench/src/bench.h"
#include "src/core/domain.h"
#include "src/core/executor.h"
#include "src/models/zoo.h"
#include "src/nn/execution_plan.h"

namespace cb {
namespace {

// Engine shape of every timed leg: 4 workers (3 pool threads + the caller,
// the host's 4 cores) ascending chunks of 8 seeds, 64 seeds per sync batch.
constexpr int kWorkers = 4;
constexpr int kWidth = 8;
constexpr int kSyncInterval = 64;
// The traced run's invariance leg reruns the campaign at another worker count
// and chunk width; the engine contract says the results are bit-identical.
constexpr int kAltWorkers = 3;
constexpr int kAltWidth = 4;

struct WorkloadShape {
  std::string domain;
  std::string metric;
  std::string scheduler;
  std::string constraint;
  // A timed leg runs `parts` independent campaigns back to back, each over
  // `seeds` inputs of its own and its own engine RNG seed. A campaign's
  // coverage state couples its tests (which neurons the objective chases
  // depends on what is covered), so one campaign's tests move together;
  // independent campaigns average some of that out of a run's figures.
  int parts;
  int seeds;          // Campaign inputs per part.
  int setups;         // setup_s is the median of this many set-ups.
  int min_full_legs;  // Whole legs per run, at least.
  int trace_batches;  // Sync batches per traced-run leg (0: the whole campaign).
  int service_seeds;  // Seeds of the traced run's service-leg campaign.
};

WorkloadShape ShapeOf(const std::string& workload) {
  if (workload == "vision_campaign") {
    return {"imagenet", "neuron", "roundrobin", "default", 4, 320, 9, 1, 4, 256};
  }
  return {"tabular", "kmultisection", "coverage-gain", "box", 1, 16384, 5, 2, 0, 4096};
}

// The traced run's service leg: the workload's campaign on an in-process
// CampaignManager with one campaign worker over a 3-thread pool (the
// host's 4 cores), its corpus compacted kServiceCompactions times.
constexpr int kServiceCompactions = 3;

// Everything before the first Step: warm zoo load, seed generation, Session
// construction, seed profiling, BeginRun.
struct Prepared {
  std::vector<dx::Model> models;
  std::vector<dx::Tensor> seeds;
  std::unique_ptr<dx::Constraint> constraint;
  // Mean coverage after every sync batch (RunOptions::on_batch), and when.
  std::vector<float> batch_coverage;
  std::vector<double> batch_end;
  std::unique_ptr<dx::Session> session;
  std::unique_ptr<dx::SessionRun> run;
  double setup_seconds = 0.0;
};

// Part `part` of a leg draws its inputs and engine RNG seed from streams of
// its own.
std::unique_ptr<Prepared> Setup(const WorkloadShape& shape, const Args& args, int part,
                                int workers, int width, bool profile,
                                Tracer& tr = Tracer::Off()) {
  auto p = std::make_unique<Prepared>();
  const double t0 = Now();
  const dx::DomainSpec& spec = dx::GetDomain(shape.domain);
  {
    Tracer::Scope span(tr, "models.load");
    p->models = dx::ModelZoo::TrainedDomain(shape.domain);
  }
  {
    Tracer::Scope span(tr, "data.seed_gen");
    p->seeds = spec.make_dataset(shape.seeds, DeriveSeed(args.seed, 1 + 16 * part)).inputs;
  }
  p->constraint = dx::MakeDomainConstraint(spec, shape.constraint);
  dx::SessionConfig config;
  config.engine = spec.engine_defaults;
  config.engine.rng_seed = DeriveSeed(args.seed, 2 + 16 * part);
  config.metric = shape.metric;
  config.objective = "joint";
  config.scheduler = shape.scheduler;
  config.workers = workers;
  config.batch_size = width;
  config.sync_interval = kSyncInterval;
  config.profile_phases = profile;
  std::vector<dx::Model*> ptrs;
  for (dx::Model& m : p->models) ptrs.push_back(&m);
  {
    Tracer::Scope span(tr, "session.construct");
    p->session = std::make_unique<dx::Session>(ptrs, p->constraint.get(), config);
  }
  {
    Tracer::Scope span(tr, "coverage.profile_seeds");
    p->session->ProfileSeeds(p->seeds);
  }
  dx::RunOptions options;
  Prepared* raw = p.get();
  options.on_batch = [raw](const dx::RunProgress& progress) {
    raw->batch_end.push_back(Now());
    raw->batch_coverage.push_back(progress.mean_coverage);
  };
  p->run = p->session->BeginRun(p->seeds, options, nullptr);
  p->setup_seconds = Now() - t0;
  return p;
}

struct CampaignResult {
  dx::RunStats stats;
  double wall = 0.0;
  // From the first Step to the first sync batch whose mean coverage reached
  // 90% of the final coverage.
  double time_to_cov = 0.0;
  int64_t forwards = 0;               // Per-sample forwards of all models.
  uint64_t digest = 0;
};

// Steps the prepared run to completion, or through `max_batches` sync
// batches when positive.
CampaignResult Campaign(Prepared& p, int max_batches, Tracer& tr = Tracer::Off()) {
  CampaignResult r;
  int64_t fwd_before = 0;
  for (const dx::Model& m : p.models) fwd_before += m.forward_passes();
  const double t0 = Now();
  {
    Tracer::Scope campaign(tr, "session.campaign");
    for (int b = 0; max_batches <= 0 || b < max_batches; ++b) {
      Tracer::Scope step(tr, "session.Step", campaign.id());
      if (!p.run->Step()) break;
    }
  }
  r.wall = Now() - t0;
  r.stats = p.run->Snapshot();
  for (const dx::Model& m : p.models) r.forwards += m.forward_passes();
  r.forwards -= fwd_before;
  for (size_t b = 0; b < p.batch_coverage.size(); ++b) {
    if (p.batch_coverage[b] >= 0.9f * r.stats.mean_coverage) {
      r.time_to_cov = p.batch_end[b] - t0;
      break;
    }
  }
  Digest d;
  d.Stats(r.stats);
  for (const auto& m : p.session->metrics()) d.Pod(m->Coverage());
  r.digest = d.value();
  return r;
}

// Re-predicts every generated test through a fresh width-1 plan per model
// (plan results are bit-identical at any width) and checks the recorded
// labels, which must disagree across the models.
std::string VerifyTests(const Prepared& p, const dx::RunStats& stats) {
  std::vector<dx::ExecutionPlan> plans;
  for (const dx::Model& m : p.models) plans.push_back(m.Compile(1));
  for (const dx::GeneratedTest& t : stats.tests) {
    if (t.labels.size() != plans.size()) return "test without per-model labels";
    bool differ = false;
    for (size_t k = 0; k < plans.size(); ++k) {
      const dx::Tensor& out = plans[k].ForwardBatch(t.input, 1).outputs.back();
      const int label = static_cast<int>(
          std::max_element(out.data(), out.data() + out.numel()) - out.data());
      if (label != t.labels[k]) {
        return "test of seed " + std::to_string(t.seed_index) + ": model " +
               std::to_string(k) + " predicts " + std::to_string(label) + ", recorded " +
               std::to_string(t.labels[k]);
      }
      differ = differ || label != t.labels[0];
    }
    if (!differ) return "test of seed " + std::to_string(t.seed_index) + " is no difference";
  }
  return "";
}

LegOutcome Outcome(const CampaignResult& r) {
  LegOutcome o;
  o.wall = r.wall;
  o.tests = static_cast<int>(r.stats.tests.size());
  o.seeds_tried = r.stats.seeds_tried;
  o.final_coverage = r.stats.mean_coverage;
  for (const dx::GeneratedTest& t : r.stats.tests) o.latency_ms.push_back(t.seconds * 1e3);
  o.digest = r.digest;
  return o;
}

void RunEndToEnd(const WorkloadShape& shape, const Args& args, Report& report) {
  EndToEndPlan plan;
  plan.setups = shape.setups;
  plan.min_legs = shape.min_full_legs;
  plan.setup = [&] { return Setup(shape, args, 0, kWorkers, kWidth, false)->setup_seconds; };
  plan.leg = [&](int index) {
    LegOutcome leg;
    Digest digest;
    for (int part = 0; part < shape.parts; ++part) {
      auto p = Setup(shape, args, part, kWorkers, kWidth, false);
      const CampaignResult r = Campaign(*p, 0);
      if (index == 0) {
        const std::string bad = VerifyTests(*p, r.stats);
        report.Operation(bad.empty(), "re-prediction: " + bad);
      }
      const LegOutcome o = Outcome(r);
      leg.wall += o.wall;
      leg.tests += o.tests;
      leg.seeds_tried += o.seeds_tried;
      leg.final_coverage += o.final_coverage / shape.parts;
      leg.latency_ms.insert(leg.latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
      digest.Pod(o.digest);
    }
    leg.digest = digest.value();
    return leg;
  };
  MeasureEndToEnd(args, plan, report);
}

void RunLayers(const WorkloadShape& shape, const Args& args, Report& report) {
  Tracer tracer(true);
  // Traced legs run with phase profiling and spans around every Step (and
  // their set-up); the last one feeds the executor metrics below.
  std::vector<double> time_to_cov;
  std::unique_ptr<Prepared> p;
  CampaignResult r;
  MeasureTraceOverhead(
      args, "batches" + std::to_string(shape.trace_batches),
      [&](bool traced) {
        Tracer& tr = traced ? tracer : Tracer::Off();
        auto q = Setup(shape, args, 0, kWorkers, kWidth, traced, tr);
        CampaignResult c = Campaign(*q, shape.trace_batches, tr);
        const LegOutcome outcome = Outcome(c);
        if (traced) {
          p = std::move(q);
          r = std::move(c);
        } else {
          time_to_cov.push_back(c.time_to_cov);
        }
        return outcome;
      },
      [&] {
        auto alt = Setup(shape, args, 0, kAltWorkers, kAltWidth, false);
        return Campaign(*alt, shape.trace_batches).digest;
      },
      report);
  // Time to 90% of the final coverage, from the untraced legs. Not an
  // end-to-end metric: on a shared 4-vCPU VM its spread across runs (~0.1
  // quiet, 0.3-0.4 under load from other tenants) passes the largest allowed
  // bound. On imagenet it times the first sync batch (neuron coverage passes
  // 90% there).
  report.Add("session.time_to_cov_s", Median(time_to_cov), "s");

  // Executor / session, from the last traced leg's RunStats and phase profile.
  ExecutorSample ex;
  ex.profile = p->session->ExecutorPhases();
  // Per-model forwards of the ascent loop: all forwards minus each seed's
  // consensus pass.
  ex.ascent_forwards =
      static_cast<double>(r.forwards) / static_cast<double>(p->models.size()) -
      r.stats.seeds_tried;
  ex.iterations = static_cast<double>(r.stats.total_iterations);
  ex.width = kWidth;
  ex.threads = kWorkers;
  ex.wall = r.wall;
  ReportExecutor(ex, report);

  report.Add("models.load_ms", tracer.Mean("models.load") * 1e3, "ms");
  report.Add("data.seed_gen_ms", tracer.Mean("data.seed_gen") * 1e3, "ms");

  ServiceShape service;
  service.campaign_workers = 1;
  service.compute_threads = kWorkers - 1;
  service.width = kWidth;
  const ServiceLeg leg = RunServiceLeg(
      args, "service",
      {{shape.domain, shape.metric, shape.scheduler, shape.constraint, shape.service_seeds,
        DeriveSeed(args.seed, 3)}},
      service, kServiceCompactions, tracer, report);
  ReportServiceAndCorpus(leg, report);

  ProbeCoverage(*p->session, p->seeds, kWidth, tracer, report);
  std::vector<dx::Model*> ptrs;
  for (dx::Model& m : p->models) ptrs.push_back(&m);
  ProbeNn({{ptrs, &p->seeds}}, kWidth, tracer, report);
  ProbeTrainer({shape.domain}, args.seed, tracer, report);
  tracer.Write(args.work_dir + "/trace_" + args.workload + ".jsonl");
}

}  // namespace

void RunSessionWorkload(const Args& args, Report& report) {
  const WorkloadShape shape = ShapeOf(args.workload);
  // Untimed warm-up. A child process fills the shared model cache: on a cold
  // checkout it trains, and the training set the zoo builds for that would
  // otherwise stay resident here. Then one sync batch here pays first-touch
  // costs.
  RunInChild([&] {
    dx::ModelZoo::TrainedDomain(shape.domain);
    return std::string();
  });
  {
    auto p = Setup(shape, args, 0, kWorkers, kWidth, false);
    p->run->Step();
  }
  if (args.trace) {
    RunLayers(shape, args, report);
  } else {
    RunEndToEnd(shape, args, report);
  }
}

}  // namespace cb
