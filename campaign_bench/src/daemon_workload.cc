// fresh_daemon: the dxplored engine in process (CampaignManager, no
// sockets) from an empty model cache. Two durable campaigns run together on
// one shared pool while Status is polled at a fixed rate; when both are DONE
// the mnist corpus is compacted (distill -> dedup -> minimize + replay). The
// leg itself is RunServiceLeg (service_leg.cc).
#include <algorithm>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "campaign_bench/src/bench.h"
#include "src/core/domain.h"
#include "src/models/zoo.h"

namespace fs = std::filesystem;

namespace cb {
namespace {

// Two campaign workers each drive ParallelFor over a 2-thread shared pool:
// 4 compute threads, the host's cores.
constexpr int kCampaignWorkers = 2;
constexpr int kComputeThreads = 2;
constexpr int kWidth = 8;
// The traced run's invariance leg: one campaign worker, chunk width 4.
constexpr int kAltCampaignWorkers = 1;
constexpr int kAltWidth = 4;
// setup_s is the median of kSetups cold set-ups (~7 s each on 4 cores). They
// take most of --seconds, so the run goes on past it for kMinLegs legs.
constexpr int kSetups = 3;
constexpr int kMinLegs = 3;
// Compactions of the finished mnist campaign per traced leg, each into a
// fresh directory; corpus.compact_s is their median. Other legs compact once,
// which keeps the replay-verification check.
constexpr int kCompactions = 8;

// mnist: the conv trio (its recorded corpus is compacted afterwards); pdf:
// the dense trio. Seeds are the domain test sets, cycled (the daemon's
// submit API draws them itself), so the workload seed picks only the engine
// RNG seed, one per leg variant. The RNG seed decides which tests a campaign
// finds and when; one pair of campaigns is one draw of that, so a run's legs
// cycle through kMinLegs variants, each with its own RNG seed.
std::vector<ServiceCampaign> Campaigns(const Args& args, int variant) {
  const uint64_t rng = DeriveSeed(args.seed, 3 + 16 * static_cast<uint64_t>(variant));
  return {{"mnist", "neuron", "roundrobin", "", 1024, rng},
          {"pdf", "neuron", "roundrobin", "", 1024, rng}};
}
const char* const kDomains[] = {"mnist", "pdf"};

ServiceShape Shape(int campaign_workers, int width) {
  ServiceShape shape;
  shape.campaign_workers = campaign_workers;
  shape.compute_threads = kComputeThreads;
  shape.width = width;
  return shape;
}

// Cold start: train both trios into the emptied private cache, then build
// the manager. Runs in a child process, so that nothing the zoo memoizes in
// process (its train and test sets) carries over from one cold start to the
// next or into the legs. Returns the wall time.
double ColdSetup(const Args& args) {
  const std::string out = RunInChild([&] {
    std::error_code ec;
    fs::remove_all(args.cache_dir, ec);
    const double t0 = Now();
    for (const char* domain : kDomains) dx::ModelZoo::TrainedDomain(domain);
    dx::ManagerOptions options;
    options.campaign_workers = kCampaignWorkers;
    options.compute_threads = kComputeThreads;
    { dx::CampaignManager manager(options); }
    std::ostringstream seconds;
    seconds.precision(17);
    seconds << Now() - t0;
    return seconds.str();
  });
  return std::stod(out);
}

// First-use work of this process that a running daemon has long done:
// building the test sets the campaigns draw their seeds from.
void WarmUp(Tracer& tracer) {
  Tracer::Scope span(tracer, "data.seed_gen");
  for (const char* domain : kDomains) dx::ModelZoo::TestSet(domain);
}

void RunEndToEnd(const Args& args, Report& report) {
  EndToEndPlan plan;
  plan.setups = kSetups;
  plan.min_legs = kMinLegs;
  plan.variants = kMinLegs;
  plan.setup = [&] { return ColdSetup(args); };
  plan.leg = [&](int index) {
    if (index == 0) WarmUp(Tracer::Off());
    return RunServiceLeg(args, "leg" + std::to_string(index), Campaigns(args, index % kMinLegs),
                         Shape(kCampaignWorkers, kWidth), 1, Tracer::Off(), report)
        .outcome;
  };
  MeasureEndToEnd(args, plan, report);
}

void RunLayers(const Args& args, Report& report) {
  Tracer tracer(true);
  ColdSetup(args);
  WarmUp(tracer);
  report.Add("data.seed_gen_ms", tracer.Total("data.seed_gen") * 1e3, "ms");
  ServiceLeg leg;  // The last traced leg.
  MeasureTraceOverhead(
      args, "full",
      [&](bool traced) {
        ServiceLeg l = RunServiceLeg(args, traced ? "traced" : "untraced", Campaigns(args, 0),
                                     Shape(kCampaignWorkers, kWidth), traced ? kCompactions : 1,
                                     traced ? tracer : Tracer::Off(), report);
        const LegOutcome outcome = l.outcome;
        if (traced) leg = std::move(l);
        return outcome;
      },
      [&] {
        return RunServiceLeg(args, "invariance", Campaigns(args, 0),
                             Shape(kAltCampaignWorkers, kAltWidth), 1, Tracer::Off(), report)
            .outcome.digest;
      },
      report);
  ReportExecutor(leg.executor, report);
  report.Add("session.time_to_cov_s", leg.time_to_cov, "s");
  ReportServiceAndCorpus(leg, report);

  // Layer probes on the daemon's models (loaded from the now-warm cache).
  std::vector<std::vector<dx::Model>> models;
  std::vector<std::vector<dx::Tensor>> inputs;
  std::vector<std::string> domains;
  {
    Tracer::Scope span(tracer, "models.load");
    for (const char* domain : kDomains) models.push_back(dx::ModelZoo::TrainedDomain(domain));
  }
  report.Add("models.load_ms", tracer.Total("models.load") * 1e3, "ms");
  for (const char* domain : kDomains) {
    const std::vector<dx::Tensor>& test = dx::ModelZoo::TestSet(domain).inputs;
    inputs.emplace_back(test.begin(), test.begin() + std::min<size_t>(64, test.size()));
    domains.push_back(domain);
  }
  std::vector<ProbeSet> sets;
  for (size_t d = 0; d < models.size(); ++d) {
    ProbeSet set;
    for (dx::Model& m : models[d]) set.models.push_back(&m);
    set.inputs = &inputs[d];
    sets.push_back(set);
  }
  {
    const dx::DomainSpec& spec = dx::GetDomain(domains[0]);
    std::unique_ptr<dx::Constraint> constraint = dx::MakeDomainConstraint(spec, "default");
    dx::SessionConfig config;
    config.engine = spec.engine_defaults;
    dx::Session session(sets[0].models, constraint.get(), config);
    ProbeCoverage(session, inputs[0], kWidth, tracer, report);
  }
  ProbeNn(sets, kWidth, tracer, report);
  ProbeTrainer(domains, args.seed, tracer, report);
  tracer.Write(args.work_dir + "/trace_" + args.workload + ".jsonl");
}

}  // namespace

void RunDaemonWorkload(const Args& args, Report& report) {
  if (args.trace) {
    RunLayers(args, report);
  } else {
    RunEndToEnd(args, report);
  }
}

}  // namespace cb
