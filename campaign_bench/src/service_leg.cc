// The service leg every traced run shares, and the fresh_daemon workload's
// campaign leg: durable campaigns on an in-process CampaignManager, Status
// polled at a fixed rate, then Compact of the first campaign's corpus.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign_bench/src/bench.h"
#include "src/core/domain.h"
#include "src/corpus/corpus.h"

namespace fs = std::filesystem;

namespace cb {
namespace {

// Status polls per campaign: 10/s, the rate of the repository's own polling
// client (tools/ci.sh wait_state; dxplorectl status is one-shot).
constexpr double kPollPeriod = 0.1;

}  // namespace

void ReportExecutor(const ExecutorSample& s, Report& report) {
  const double busy = s.profile.TotalSeconds();
  const double iterations = static_cast<double>(std::max<int64_t>(1, s.profile.iterations));
  report.Add("executor.lane_occupancy", s.ascent_forwards / (iterations * s.width), "ratio");
  report.Add("executor.useful_iter_frac", s.iterations / std::max(1.0, s.ascent_forwards),
             "ratio");
  report.Add("executor.iter_us", busy / iterations * 1e6, "us");
  report.Add("executor.forward_share", s.profile.forward_seconds / busy, "ratio");
  report.Add("executor.backward_share", s.profile.backward_layers_seconds / busy, "ratio");
  report.Add("executor.objective_share", s.profile.objective_accumulate_seconds / busy, "ratio");
  report.Add("executor.constraint_share", s.profile.constraint_seconds / busy, "ratio");
  report.Add("executor.coverage_share", s.profile.coverage_seconds / busy, "ratio");
  report.Add("session.worker_idle_frac", 1.0 - busy / (s.threads * s.wall), "ratio");
}

ServiceLeg RunServiceLeg(const Args& args, const std::string& name,
                         const std::vector<ServiceCampaign>& campaigns, const ServiceShape& shape,
                         int compactions, Tracer& tracer, Report& report) {
  ServiceLeg leg;
  LegOutcome& out = leg.outcome;
  const std::string dir = args.work_dir + "/runs/" + std::to_string(::getpid()) + "/" + name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  dx::ManagerOptions options;
  options.campaign_workers = shape.campaign_workers;
  options.compute_threads = shape.compute_threads;
  dx::CampaignManager manager(options);

  std::vector<uint64_t> ids;
  const double t_submit = Now();
  for (const ServiceCampaign& c : campaigns) {
    dx::CampaignSpec spec;
    spec.domain = c.domain;
    spec.metric = c.metric;
    spec.scheduler = c.scheduler;
    spec.constraint = c.constraint;
    spec.seeds = c.seeds;
    spec.rng_seed = c.rng_seed;
    spec.batch_size = shape.width;
    spec.corpus_dir = dir + "/" + c.domain;
    Tracer::Scope span(tracer, "service.Submit");
    ids.push_back(manager.Submit(spec));
  }
  leg.corpus = dir + "/" + campaigns[0].domain;

  // Fixed-rate Status polling until every campaign is terminal; each poll's
  // (time since submit, coverage) is kept for time to coverage.
  std::vector<dx::CampaignStatus> last(ids.size());
  std::vector<std::vector<std::pair<double, float>>> coverage(ids.size());
  std::vector<bool> terminal(ids.size(), false);
  double last_done = t_submit;
  for (double tick = t_submit;; tick += kPollPeriod) {
    bool all = true;
    for (size_t i = 0; i < ids.size(); ++i) {
      if (terminal[i]) continue;
      const double t0 = Now();
      try {
        Tracer::Scope span(tracer, "service.Status");
        last[i] = manager.Status(ids[i]);
        report.Operation(true);
      } catch (const std::exception& e) {
        report.Fail(std::string("Status: ") + e.what());
      }
      const double t1 = Now();
      leg.status_us.push_back((t1 - t0) * 1e6);
      coverage[i].emplace_back(t1 - t_submit, last[i].progress.mean_coverage);
      if (i == 0 && last[i].has_corpus_stats) {
        const dx::CorpusStats& cs = last[i].corpus_stats;
        leg.checkpoint_records =
            std::max<uint64_t>(leg.checkpoint_records, cs.chain_snapshots + cs.chain_deltas);
      }
      const dx::CampaignState s = last[i].state;
      if (s == dx::CampaignState::kDone || s == dx::CampaignState::kFailed ||
          s == dx::CampaignState::kCancelled) {
        terminal[i] = true;
        last_done = t1;
      } else {
        all = false;
      }
    }
    if (all) break;
    std::this_thread::sleep_for(std::chrono::duration<double>(tick + kPollPeriod - Now()));
  }
  out.wall = last_done - t_submit;

  Digest digest;
  double active = 0.0;
  ExecutorSample& ex = leg.executor;
  ex.width = shape.width;
  ex.threads = shape.campaign_workers + shape.compute_threads;
  ex.wall = out.wall;
  for (size_t i = 0; i < ids.size(); ++i) {
    const bool done = last[i].state == dx::CampaignState::kDone;
    report.Operation(done, campaigns[i].domain + " campaign ended " +
                               dx::CampaignStateName(last[i].state) + " " + last[i].error);
    if (!done) continue;
    const dx::RunStats stats = manager.Results(ids[i]);
    digest.Stats(stats);
    out.tests += static_cast<int>(stats.tests.size());
    out.seeds_tried += stats.seeds_tried;
    out.final_coverage += stats.mean_coverage / static_cast<double>(ids.size());
    for (const dx::GeneratedTest& t : stats.tests) out.latency_ms.push_back(t.seconds * 1e3);
    active += last[i].progress.seconds;
    for (const auto& [t, cov] : coverage[i]) {
      if (cov >= 0.9f * stats.mean_coverage) {
        leg.time_to_cov = std::max(leg.time_to_cov, t);
        break;
      }
    }
    // All forwards minus each seed's consensus pass, per model.
    const double k = static_cast<double>(dx::GetDomain(campaigns[i].domain).models.size());
    ex.profile += last[i].profile;
    ex.ascent_forwards += static_cast<double>(stats.forward_passes) / k - stats.seeds_tried;
    ex.iterations += static_cast<double>(stats.total_iterations);
  }
  leg.active_frac = active / (shape.campaign_workers * out.wall);

  for (int n = 0; n < compactions; ++n) {
    dx::CompactOptions compact;
    compact.out_dir = dir + "/compact" + std::to_string(n);
    compact.minimize = true;
    const double t0 = Now();
    try {
      Tracer::Scope span(tracer, "service.Compact");
      dx::CompactResult result = manager.Compact(ids[0], compact);
      report.Operation(result.verified, "Compact: replay verification did not pass");
      report.Operation(n == 0 || (result.entries_before == leg.compact.entries_before &&
                                  result.entries_after == leg.compact.entries_after),
                       "Compact: repeated compaction kept a different entry count");
      leg.compact = std::move(result);
    } catch (const std::exception& e) {
      report.Fail(std::string("Compact: ") + e.what());
    }
    leg.compact_s.push_back(Now() - t0);
  }
  digest.Pod(leg.compact.entries_before);
  digest.Pod(leg.compact.entries_after);
  out.digest = digest.value();
  return leg;
}

void ReportServiceAndCorpus(const ServiceLeg& leg, Report& report) {
  report.Add("service.status_us_p50", Median(leg.status_us), "us");
  report.Add("service.active_frac", leg.active_frac, "ratio");

  // Reopen the recorded corpus and read its on-disk shape.
  const double t0 = Now();
  dx::Corpus corpus(leg.corpus);
  report.Add("corpus.open_ms", (Now() - t0) * 1e3, "ms");
  const dx::CorpusStats stats = corpus.Stats();
  report.Add("corpus.bytes_per_entry",
             static_cast<double>(stats.entries_bytes) /
                 static_cast<double>(std::max<uint64_t>(1, stats.num_entries)),
             "bytes");
  report.Add("corpus.chain_bytes", static_cast<double>(stats.checkpoint_bytes), "bytes");
  report.Add("corpus.checkpoint_records", static_cast<double>(leg.checkpoint_records), "count");
  // Not an end-to-end metric: on a shared 4-vCPU VM the median Compact time
  // of a run varied by 0.15-0.67 (IQR / median over 10 runs) under load from
  // other tenants, past the largest allowed bound.
  report.Add("corpus.compact_s", Median(leg.compact_s), "s");
  double passes = 0.0;
  for (const char* pass : {"distill", "dedup", "minimize"}) {
    const auto it = std::find_if(leg.compact.reports.begin(), leg.compact.reports.end(),
                                 [&](const dx::MaintenanceReport& r) {
                                   return r.transform == pass;
                                 });
    if (it == leg.compact.reports.end()) {
      report.Fail(std::string("Compact ran no ") + pass + " pass");
      continue;
    }
    report.Add(std::string("corpus.") + pass + "_s", it->seconds, "s");
    passes += it->seconds;
  }
  // What Compact spends beyond the three passes is its replay verification.
  report.Add("corpus.replay_s", leg.compact_s.back() - passes, "s");
}

}  // namespace cb
