// Shared pieces of the campaign benchmark: arguments, the metric report,
// the span recorder, and small statistics / digest helpers.
#ifndef CAMPAIGN_BENCH_SRC_BENCH_H_
#define CAMPAIGN_BENCH_SRC_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/session.h"
#include "src/service/campaign_manager.h"

namespace cb {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;   // Scratch space for this workload (corpora, spans).
  std::string cache_dir;  // The model cache this run uses (DEEPXPLORE_CACHE_DIR).
};

// Seconds on the steady clock since an arbitrary process-wide origin.
double Now();

// Derives an independent 64-bit stream from (seed, salt): campaign inputs
// and engine RNG seeds come from the workload seed through this, far away
// from the small data seeds the zoo trains and tests on.
uint64_t DeriveSeed(uint64_t seed, uint64_t salt);

// Metrics and operation accounting for the final JSON line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  // One operation (campaign, Status poll, compaction); a failed one also
  // records why, on stderr and in the error list.
  void Operation(bool ok, const std::string& what = "");
  void Fail(const std::string& why) { Operation(false, why); }
  bool ok() const { return failed_ == 0; }
  // Human-readable metric table (stdout) followed by the one-line JSON result.
  void Print() const;

 private:
  struct Entry {
    double value;
    std::string unit;
  };
  std::map<std::string, Entry> metrics_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// In-memory span recorder (name, start, end, parent). Spans are recorded
// from the benchmark's own files around calls into the engine's layers;
// nothing inside src/ is instrumented. Thread-safe.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  // A shared tracer that records nothing, for untraced legs.
  static Tracer& Off();
  // Returns the span id (-1 when disabled).
  int Begin(const std::string& name, int parent = -1);
  void End(int id);
  // Records a span measured elsewhere (e.g. in a child process).
  void Record(const std::string& name, double start, double end, int parent = -1);
  // Sum and mean of the durations of every span named `name` (0 if none).
  double Total(const std::string& name) const;
  double Mean(const std::string& name) const;
  // Writes every span as one JSON object per line.
  void Write(const std::string& path) const;

  // RAII span.
  class Scope {
   public:
    Scope(Tracer& tracer, const std::string& name, int parent = -1)
        : tracer_(tracer), id_(tracer.Begin(name, parent)) {}
    ~Scope() { tracer_.End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    Tracer& tracer_;
    int id_;
  };

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Linear-interpolated quantile (q in [0, 1]) of unsorted samples; 0 if empty.
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);

// Peak resident set size of this process since the last ResetPeakRss()
// (or since it started), MiB.
double PeakRssMb();
// Restarts the peak-RSS high-water mark from the current RSS (Linux
// /proc/self/clear_refs; without it the mark keeps covering the whole
// process).
void ResetPeakRss();

// Runs `fn` in a forked child process and returns the string it returns.
// Call it only while this process has no other thread: the child inherits
// none, so the engine's pools there start afresh. Throws if the child fails.
std::string RunInChild(const std::function<std::string()>& fn);

// FNV-1a over everything result-defining in a run: each generated test's
// input bits, labels/outputs, provenance and iteration count, plus the run
// counters and final coverage bits. Wall-clock fields are excluded, so a
// deterministic engine gives one digest per (inputs, config) at any worker
// count or batch width.
class Digest {
 public:
  void Bytes(const void* data, size_t n);
  template <typename T>
  void Pod(const T& v) {
    Bytes(&v, sizeof(v));
  }
  void Stats(const dx::RunStats& stats);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

// What one whole-campaign leg yields, on every workload.
struct LegOutcome {
  double wall = 0.0;  // Campaign wall time, the tests_per_s denominator.
  int tests = 0;
  int seeds_tried = 0;
  double final_coverage = 0.0;
  std::vector<double> latency_ms;  // GeneratedTest::seconds of every test.
  uint64_t digest = 0;
};

// The untraced run of a workload: `setups` set-ups, then whole-campaign
// legs while another fits in --seconds (counted from the first set-up), at
// least `min_legs`. `leg(i)` runs the i-th leg, on input variant
// i % `variants` (a workload with several variants gives each its own inputs
// or engine RNG seed).
struct EndToEndPlan {
  int setups = 5;
  int min_legs = 1;
  int variants = 1;
  std::function<double()> setup;  // One set-up; returns its seconds.
  std::function<LegOutcome(int)> leg;
};

// Runs the plan and reports every end-to-end metric. The first leg of each
// variant must find a test and match the cross-run digest registry; later
// legs must reproduce the digest of their variant's first leg.
void MeasureEndToEnd(const Args& args, const EndToEndPlan& plan, Report& report);

// The traced run's shared part: legs untraced, traced, traced, untraced (an
// order that cancels a linear drift) through `leg(traced)`, all of which must
// give one digest (recorded in the registry as `registry_leg`), then
// `invariance_leg()` at another worker count and chunk width, which must give
// it too. Reports trace.overhead_frac from the median walls.
void MeasureTraceOverhead(const Args& args, const std::string& registry_leg,
                          const std::function<LegOutcome(bool)>& leg,
                          const std::function<uint64_t()>& invariance_leg, Report& report);

// Executor figures of one campaign leg, summed over its campaigns.
struct ExecutorSample {
  dx::ExecutorProfile profile;
  double ascent_forwards = 0.0;  // Per-model forwards of the ascent loop.
  double iterations = 0.0;       // Ascent iterations of seeds that yielded a test.
  int width = 0;                 // Chunk width.
  int threads = 0;               // Compute threads the leg ran on.
  double wall = 0.0;
};
// Reports executor.* and session.worker_idle_frac.
void ReportExecutor(const ExecutorSample& sample, Report& report);

// One durable campaign of a service leg; its seeds are the domain test set,
// cycled (the daemon's submit API draws them itself).
struct ServiceCampaign {
  std::string domain;
  std::string metric = "neuron";
  std::string scheduler = "roundrobin";
  std::string constraint;  // "" = the domain default.
  int seeds = 0;
  uint64_t rng_seed = 0;   // Engine RNG seed.
};

struct ServiceShape {
  int campaign_workers = 2;
  int compute_threads = 2;  // Shared pool; with the campaign workers <= nproc.
  int width = 8;
};

// What a service leg yields.
struct ServiceLeg {
  LegOutcome outcome;  // wall: first submit to the poll that sees the last DONE.
  ExecutorSample executor;
  double active_frac = 0.0;
  // Submit to the first poll showing 90% of the final coverage, latest campaign.
  double time_to_cov = 0.0;
  std::vector<double> status_us;
  uint64_t checkpoint_records = 0;  // Longest chain of the first campaign seen by Status.
  std::vector<double> compact_s;
  dx::CompactResult compact;  // The last compaction.
  std::string corpus;         // The first campaign's corpus, the one compacted.
};

// An in-process CampaignManager (the daemon without sockets) runs
// `campaigns` together as durable campaigns, each recording a corpus under
// the run's scratch directory; Status is polled at the rate of the
// repository's own polling client until all are terminal. Then the first
// campaign's corpus is compacted `compactions` times (distill -> dedup ->
// minimize + replay). Every campaign must end DONE, every Compact must pass
// replay and keep one entry count; the digest covers the results and the
// compaction's entry counts.
ServiceLeg RunServiceLeg(const Args& args, const std::string& name,
                         const std::vector<ServiceCampaign>& campaigns, const ServiceShape& shape,
                         int compactions, Tracer& tracer, Report& report);
// Reports service.* and corpus.* (reopening the compacted corpus).
void ReportServiceAndCorpus(const ServiceLeg& leg, Report& report);

// Runs `fn` on the calling thread inside a thread-pool region, so layer
// kernels take their serial path exactly as they do on an executor worker
// (no intra-op fan-out onto other cores).
void RunAsWorker(const std::function<void()>& fn);

// One domain's models and the inputs the per-layer probes feed them.
struct ProbeSet {
  std::vector<dx::Model*> models;
  const std::vector<dx::Tensor>* inputs = nullptr;
};

// Traced-run probes (probes.cc). ProbeNn times ExecutionPlan::ForwardBatch /
// BackwardSample of every model and every layer's ForwardBatchInto /
// BackwardBatchInto in model order at chunk width `width`, and runs the FMA
// peak probe. ProbeCoverage times UpdateBatch, Clone + Merge and Serialize
// on the session's trackers.
void ProbeNn(const std::vector<ProbeSet>& sets, int width, Tracer& tracer, Report& report);
// Times Trainer::Fit of a freshly built copy of every model of `domains` for
// one epoch over generated samples (models.train_us).
void ProbeTrainer(const std::vector<std::string>& domains, uint64_t seed, Tracer& tracer,
                  Report& report);
void ProbeCoverage(dx::Session& session, const std::vector<dx::Tensor>& inputs, int width,
                   Tracer& tracer, Report& report);

// Workload entry points (report metrics into `report`).
void RunSessionWorkload(const Args& args, Report& report);
void RunDaemonWorkload(const Args& args, Report& report);

}  // namespace cb

#endif  // CAMPAIGN_BENCH_SRC_BENCH_H_
