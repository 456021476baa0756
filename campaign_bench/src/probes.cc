// Traced-run probes of single layers: the nn layer (plans and every layer's
// batch kernels, in model order), an FMA peak probe, the trainer, and the
// coverage trackers. Every timed call is a span; the metrics are read back
// from the spans.
#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "campaign_bench/src/bench.h"
#include "src/core/domain.h"
#include "src/coverage/coverage_metric.h"
#include "src/models/trainer.h"
#include "src/nn/execution_plan.h"
#include "src/tensor/ops.h"
#include "src/tensor/simd.h"
#include "src/tensor/workspace.h"
#include "src/util/serialize.h"

namespace cb {
namespace {

// Each probe repeats until it has run this long (and at least kMinReps times,
// at most kMaxReps).
constexpr double kProbeSeconds = 0.05;
constexpr int kMinReps = 5;
constexpr int kMaxReps = 200;

// No model of the benchmark's domains has a batchnorm layer; it would count
// as "other".
const char* const kKinds[] = {"conv", "dense", "residual", "pool", "other"};

std::string KindOf(const dx::Layer& layer) {
  const std::string k = layer.Kind();
  if (k == "conv2d") return "conv";
  if (k == "pool2d") return "pool";
  if (k == "dense" || k == "residual") return k;
  return "other";
}

// Multiply-accumulates per sample of one direction of a conv2d or dense
// layer, from its compiled weight shape ([out, in, kh, kw] / [out, in]).
// Forward and input-gradient GEMMs have the same count.
double LayerMacs(const dx::Layer& layer, const dx::Shape& out_shape) {
  const std::string k = layer.Kind();
  if (k != "conv2d" && k != "dense") return 0.0;
  const dx::Tensor& w = *layer.Params()[0];
  if (k == "dense") return static_cast<double>(w.numel());
  const double per_output = static_cast<double>(w.numel()) / w.shape()[0];
  return static_cast<double>(dx::NumElements(out_shape)) * per_output;
}

// Repetitions for a probe whose single warm run took `one` seconds.
int RepsFor(double one) {
  return std::clamp(static_cast<int>(std::ceil(kProbeSeconds / std::max(one, 1e-9))), kMinReps,
                    kMaxReps);
}

// Single-thread FMA throughput with kAcc independent vector chains (enough to
// cover the FMA latency on current cores), GFLOP/s.
double FmaPeakGflops() {
  using dx::simd::VecF;
  constexpr int kAcc = 12;
  constexpr int64_t kIters = int64_t{1} << 22;
  volatile float seed = 1e-7f;
  const VecF a = VecF::Broadcast(0.999f + seed);
  const VecF b = VecF::Broadcast(seed);
  double best = 0.0;
  for (int trial = 0; trial < 3; ++trial) {
    VecF acc[kAcc];
    for (int j = 0; j < kAcc; ++j) acc[j] = VecF::Broadcast(seed * static_cast<float>(j + 1));
    const double t0 = Now();
    for (int64_t i = 0; i < kIters; ++i) {
      for (int j = 0; j < kAcc; ++j) acc[j] = VecF::Fma(acc[j], a, b);
    }
    const double elapsed = Now() - t0;
    float sink[dx::simd::kLanes];
    VecF sum = VecF::Zero();
    for (int j = 0; j < kAcc; ++j) sum = VecF::Add(sum, acc[j]);
    sum.Store(sink);
    seed = sink[0] * 1e-30f + 1e-7f;  // Keeps the chains observable.
    best = std::max(best, 2.0 * dx::simd::kLanes * kAcc * static_cast<double>(kIters) /
                              elapsed / 1e9);
  }
  return best;
}

// Per-kind time and FLOPs accumulated over every probed model, per sample,
// and the plan-level times summed over the models.
struct KindTotals {
  std::map<std::string, double> fwd_s, bwd_s, flops;
  double plan_fwd_s = 0.0, plan_bwd_s = 0.0;
};

void ProbeModel(const dx::Model& model, const std::vector<dx::Tensor>& inputs, int width,
                Tracer& tracer, KindTotals& totals) {
  const std::string& name = model.name();
  const int w = std::min<int>(width, static_cast<int>(inputs.size()));
  const int64_t in_numel = dx::NumElements(model.input_shape());
  dx::Tensor stacked(dx::BatchedShape(w, model.input_shape()));
  for (int i = 0; i < w; ++i) {
    std::copy(inputs[i].data(), inputs[i].data() + in_numel, stacked.data() + i * in_numel);
  }
  const int last = model.num_layers() - 1;

  // Plan level: ForwardBatch per sample at width w, BackwardSample per call.
  dx::ExecutionPlan plan = model.Compile(w);
  double t0 = Now();
  plan.ForwardBatch(stacked, w);
  int reps = RepsFor(Now() - t0);
  for (int r = 0; r < reps; ++r) {
    Tracer::Scope span(tracer, "nn." + name + ".ForwardBatch");
    plan.ForwardBatch(stacked, w);
  }
  totals.plan_fwd_s += tracer.Mean("nn." + name + ".ForwardBatch") / w;
  dx::Tensor& seed = plan.AcquireSeed(last);
  seed.data()[0] = 1.0f;
  t0 = Now();
  plan.BackwardSample(0, last, seed);
  reps = RepsFor(Now() - t0);
  for (int r = 0; r < reps; ++r) {
    Tracer::Scope span(tracer, "nn." + name + ".BackwardSample");
    plan.BackwardSample(r % w, last, seed);
  }
  totals.plan_bwd_s += tracer.Mean("nn." + name + ".BackwardSample");

  // Layer level, in model order: ForwardBatchInto at width w, then the
  // width-1 forward + BackwardBatchInto chain the per-sample backward runs.
  const size_t n = static_cast<size_t>(model.num_layers());
  const auto run_chain = [&](int batch, const dx::Tensor& input, std::vector<dx::Tensor>& out,
                             std::vector<dx::Tensor>& aux, std::vector<dx::Workspace>& ws,
                             int parent, bool traced) {
    const dx::Tensor* cur = &input;
    for (size_t l = 0; l < n; ++l) {
      Tracer::Scope span(traced ? tracer : Tracer::Off(),
                         "nn." + name + ".L" + std::to_string(l) + ".fwd", parent);
      ws[l].Rewind();
      model.layer(static_cast<int>(l))
          .ForwardBatchInto(*cur, batch, false, nullptr, &out[l], &aux[l], &ws[l]);
      cur = &out[l];
    }
  };
  std::vector<dx::Tensor> out(n), aux(n), out1(n), aux1(n), grad(n);
  std::vector<dx::Workspace> fws(n), fws1(n), bws(n);
  for (size_t l = 0; l < n; ++l) {
    out[l] = dx::Tensor(dx::BatchedShape(w, model.layer_output_shape(static_cast<int>(l))));
    out1[l] = dx::Tensor(dx::BatchedShape(1, model.layer_output_shape(static_cast<int>(l))));
    grad[l] = dx::Tensor(dx::BatchedShape(
        1, l == 0 ? model.input_shape() : model.layer_output_shape(static_cast<int>(l) - 1)));
  }
  t0 = Now();
  run_chain(w, stacked, out, aux, fws, -1, false);
  reps = RepsFor(Now() - t0);
  for (int r = 0; r < reps; ++r) {
    Tracer::Scope rep(tracer, "nn." + name + ".layers.fwd");
    run_chain(w, stacked, out, aux, fws, rep.id(), true);
  }
  dx::Tensor input1(dx::BatchedShape(1, model.input_shape()));
  std::copy(stacked.data(), stacked.data() + in_numel, input1.data());
  run_chain(1, input1, out1, aux1, fws1, -1, false);
  dx::Tensor out_seed(dx::BatchedShape(1, model.layer_output_shape(last)));
  out_seed.data()[0] = 1.0f;
  const auto backward_chain = [&](int parent, bool traced) {
    const dx::Tensor* g = &out_seed;
    for (int l = last; l >= 0; --l) {
      const size_t i = static_cast<size_t>(l);
      Tracer::Scope span(traced ? tracer : Tracer::Off(),
                         "nn." + name + ".L" + std::to_string(l) + ".bwd", parent);
      bws[i].Rewind();
      model.layer(l).BackwardBatchInto(l == 0 ? input1 : out1[i - 1], out1[i], *g, aux1[i], 1,
                                       &grad[i], &bws[i], nullptr);
      g = &grad[i];
    }
  };
  t0 = Now();
  backward_chain(-1, false);
  reps = RepsFor(Now() - t0);
  for (int r = 0; r < reps; ++r) {
    Tracer::Scope rep(tracer, "nn." + name + ".layers.bwd");
    backward_chain(rep.id(), true);
  }

  for (size_t l = 0; l < n; ++l) {
    const dx::Layer& layer = model.layer(static_cast<int>(l));
    const std::string kind = KindOf(layer);
    const std::string base = "nn." + name + ".L" + std::to_string(l);
    totals.fwd_s[kind] += tracer.Mean(base + ".fwd") / w;
    totals.bwd_s[kind] += tracer.Mean(base + ".bwd");
    totals.flops[kind] +=
        4.0 * LayerMacs(layer, model.layer_output_shape(static_cast<int>(l)));
  }
}

}  // namespace

void ProbeNn(const std::vector<ProbeSet>& sets, int width, Tracer& tracer, Report& report) {
  RunAsWorker([&] {
    KindTotals totals;
    for (const ProbeSet& set : sets) {
      for (const dx::Model* m : set.models) {
        ProbeModel(*m, *set.inputs, width, tracer, totals);
      }
    }
    report.Add("nn.fwd_us", totals.plan_fwd_s * 1e6, "us");
    report.Add("nn.bwd_us", totals.plan_bwd_s * 1e6, "us");
    double fwd = 0.0, bwd = 0.0;
    for (const char* kind : kKinds) {
      fwd += totals.fwd_s[kind];
      bwd += totals.bwd_s[kind];
    }
    for (const char* kind : kKinds) {
      report.Add(std::string("nn.") + kind + ".fwd_share", totals.fwd_s[kind] / fwd, "ratio");
      report.Add(std::string("nn.") + kind + ".bwd_share", totals.bwd_s[kind] / bwd, "ratio");
    }
    double peak = 0.0;
    {
      Tracer::Scope span(tracer, "nn.fma_probe");
      peak = FmaPeakGflops();
    }
    report.Add("nn.fma_peak_gflops", peak, "GFLOP/s");
    // Achieved rate of the GEMM layers (conv and dense together) over both
    // directions, from FLOPs computed out of the compiled shapes (not counted
    // by hardware).
    double flops = 0.0, seconds = 0.0;
    for (const char* kind : {"conv", "dense"}) {
      flops += totals.flops[kind];
      seconds += totals.fwd_s[kind] + totals.bwd_s[kind];
    }
    const double gflops = flops / seconds / 1e9;
    report.Add("nn.gemm.gflops", gflops, "GFLOP/s");
    report.Add("nn.gemm.peak_frac", gflops / peak, "ratio");
  });
}

void ProbeTrainer(const std::vector<std::string>& domains, uint64_t seed, Tracer& tracer,
                  Report& report) {
  // One epoch of minibatch Adam over this many generated samples per model.
  constexpr int kSamples = 256;
  double seconds = 0.0;
  for (const std::string& domain : domains) {
    const dx::DomainSpec& spec = dx::GetDomain(domain);
    const dx::Dataset data = spec.make_dataset(kSamples, DeriveSeed(seed, 4));
    for (const dx::DomainModelSpec& m : spec.models) {
      dx::Model model = m.build(DeriveSeed(seed, 5));
      dx::TrainConfig config;
      config.epochs = 1;
      config.learning_rate =
          m.learning_rate > 0.0f ? m.learning_rate : spec.training.learning_rate;
      const double t0 = Now();
      {
        Tracer::Scope span(tracer, "models.Fit." + m.name);
        dx::Trainer::Fit(&model, data, config);
      }
      seconds += Now() - t0;
    }
  }
  report.Add("models.train_us", seconds / kSamples * 1e6, "us");
}

void ProbeCoverage(dx::Session& session, const std::vector<dx::Tensor>& inputs, int width,
                   Tracer& tracer, Report& report) {
  RunAsWorker([&] {
    const int k = session.num_models();
    const int w = std::min<int>(width, static_cast<int>(inputs.size()));
    const dx::Model& first = session.model(0);
    const int64_t in_numel = dx::NumElements(first.input_shape());
    dx::Tensor stacked(dx::BatchedShape(w, first.input_shape()));
    for (int i = 0; i < w; ++i) {
      std::copy(inputs[i].data(), inputs[i].data() + in_numel, stacked.data() + i * in_numel);
    }
    std::vector<dx::ExecutionPlan> plans;
    std::vector<std::unique_ptr<dx::CoverageMetric>> trackers;
    for (int m = 0; m < k; ++m) {
      plans.push_back(session.model(m).Compile(w));
      plans.back().ForwardBatch(stacked, w);
      trackers.push_back(session.metric(m).Clone());
    }
    // UpdateBatch on the width-1 sample traces the executor feeds it.
    for (int r = 0; r < kMinReps * 4; ++r) {
      for (int pos = 0; pos < w; ++pos) {
        for (int m = 0; m < k; ++m) {
          const dx::BatchTrace& trace = plans[m].SampleTrace(pos);
          Tracer::Scope span(tracer, "coverage.UpdateBatch");
          trackers[m]->UpdateBatch(session.model(m), trace);
        }
      }
    }
    report.Add("coverage.update_us", tracer.Mean("coverage.UpdateBatch") * 1e6, "us");
    // One sync batch's worth: a worker clone of every model's tracker merged
    // back into the session-side tracker.
    for (int r = 0; r < kMinReps * 4; ++r) {
      Tracer::Scope span(tracer, "coverage.clone_merge");
      for (int m = 0; m < k; ++m) {
        std::unique_ptr<dx::CoverageMetric> clone = session.metric(m).Clone();
        trackers[m]->Merge(*clone);
      }
    }
    report.Add("coverage.merge_us", tracer.Mean("coverage.clone_merge") * 1e6, "us");
    // The checkpoint payload: every model's serialized tracker.
    size_t bytes = 0;
    for (int r = 0; r < kMinReps * 4; ++r) {
      Tracer::Scope span(tracer, "coverage.Serialize");
      bytes = 0;
      for (int m = 0; m < k; ++m) {
        std::ostringstream os;
        dx::BinaryWriter writer(os);
        session.metric(m).Serialize(writer);
        bytes += os.str().size();
      }
    }
    report.Add("coverage.serialize_us", tracer.Mean("coverage.Serialize") * 1e6, "us");
    report.Add("coverage.state_bytes", static_cast<double>(bytes), "bytes");
  });
}

}  // namespace cb
