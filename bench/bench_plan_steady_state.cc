// Steady-state execution-plan throughput: the compiled zero-allocation path
// (Model::Compile + plan-backed ForwardBatch / BackwardInputBatch /
// BackwardSample) against the allocating by-value API, on one conv-heavy
// model (MNI_C1), one dense-heavy model (PDF_C1) and the residual MiniResNet
// (IMG_C3, untrained weights). Ops: "forward",
// "forward+backward", and "backward" (gradient sweep alone over warm
// activations — the gradient-ascent inner-loop shape).
//
// Once the plan is warm, an iteration touches only pre-sized slabs and
// arena scratch, and the plan path runs the SIMD GEMM / direct-convolution
// kernels while the by-value path stays on the scalar oracle. The two paths
// are checked inline before timing under the same ULP/abs tolerances the
// test suite uses (they accumulate in different orders, so bit-identity is
// not the contract here).
//
// A second table times the conv kernels alone: every distinct conv geometry
// of the imagenet (IMG_C1..3, residual-block convs included) and mnist
// (MNI_C1..3) trios, as one Conv2D's plan-path ForwardBatchInto and
// input-only BackwardBatchInto at width 1 (the executor's per-sample
// backward shape), in microseconds per sample: median and interquartile
// range over max(5, --runs) repetitions, each at least ~2 ms of calls,
// single-threaded (timed inside a pool region, the serial path an executor
// worker takes).
//
// Emits a JSON record (stdout and <artifact dir>/plan_steady_state.json);
// the checked-in baseline lives at bench/baselines/plan_steady_state.json.
// The CI Release job runs this bench once as a smoke test so the plan path
// cannot bit-rot in optimized builds.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/nn/conv2d.h"
#include "src/nn/execution_plan.h"
#include "src/nn/residual.h"
#include "src/tensor/ops.h"
#include "src/tensor/workspace.h"
#include "src/util/rng.h"
#include "src/util/table.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"

namespace {

using namespace dx;
using namespace dx::bench;

enum class Op { kForward, kForwardBackward, kBackward };

const char* OpName(Op op) {
  switch (op) {
    case Op::kForward: return "forward";
    case Op::kForwardBackward: return "forward+backward";
    case Op::kBackward: return "backward";
  }
  return "?";
}

struct Row {
  std::string model;
  std::string op;           // "forward", "forward+backward", or "backward"
  int batch = 8;
  double byvalue_sps = 0.0;  // samples/sec, allocating by-value API
  double plan_sps = 0.0;     // samples/sec, compiled plan
  double speedup = 0.0;
};

// Minimal mirror of the test suite's ULP/abs tolerance check (the bench can
// not link gtest): an element passes within `max_abs` absolutely or within
// `max_ulp` representable floats. Same bounds as tests/test_util.h.
int64_t UlpKey(float f) {
  int32_t i;
  std::memcpy(&i, &f, sizeof(i));
  return i >= 0 ? int64_t{i} : int64_t{std::numeric_limits<int32_t>::min()} - i;
}

bool BuffersNear(const float* got, const float* want, int64_t n, int64_t max_ulp,
                 float max_abs) {
  for (int64_t i = 0; i < n; ++i) {
    if (std::abs(got[i] - want[i]) <= max_abs) {
      continue;
    }
    if (!(std::isfinite(got[i]) && std::isfinite(want[i]))) {
      return false;
    }
    const int64_t d = UlpKey(got[i]) - UlpKey(want[i]);
    if ((d < 0 ? -d : d) > max_ulp) {
      return false;
    }
  }
  return true;
}

Row BenchOne(const Model& model, int batch, Op op, int reps) {
  Rng rng(7);
  const Tensor stacked =
      Tensor::RandUniform(BatchedShape(batch, model.input_shape()), rng);
  const int last = model.num_layers() - 1;
  const Tensor seed =
      Tensor::RandUniform(BatchedShape(batch, model.output_shape()), rng, -1.0f, 1.0f);

  ExecutionPlan plan = model.Compile(batch);

  // Correctness before timing: the plan (GEMM/SIMD) path must reproduce the
  // by-value scalar oracle within the kernel tolerances (forward 512 ULP /
  // 1e-5 abs, backward 8192 ULP / 1e-4 abs — see tests/test_util.h).
  {
    const BatchTrace want = model.ForwardBatch(stacked);
    const BatchTrace& got = model.ForwardBatch(stacked, plan);
    for (int l = 0; l < model.num_layers(); ++l) {
      const Tensor& g = got.outputs[static_cast<size_t>(l)];
      const Tensor& w = want.outputs[static_cast<size_t>(l)];
      if (g.numel() != w.numel() ||
          !BuffersNear(g.data(), w.data(), w.numel(), 512, 1e-5f)) {
        std::cerr << "ERROR: plan forward diverges from by-value (" << model.name()
                  << ", layer " << l << ")\n";
        std::exit(1);
      }
    }
    const Tensor want_g = model.BackwardInputBatch(want, last, seed);
    const Tensor& got_g = model.BackwardInputBatch(plan, last, seed);
    if (got_g.numel() != want_g.numel() ||
        !BuffersNear(got_g.data(), want_g.data(), want_g.numel(), 8192, 1e-4f)) {
      std::cerr << "ERROR: plan backward diverges from by-value (" << model.name()
                << ")\n";
      std::exit(1);
    }
  }

  Row row;
  row.model = model.name();
  row.op = OpName(op);
  row.batch = batch;
  if (op == Op::kBackward) {
    // Backward phase in isolation: activations stay warm from one forward and
    // only the gradient sweep is timed — the shape of the gradient-ascent
    // inner loop, which reuses each forward across several ascent steps.
    const BatchTrace trace = model.ForwardBatch(stacked);
    {
      Timer timer;
      for (int r = 0; r < reps; ++r) {
        const Tensor g = model.BackwardInputBatch(trace, last, seed);
        (void)g;
      }
      row.byvalue_sps = static_cast<double>(reps) * batch / timer.ElapsedSeconds();
    }
    model.ForwardBatch(stacked, plan);  // Warm the slabs at this width.
    {
      Timer timer;
      for (int r = 0; r < reps; ++r) {
        model.BackwardInputBatch(plan, last, seed);
      }
      row.plan_sps = static_cast<double>(reps) * batch / timer.ElapsedSeconds();
    }
    row.speedup = row.byvalue_sps > 0.0 ? row.plan_sps / row.byvalue_sps : 0.0;
    return row;
  }
  const bool backward = op == Op::kForwardBackward;
  {
    Timer timer;
    for (int r = 0; r < reps; ++r) {
      const BatchTrace trace = model.ForwardBatch(stacked);
      if (backward) {
        const Tensor g = model.BackwardInputBatch(trace, last, seed);
        (void)g;
      }
    }
    row.byvalue_sps = static_cast<double>(reps) * batch / timer.ElapsedSeconds();
  }
  {
    model.ForwardBatch(stacked, plan);  // Warm the slabs at this width.
    Timer timer;
    for (int r = 0; r < reps; ++r) {
      model.ForwardBatch(stacked, plan);
      if (backward) {
        model.BackwardInputBatch(plan, last, seed);
      }
    }
    row.plan_sps = static_cast<double>(reps) * batch / timer.ElapsedSeconds();
  }
  row.speedup = row.byvalue_sps > 0.0 ? row.plan_sps / row.byvalue_sps : 0.0;
  return row;
}

// ---- Per-geometry conv kernel rows ----------------------------------------------

struct ConvSpec {
  int in_c, out_c, kh, kw, stride, pad, in_h, in_w;
  bool operator==(const ConvSpec&) const = default;
};

struct Spread {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
};

struct ConvRow {
  ConvSpec spec;
  std::string models;  // Every model of the two trios using this geometry.
  Spread fwd_us;       // Per sample.
  Spread bwd_us;
};

std::string GeometryName(const ConvSpec& c) {
  std::ostringstream out;
  out << c.in_c << "->" << c.out_c << " k" << c.kh << "x" << c.kw << " s" << c.stride
      << " p" << c.pad << " in " << c.in_h << "x" << c.in_w;
  return out.str();
}

// The conv layers of a model in execution order, with their input extents.
// A ResidualBlock is conv1 (3x3, block stride, pad 1), conv2 (3x3, stride 1,
// pad 1) and, when it has one, the projection (1x1, block stride, pad 0).
std::vector<ConvSpec> ConvSpecs(const Model& model) {
  std::vector<ConvSpec> specs;
  for (int l = 0; l < model.num_layers(); ++l) {
    const Shape& in = l == 0 ? model.input_shape() : model.layer_output_shape(l - 1);
    const Shape& out = model.layer_output_shape(l);
    const Layer& layer = model.layer(l);
    if (const auto* conv = dynamic_cast<const Conv2D*>(&layer)) {
      specs.push_back({in[0], out[0], conv->kernel_h(), conv->kernel_w(), conv->stride(),
                       conv->padding(), in[1], in[2]});
    } else if (const auto* block = dynamic_cast<const ResidualBlock*>(&layer)) {
      const int stride = in[1] / out[1];
      specs.push_back({in[0], out[0], 3, 3, stride, 1, in[1], in[2]});
      specs.push_back({out[0], out[0], 3, 3, 1, 1, out[1], out[2]});
      if (block->has_projection()) {
        specs.push_back({in[0], out[0], 1, 1, stride, 0, in[1], in[2]});
      }
    }
  }
  return specs;
}

// Median and quartiles of `repetitions` timings of fn, in microseconds per
// call; each repetition runs enough calls to last ~2 ms.
template <typename Fn>
Spread TimeMicros(const Fn& fn, int repetitions) {
  Timer probe;
  fn();
  const int calls = std::max(1, static_cast<int>(2e-3 / std::max(1e-7, probe.ElapsedSeconds())));
  std::vector<double> us;
  for (int r = 0; r < repetitions; ++r) {
    Timer timer;
    for (int i = 0; i < calls; ++i) {
      fn();
    }
    us.push_back(timer.ElapsedSeconds() * 1e6 / calls);
  }
  std::sort(us.begin(), us.end());
  const auto at = [&](double q) { return us[static_cast<size_t>(q * (us.size() - 1) + 0.5)]; };
  return {at(0.5), at(0.25), at(0.75)};
}

// Fills row->fwd_us and row->bwd_us for row->spec.
void BenchConv(ConvRow* row, int repetitions) {
  const ConvSpec& c = row->spec;
  Rng rng(11);
  Conv2D conv(c.in_c, c.out_c, c.kh, c.kw, c.stride, c.pad, Activation::kRelu);
  conv.InitParams(rng);
  const Shape out_shape = conv.OutputShape({c.in_c, c.in_h, c.in_w});
  const Tensor input = Tensor::RandUniform({1, c.in_c, c.in_h, c.in_w}, rng, -1.0f, 1.0f);
  const Tensor grad_out =
      Tensor::RandUniform({1, out_shape[0], out_shape[1], out_shape[2]}, rng, -1.0f, 1.0f);
  Tensor output(grad_out.shape());
  Tensor grad_in(input.shape());
  const Tensor no_aux;
  Workspace ws;
  row->fwd_us = TimeMicros(
      [&] {
        ws.Rewind();
        conv.ForwardBatchInto(input, 1, false, nullptr, &output, nullptr, &ws);
      },
      repetitions);
  row->bwd_us = TimeMicros(
      [&] {
        ws.Rewind();
        conv.BackwardBatchInto(input, output, grad_out, no_aux, 1, &grad_in, &ws, nullptr);
      },
      repetitions);
}

std::vector<ConvRow> BenchConvKernels(int repetitions) {
  std::vector<ConvRow> rows;
  for (const char* name : {"IMG_C1", "IMG_C2", "IMG_C3", "MNI_C1", "MNI_C2", "MNI_C3"}) {
    const Model model = ModelZoo::Build(name, 7);
    for (const ConvSpec& spec : ConvSpecs(model)) {
      const auto it = std::find_if(rows.begin(), rows.end(),
                                   [&](const ConvRow& r) { return r.spec == spec; });
      if (it == rows.end()) {
        rows.push_back({spec, name, {}, {}});
      } else if (it->models.find(name) == std::string::npos) {
        it->models += std::string(",") + name;
      }
    }
  }
  // Serial, as inside an executor worker: nested kernel gates see
  // InParallelRegion() (n == 2 because a 1-iteration loop runs inline).
  ParallelFor(2, [&](int64_t idx) {
    if (idx != 0) {
      return;
    }
    for (ConvRow& row : rows) {
      BenchConv(&row, repetitions);
    }
  });
  return rows;
}

std::string ToJson(const std::vector<Row>& rows, const std::vector<ConvRow>& conv_rows) {
  std::ostringstream out;
  out << "{\n"
      << "  \"bench\": \"plan_steady_state\",\n"
      << "  \"models\": [\"MNI_C1\", \"PDF_C1\", \"IMG_C3\"],\n"
      << "  \"host_cores\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"model\": \"" << r.model << "\", \"op\": \"" << r.op
        << "\", \"batch\": " << r.batch << ", \"byvalue_samples_per_sec\": "
        << r.byvalue_sps << ", \"plan_samples_per_sec\": " << r.plan_sps
        << ", \"speedup\": " << r.speedup << "}" << (i + 1 < rows.size() ? "," : "")
        << "\n";
  }
  out << "  ],\n"
      << "  \"conv_kernels\": [\n";
  for (size_t i = 0; i < conv_rows.size(); ++i) {
    const ConvRow& r = conv_rows[i];
    out << "    {\"geometry\": \"" << GeometryName(r.spec) << "\", \"models\": \""
        << r.models << "\", \"fwd_us_per_sample\": " << r.fwd_us.median
        << ", \"fwd_us_q1\": " << r.fwd_us.q1 << ", \"fwd_us_q3\": " << r.fwd_us.q3
        << ", \"bwd_us_per_sample\": " << r.bwd_us.median
        << ", \"bwd_us_q1\": " << r.bwd_us.q1 << ", \"bwd_us_q3\": " << r.bwd_us.q3
        << "}" << (i + 1 < conv_rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = ParseArgs(argc, argv);
  PrintHeader("Plan steady state",
              "compiled ExecutionPlan vs allocating by-value execution", args);

  std::vector<Row> rows;
  bool plan_wins = true;
  for (const char* name : {"MNI_C1", "PDF_C1", "IMG_C3"}) {
    const Model model = ModelZoo::Build(name, 7);
    for (const Op op : {Op::kForward, Op::kForwardBackward, Op::kBackward}) {
      for (const int batch : {1, 8}) {
        const Tensor probe = Tensor::Zeros(model.input_shape());
        Timer probe_timer;
        model.Forward(probe);
        const double per_sample = std::max(1e-7, probe_timer.ElapsedSeconds());
        const int cost_factor = op == Op::kForward ? 1 : op == Op::kBackward ? 2 : 3;
        const int reps =
            std::max(3, static_cast<int>(0.3 / (per_sample * batch * cost_factor)));
        rows.push_back(BenchOne(model, batch, op, reps));
        const Row& r = rows.back();
        std::cerr << r.model << " " << r.op << " batch=" << r.batch << ": "
                  << r.byvalue_sps << " -> " << r.plan_sps << " samples/s ("
                  << r.speedup << "x)\n";
        if (r.speedup < 0.95) {
          plan_wins = false;  // The plan must never lose to the allocating path.
        }
      }
    }
  }

  TablePrinter table({"Model", "Op", "Batch", "By-value s/s", "Plan s/s", "Speedup"});
  for (const Row& r : rows) {
    table.AddRow({r.model, r.op, std::to_string(r.batch),
                  TablePrinter::Num(r.byvalue_sps, 0), TablePrinter::Num(r.plan_sps, 0),
                  TablePrinter::Num(r.speedup, 2) + "x"});
  }
  std::cout << table.ToString();

  const int repetitions = std::max(5, args.runs);
  const std::vector<ConvRow> conv_rows = BenchConvKernels(repetitions);
  TablePrinter conv_table({"Conv geometry", "Models", "Fwd us/sample", "Fwd IQR",
                           "Bwd us/sample", "Bwd IQR"});
  for (const ConvRow& r : conv_rows) {
    conv_table.AddRow({GeometryName(r.spec), r.models, TablePrinter::Num(r.fwd_us.median, 2),
                       TablePrinter::Num(r.fwd_us.q3 - r.fwd_us.q1, 2),
                       TablePrinter::Num(r.bwd_us.median, 2),
                       TablePrinter::Num(r.bwd_us.q3 - r.bwd_us.q1, 2)});
  }
  std::cout << "conv kernels, width 1, single thread, median of " << repetitions
            << " repetitions:\n"
            << conv_table.ToString();

  const std::string json = ToJson(rows, conv_rows);
  std::cout << json;
  const std::string path = ArtifactDir() + "/plan_steady_state.json";
  std::ofstream file(path);
  file << json;
  std::cout << "json written to " << path << "\n";
  if (!plan_wins) {
    std::cerr << "WARNING: plan path slower than the by-value path on some row\n";
  }
  return 0;
}
