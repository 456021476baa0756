// Randomized property tests for the GEMM / convolution kernel layer
// (src/nn/gemm.h) in the style of tests/batch_property_test.cc: fixed-seed
// random sweeps over shapes chosen to hit every kernel path — full
// microkernel tiles, row/column edge tiles, the N == 1 GEMV case, odd
// strides, asymmetric padding effects, and kernels larger than the padded
// input. These properties are checked:
//
//   1. GemmBias matches a naive scalar reference within the kernel forward
//      tolerance (the reference uses separate mul+add, the kernel fused
//      ascending-k FMA — same contract as the by-value oracle comparison).
//   2. GemmBias is BIT-identical however the N dimension is partitioned
//      (whole call vs per-column calls) — the width-invariance guarantee
//      the executor's batch determinism rests on.
//   3. Conv2D / Dense ForwardBatchInto (the plan path) match the by-value
//      scalar oracle within tolerance at batch 1 and 8, and Im2Col itself
//      matches a direct gather exactly (pure data movement).
//   4. The im2col-free conv kernels are BIT-identical to the compositions
//      they replace, on every conv geometry of the model zoo and on output
//      widths that are not a multiple of the SIMD width: ConvForward ==
//      Im2Col + GemmBias, GemmTransABias == TransposeMatrix + GemmBias, the
//      padded Col2Im == a naive same-order scatter, and Conv2D's plan
//      forward / input gradient == those compositions per sample at widths
//      {1, 3, 8}, free-threaded and forced serial.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/nn/conv2d.h"
#include "src/nn/dense.h"
#include "src/nn/gemm.h"
#include "src/tensor/tensor.h"
#include "src/tensor/workspace.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "tests/test_util.h"

namespace dx {
namespace {

using testing::ExpectBuffersNear;
using testing::ExpectTensorsNear;
using testing::kKernelForwardTolerance;

constexpr int kTrials = 12;

int RandInt(Rng& rng, int lo, int hi) {
  return static_cast<int>(rng.UniformInt(lo, hi));
}

std::vector<float> RandVec(Rng& rng, int64_t n) {
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) {
    x = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  return v;
}

// Naive reference: separate multiply and add, ascending k (the same
// per-element order the scalar by-value kernels use).
std::vector<float> NaiveGemmBias(int M, int N, int K, const float* A, int lda,
                                 const float* B, int ldb, const float* bias) {
  std::vector<float> C(static_cast<size_t>(M) * N);
  for (int m = 0; m < M; ++m) {
    for (int n = 0; n < N; ++n) {
      float acc = bias != nullptr ? bias[m] : 0.0f;
      for (int k = 0; k < K; ++k) {
        acc += A[static_cast<size_t>(m) * lda + k] * B[static_cast<size_t>(k) * ldb + n];
      }
      C[static_cast<size_t>(m) * N + n] = acc;
    }
  }
  return C;
}

TEST(GemmKernelTest, MatchesNaiveReferenceAcrossRandomShapes) {
  Rng rng(0x6E);
  for (int t = 0; t < kTrials; ++t) {
    // Straddle the 4x16 (AVX2) blocking: M and N cover below-one-tile,
    // exact-tile, and tile-plus-edge; K covers the length of the chain.
    const int M = RandInt(rng, 1, 21);
    const int N = RandInt(rng, 1, 37);
    const int K = RandInt(rng, 1, 64);
    const std::vector<float> A = RandVec(rng, static_cast<int64_t>(M) * K);
    const std::vector<float> B = RandVec(rng, static_cast<int64_t>(K) * N);
    const std::vector<float> bias = RandVec(rng, M);
    const bool use_bias = rng.Bernoulli(0.5);

    std::vector<float> C(static_cast<size_t>(M) * N, -999.0f);
    GemmBias(M, N, K, A.data(), K, B.data(), N, use_bias ? bias.data() : nullptr,
             C.data(), N);
    const std::vector<float> want =
        NaiveGemmBias(M, N, K, A.data(), K, B.data(), N,
                      use_bias ? bias.data() : nullptr);
    ExpectBuffersNear(C.data(), want.data(), static_cast<int64_t>(M) * N,
                      kKernelForwardTolerance,
                      "gemm M=" + std::to_string(M) + " N=" + std::to_string(N) +
                          " K=" + std::to_string(K));
  }
}

TEST(GemmKernelTest, BitIdenticalUnderColumnPartition) {
  Rng rng(0x6F);
  for (int t = 0; t < kTrials; ++t) {
    const int M = RandInt(rng, 1, 13);
    const int N = RandInt(rng, 2, 40);
    const int K = RandInt(rng, 1, 48);
    const std::vector<float> A = RandVec(rng, static_cast<int64_t>(M) * K);
    const std::vector<float> B = RandVec(rng, static_cast<int64_t>(K) * N);
    const std::vector<float> bias = RandVec(rng, M);

    std::vector<float> whole(static_cast<size_t>(M) * N);
    GemmBias(M, N, K, A.data(), K, B.data(), N, bias.data(), whole.data(), N);

    // Column by column: every output element must come out bit-identical,
    // because each element is one fixed ascending-k chain regardless of how
    // many columns share the call (this is what makes plan results
    // independent of batch width).
    std::vector<float> cols(static_cast<size_t>(M) * N);
    for (int n = 0; n < N; ++n) {
      GemmBias(M, 1, K, A.data(), K, B.data() + n, N, bias.data(), cols.data() + n, N);
    }
    for (int64_t i = 0; i < static_cast<int64_t>(M) * N; ++i) {
      ASSERT_EQ(whole[static_cast<size_t>(i)], cols[static_cast<size_t>(i)])
          << "element " << i << " (M=" << M << " N=" << N << " K=" << K << ")";
    }
  }
}

TEST(GemmKernelTest, Im2ColMatchesDirectGatherExactly) {
  Rng rng(0x70);
  for (int t = 0; t < kTrials; ++t) {
    const int c = RandInt(rng, 1, 4);
    const int in_h = RandInt(rng, 1, 9);
    const int in_w = RandInt(rng, 1, 9);
    const int kh = RandInt(rng, 1, 5);
    const int kw = RandInt(rng, 1, 5);
    const int stride = RandInt(rng, 1, 3);  // Odd and even strides.
    const int pad = RandInt(rng, 0, 3);     // Includes kernel > padded input.
    const int out_h = (in_h + 2 * pad - kh) / stride + 1;
    const int out_w = (in_w + 2 * pad - kw) / stride + 1;
    if (out_h <= 0 || out_w <= 0) {
      continue;
    }
    const std::vector<float> x = RandVec(rng, static_cast<int64_t>(c) * in_h * in_w);

    const int64_t rows = static_cast<int64_t>(c) * kh * kw;
    const int64_t cols = static_cast<int64_t>(out_h) * out_w;
    std::vector<float> got(static_cast<size_t>(rows * cols), -999.0f);
    Im2Col(x.data(), c, in_h, in_w, kh, kw, stride, pad, out_h, out_w, got.data());

    for (int ch = 0; ch < c; ++ch) {
      for (int ky = 0; ky < kh; ++ky) {
        for (int kx = 0; kx < kw; ++kx) {
          for (int oy = 0; oy < out_h; ++oy) {
            for (int ox = 0; ox < out_w; ++ox) {
              const int iy = oy * stride - pad + ky;
              const int ix = ox * stride - pad + kx;
              const float want =
                  (iy >= 0 && iy < in_h && ix >= 0 && ix < in_w)
                      ? x[(static_cast<size_t>(ch) * in_h + iy) * in_w + ix]
                      : 0.0f;
              const int64_t row = (static_cast<int64_t>(ch) * kh + ky) * kw + kx;
              const int64_t col = static_cast<int64_t>(oy) * out_w + ox;
              ASSERT_EQ(got[static_cast<size_t>(row * cols + col)], want)
                  << "c=" << ch << " ky=" << ky << " kx=" << kx << " oy=" << oy
                  << " ox=" << ox << " (stride=" << stride << " pad=" << pad << ")";
            }
          }
        }
      }
    }
  }
}

// The integrated plan path: Conv2D/Dense ForwardBatchInto (GEMM kernels +
// SIMD, workspace-backed) against the by-value scalar oracle.
void ExpectForwardIntoNearByValue(const Layer& layer, const Shape& in_shape, int batch,
                                  uint64_t seed) {
  Rng rng(seed);
  const Tensor input = Tensor::RandUniform(BatchedShape(batch, in_shape), rng, -1.0f, 1.0f);
  Tensor want_aux;
  const Tensor want = layer.ForwardBatch(input, batch, false, nullptr, &want_aux);
  Workspace ws;
  Tensor got(want.shape());
  Tensor got_aux;
  layer.ForwardBatchInto(input, batch, false, nullptr, &got, &got_aux, &ws);
  ExpectTensorsNear(got, want, kKernelForwardTolerance,
                    layer.Describe() + " batch=" + std::to_string(batch));
}

TEST(GemmKernelTest, Conv2DForwardIntoSweepsRandomShapes) {
  Rng rng(0x71);
  for (int t = 0; t < kTrials; ++t) {
    const int in_ch = RandInt(rng, 1, 4);
    const int kh = RandInt(rng, 1, 5);
    const int kw = RandInt(rng, 1, 5);
    const int stride = RandInt(rng, 1, 3);
    const int pad = RandInt(rng, 0, 3);
    const int in_h = RandInt(rng, 1, 12);
    const int in_w = RandInt(rng, 1, 12);
    // Conv2D rejects kernels larger than the padded input; keep the cases
    // where the kernel exceeds the RAW input but padding covers it (the
    // all-border patches are the interesting edge).
    if (in_h + 2 * pad < kh || in_w + 2 * pad < kw) {
      continue;
    }
    Conv2D layer(in_ch, RandInt(rng, 1, 6), kh, kw, stride, pad,
                 static_cast<Activation>(RandInt(rng, 0, 3)));
    layer.InitParams(rng);
    for (const int batch : {1, 8}) {
      ExpectForwardIntoNearByValue(layer, {in_ch, in_h, in_w}, batch, rng.NextU64());
    }
  }
}

TEST(GemmKernelTest, DenseForwardIntoSweepsRandomShapes) {
  Rng rng(0x72);
  for (int t = 0; t < kTrials; ++t) {
    Dense layer(RandInt(rng, 1, 300), RandInt(rng, 1, 70),
                static_cast<Activation>(RandInt(rng, 0, 3)));
    layer.InitParams(rng);
    for (const int batch : {1, 8}) {
      ExpectForwardIntoNearByValue(layer, {layer.in_features()}, batch, rng.NextU64());
    }
  }
}

// ---- Im2col-free conv kernels: bit identity --------------------------------

// Bitwise float comparison: tells +0 from -0 (which ASSERT_EQ does not).
void ExpectSameBits(const float* got, const float* want, int64_t n, const std::string& what) {
  for (int64_t i = 0; i < n; ++i) {
    uint32_t g;
    uint32_t w;
    std::memcpy(&g, &got[i], sizeof(g));
    std::memcpy(&w, &want[i], sizeof(w));
    ASSERT_EQ(g, w) << what << ": element " << i << " is " << got[i] << ", want "
                    << want[i];
  }
}

// Random values with a sprinkling of +0 and -0, so the padding taps'
// fma(w, +0, acc) meets signed-zero accumulators and weights.
std::vector<float> RandVecWithZeros(Rng& rng, int64_t n) {
  std::vector<float> v = RandVec(rng, n);
  for (float& x : v) {
    const double u = rng.Uniform(0.0, 1.0);
    if (u < 0.05) {
      x = 0.0f;
    } else if (u < 0.1) {
      x = -0.0f;
    }
  }
  return v;
}

struct ConvCase {
  int in_c, out_c, kh, kw, stride, pad, in_h, in_w;
};

ConvGeometry Geometry(const ConvCase& c) {
  return ConvGeometry{c.in_c,     c.out_c, c.kh,   c.kw,
                      c.stride,   c.pad,   c.in_h, c.in_w,
                      (c.in_h + 2 * c.pad - c.kh) / c.stride + 1,
                      (c.in_w + 2 * c.pad - c.kw) / c.stride + 1};
}

std::string Describe(const ConvCase& c) {
  return std::to_string(c.in_c) + "->" + std::to_string(c.out_c) + " k" +
         std::to_string(c.kh) + "x" + std::to_string(c.kw) + " s" + std::to_string(c.stride) +
         " p" + std::to_string(c.pad) + " in " + std::to_string(c.in_h) + "x" +
         std::to_string(c.in_w);
}

// Every conv geometry of the model zoo at its real input extent, plus
// extents whose output widths (1, 3, 5, 7, 9, 11, 13, ...) leave a partial
// vector at every SIMD width.
const std::vector<ConvCase>& ZooConvCases() {
  static const std::vector<ConvCase> cases = {
      // 3x3 p1 s1: MiniVGG blocks, MiniResNet stem and conv2s.
      {3, 4, 3, 3, 1, 1, 32, 32},
      {4, 8, 3, 3, 1, 1, 16, 16},
      {16, 16, 3, 3, 1, 1, 8, 8},
      {32, 32, 3, 3, 1, 1, 8, 8},
      // 3x3 p1 s2: MiniResNet downsampling conv1s.
      {8, 16, 3, 3, 2, 1, 32, 32},
      {16, 32, 3, 3, 2, 1, 16, 16},
      // 1x1 s2: MiniResNet projections.
      {8, 16, 1, 1, 2, 0, 32, 32},
      {16, 32, 1, 1, 2, 0, 16, 16},
      // 5x5 p0 s1: LeNets (6 output channels leaves a 2-row channel block).
      {1, 6, 5, 5, 1, 0, 28, 28},
      {6, 16, 5, 5, 1, 0, 12, 12},
      // 5x5 p0 s2: DAVE.
      {3, 12, 5, 5, 2, 0, 32, 64},
      {12, 16, 5, 5, 2, 0, 14, 30},
      // 3x3 p0 s1: DAVE head (output 3x11).
      {16, 20, 3, 3, 1, 0, 5, 13},
      // 1xk at s2 and s3: speech.
      {1, 8, 1, 5, 2, 0, 1, 128},
      {8, 16, 1, 5, 3, 0, 1, 62},
      {1, 8, 1, 7, 2, 0, 1, 128},
      {8, 16, 1, 7, 3, 0, 1, 61},
      {1, 12, 1, 9, 3, 0, 1, 128},
      {12, 20, 1, 9, 2, 0, 1, 40},
      // Output widths 1, 3, 7, 9, 13 and padded / strided odd extents.
      {2, 5, 3, 3, 1, 1, 1, 1},
      {3, 4, 3, 3, 1, 0, 5, 5},
      {2, 3, 3, 3, 2, 1, 13, 13},
      {3, 9, 3, 3, 1, 1, 9, 9},
      {2, 7, 2, 4, 3, 2, 11, 36},
      {1, 4, 3, 3, 1, 1, 4, 13},
  };
  return cases;
}

// The forward the plan ran before: unfold, then GEMM.
std::vector<float> Im2ColGemmForward(const ConvGeometry& g, const float* x, const float* w,
                                     const float* bias) {
  std::vector<float> col(static_cast<size_t>(g.patch_k() * g.patch_n()));
  Im2Col(x, g.in_channels, g.in_h, g.in_w, g.kernel_h, g.kernel_w, g.stride, g.padding,
         g.out_h, g.out_w, col.data());
  std::vector<float> y(static_cast<size_t>(g.out_size()));
  GemmBias(g.out_channels, static_cast<int>(g.patch_n()), static_cast<int>(g.patch_k()), w,
           static_cast<int>(g.patch_k()), col.data(), static_cast<int>(g.patch_n()), bias,
           y.data(), static_cast<int>(g.patch_n()));
  return y;
}

// Naive scatter in the fixed (c, ky, kx, oy, ox) order Col2Im promises.
std::vector<float> NaiveCol2Im(const ConvGeometry& g, const float* col) {
  std::vector<float> x(static_cast<size_t>(g.in_size()), 0.0f);
  const int64_t n = g.patch_n();
  for (int c = 0; c < g.in_channels; ++c) {
    for (int ky = 0; ky < g.kernel_h; ++ky) {
      for (int kx = 0; kx < g.kernel_w; ++kx) {
        const int64_t row = (static_cast<int64_t>(c) * g.kernel_h + ky) * g.kernel_w + kx;
        for (int oy = 0; oy < g.out_h; ++oy) {
          for (int ox = 0; ox < g.out_w; ++ox) {
            const int iy = oy * g.stride - g.padding + ky;
            const int ix = ox * g.stride - g.padding + kx;
            if (iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w) {
              x[(static_cast<size_t>(c) * g.in_h + iy) * g.in_w + ix] +=
                  col[static_cast<size_t>(row * n + oy * g.out_w + ox)];
            }
          }
        }
      }
    }
  }
  return x;
}

// The input gradient the plan ran before: materialized W^T, GEMM into the
// column matrix, scatter.
std::vector<float> TransposedGemmScatterBackward(const ConvGeometry& g, const float* w,
                                                 const float* grad_pre) {
  const int patch_k = static_cast<int>(g.patch_k());
  const int patch_n = static_cast<int>(g.patch_n());
  std::vector<float> wt(static_cast<size_t>(patch_k) * g.out_channels);
  TransposeMatrix(w, g.out_channels, patch_k, wt.data());
  std::vector<float> gcol(static_cast<size_t>(patch_k) * patch_n);
  GemmBias(patch_k, patch_n, g.out_channels, wt.data(), g.out_channels, grad_pre, patch_n,
           nullptr, gcol.data(), patch_n);
  return NaiveCol2Im(g, gcol.data());
}

// Runs fn with intra-op parallelism off: inside a ParallelFor region every
// kernel gate sees InParallelRegion() and stays serial (n == 2 because a
// 1-iteration loop runs inline without entering a region).
template <typename Fn>
void RunSerial(const Fn& fn) {
  ParallelFor(2, [&](int64_t idx) {
    if (idx == 0) {
      fn();
    }
  });
}

TEST(GemmKernelTest, ConvForwardBitIdenticalToIm2ColGemm) {
  Rng rng(0x73);
  std::vector<ConvCase> cases = ZooConvCases();
  // 16 x 144 x 1024 ≈ 2.4M FMAs: past the intra-op gate, so the free call
  // fans channel blocks out over the pool when cores allow.
  cases.push_back({16, 16, 3, 3, 1, 1, 32, 32});
  for (const ConvCase& c : cases) {
    const ConvGeometry g = Geometry(c);
    const std::vector<float> x = RandVecWithZeros(rng, g.in_size());
    const std::vector<float> w = RandVecWithZeros(rng, g.out_channels * g.patch_k());
    const std::vector<float> bias = RandVecWithZeros(rng, g.out_channels);
    const std::vector<float> want = Im2ColGemmForward(g, x.data(), w.data(), bias.data());

    // Stale scratch must not leak into a result: ConvForward zero-fills it.
    std::vector<float> scratch(static_cast<size_t>(ConvScratchSize(g)),
                              std::numeric_limits<float>::quiet_NaN());
    std::vector<float> got(static_cast<size_t>(g.out_size()), -999.0f);
    ConvForward(g, x.data(), w.data(), bias.data(), scratch.data(), got.data());
    ExpectSameBits(got.data(), want.data(), g.out_size(), "ConvForward " + Describe(c));

    std::vector<float> serial(got.size(), -999.0f);
    RunSerial([&] {
      ConvForward(g, x.data(), w.data(), bias.data(), scratch.data(), serial.data());
    });
    ExpectSameBits(serial.data(), want.data(), g.out_size(),
                   "serial ConvForward " + Describe(c));
  }
}

TEST(GemmKernelTest, GemmTransABiasBitIdenticalToMaterializedTranspose) {
  Rng rng(0x74);
  for (int t = 0; t < kTrials; ++t) {
    // M == 1 included: the GEMV path, with its bias-free zero-row skip.
    const int M = t == 0 ? 1 : RandInt(rng, 1, 40);
    const int N = RandInt(rng, 1, 70);
    const int K = RandInt(rng, 1, 33);
    const std::vector<float> A = RandVecWithZeros(rng, static_cast<int64_t>(K) * M);
    const std::vector<float> B = RandVecWithZeros(rng, static_cast<int64_t>(K) * N);
    const std::vector<float> bias = RandVec(rng, M);
    const float* b = t % 2 == 0 ? nullptr : bias.data();

    std::vector<float> at(static_cast<size_t>(M) * K);
    TransposeMatrix(A.data(), K, M, at.data());
    std::vector<float> want(static_cast<size_t>(M) * N);
    GemmBias(M, N, K, at.data(), K, B.data(), N, b, want.data(), N);
    std::vector<float> got(want.size(), -999.0f);
    GemmTransABias(M, N, K, A.data(), M, B.data(), N, b, got.data(), N);
    ExpectSameBits(got.data(), want.data(), static_cast<int64_t>(M) * N,
                   "M=" + std::to_string(M) + " N=" + std::to_string(N) +
                       " K=" + std::to_string(K));
  }
}

TEST(GemmKernelTest, PaddedCol2ImMatchesNaiveScatterOnZooGeometries) {
  Rng rng(0x75);
  for (const ConvCase& c : ZooConvCases()) {
    const ConvGeometry g = Geometry(c);
    const std::vector<float> col = RandVecWithZeros(rng, g.patch_k() * g.patch_n());
    const std::vector<float> want = NaiveCol2Im(g, col.data());
    std::vector<float> scratch(static_cast<size_t>(ConvScratchSize(g)),
                              std::numeric_limits<float>::quiet_NaN());
    std::vector<float> got(static_cast<size_t>(g.in_size()), -999.0f);
    Col2Im(col.data(), g.in_channels, g.in_h, g.in_w, g.kernel_h, g.kernel_w, g.stride,
           g.padding, g.out_h, g.out_w, got.data(), scratch.data());
    ExpectSameBits(got.data(), want.data(), g.in_size(), "Col2Im " + Describe(c));
  }
}

// The whole plan-path layer: ForwardBatchInto and input-only
// BackwardBatchInto at widths {1, 3, 8}, free-threaded and forced serial,
// against the per-sample compositions they replaced.
TEST(GemmKernelTest, Conv2DPlanBitIdenticalToIm2ColCompositionAtWidthsAndThreads) {
  Rng rng(0x76);
  for (const ConvCase& c : ZooConvCases()) {
    const ConvGeometry g = Geometry(c);
    Conv2D layer(c.in_c, c.out_c, c.kh, c.kw, c.stride, c.pad, Activation::kRelu);
    layer.InitParams(rng);
    const float* w = layer.Params()[0]->data();
    const float* bias = layer.Params()[1]->data();
    for (const int width : {1, 3, 8}) {
      const std::string what = Describe(c) + " width=" + std::to_string(width);
      const Tensor input = Tensor::RandUniform({width, c.in_c, c.in_h, c.in_w}, rng, -1.0f, 1.0f);
      const Shape out_shape = {width, c.out_c, g.out_h, g.out_w};
      Workspace ws;
      Tensor out(out_shape);
      layer.ForwardBatchInto(input, width, false, nullptr, &out, nullptr, &ws);
      Tensor out_serial(out_shape);
      RunSerial([&] {
        Workspace ws_serial;
        layer.ForwardBatchInto(input, width, false, nullptr, &out_serial, nullptr, &ws_serial);
      });

      const Tensor grad_out = Tensor::RandUniform(out_shape, rng, -1.0f, 1.0f);
      Tensor grad_in(input.shape());
      layer.BackwardBatchInto(input, out, grad_out, Tensor(), width, &grad_in, &ws, nullptr);
      Tensor grad_serial(input.shape());
      RunSerial([&] {
        Workspace ws_serial;
        layer.BackwardBatchInto(input, out, grad_out, Tensor(), width, &grad_serial,
                                &ws_serial, nullptr);
      });
      Tensor grad_pre = grad_out;
      ApplyActivationGrad(Activation::kRelu, out, &grad_pre);

      for (int b = 0; b < width; ++b) {
        const std::vector<float> pre =
            Im2ColGemmForward(g, input.data() + b * g.in_size(), w, bias);
        Tensor want({c.out_c, g.out_h, g.out_w});
        std::copy(pre.begin(), pre.end(), want.data());
        ApplyActivation(Activation::kRelu, &want);
        ExpectSameBits(out.data() + b * g.out_size(), want.data(), g.out_size(),
                       "forward " + what);
        ExpectSameBits(out_serial.data() + b * g.out_size(), want.data(), g.out_size(),
                       "serial forward " + what);

        const std::vector<float> want_grad =
            TransposedGemmScatterBackward(g, w, grad_pre.data() + b * g.out_size());
        ExpectSameBits(grad_in.data() + b * g.in_size(), want_grad.data(), g.in_size(),
                       "input gradient " + what);
        ExpectSameBits(grad_serial.data() + b * g.in_size(), want_grad.data(), g.in_size(),
                       "serial input gradient " + what);
      }
    }
  }
}

// The plan path has no scalar fallback: a missing workspace is a caller bug.
TEST(GemmKernelTest, ForwardBatchIntoRequiresWorkspace) {
  Rng rng(0x77);
  Conv2D conv(2, 3, 3, 3, 1, 1, Activation::kRelu);
  conv.InitParams(rng);
  Dense dense(6, 4, Activation::kRelu);
  dense.InitParams(rng);
  for (const int batch : {1, 2}) {
    const Tensor x_conv = Tensor::RandUniform({batch, 2, 5, 5}, rng);
    Tensor y_conv({batch, 3, 5, 5});
    EXPECT_THROW(conv.ForwardBatchInto(x_conv, batch, false, nullptr, &y_conv, nullptr, nullptr),
                 std::invalid_argument);
    const Tensor x_dense = Tensor::RandUniform({batch, 6}, rng);
    Tensor y_dense({batch, 4});
    EXPECT_THROW(
        dense.ForwardBatchInto(x_dense, batch, false, nullptr, &y_dense, nullptr, nullptr),
        std::invalid_argument);
  }
}

}  // namespace
}  // namespace dx
