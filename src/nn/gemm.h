// Tiled float32 GEMM microkernel + direct convolution + im2col/col2im, the
// shared compute core of the Conv2D and Dense ExecutionPlan forward AND
// backward paths.
//
// Forward:  dense y = GemmBias(W, x, bias); conv y = ConvForward(W, x, bias),
// an implicit GEMM that runs the GemmBias register blocking straight on a
// zero-padded copy of the image instead of on an im2col patch matrix.
// Backward: grad-input is the transposed-weight GEMM — dense writes
// GemmBias(grad_pre, W) straight into the gradient buffer; conv runs
// GemmTransABias(W, grad_pre) (W read as W^T in place) into a column matrix
// and Col2Im scatter-accumulates it back into image geometry. Grad-weight
// (when a caller asks for parameter gradients) is the GEMM of grad_pre
// against the im2col patches.
//
// Numerics contract: every output element is computed as
//
//   C[m,n] = fma(A[m,K-1], B[K-1,n], ... fma(A[m,1], B[1,n],
//                fma(A[m,0], B[0,n], bias[m])) ...)
//
// i.e. a fused multiply-add chain over ascending k starting from the bias.
// The microkernels vectorize over n (independent output columns) and unroll
// over m (independent output rows) but NEVER split or reorder the k
// accumulation, and intra-op threading partitions only over m — so results
// are bit-identical at any SIMD width (src/tensor/simd.h), any thread count,
// and any n (callers may grow or shrink the batch dimension freely).
// ConvForward is the same chain with B = Im2Col(x), padding taps included
// as fma(w, +0, acc), so it is bit-identical to GemmBias(W, Im2Col(x)).
// None of these are bit-identical to the by-value scalar kernels, which
// accumulate in a different order; tests compare the two within ULP/abs
// tolerances.
#ifndef DX_SRC_NN_GEMM_H_
#define DX_SRC_NN_GEMM_H_

#include <cstdint>

namespace dx {

// C[m, n] = bias[m] + sum_k A[m, k] * B[k, n] for m in [0, M), n in [0, N).
// A is [M, K] with row stride lda, B is [K, N] with row stride ldb, C is
// [M, N] with row stride ldc. bias may be null (treated as zeros). When the
// product is large and the calling thread is not already inside a
// ParallelFor region, row blocks are fanned out over the global ThreadPool;
// the call performs no heap allocation either way.
void GemmBias(int M, int N, int K, const float* A, int lda, const float* B,
              int ldb, const float* bias, float* C, int ldc);

// GemmBias with A stored transposed: C[m, n] = bias[m] + sum_k A[k, m] *
// B[k, n], A being [K, M] with row stride lda. The operands and every chain
// are those of GemmBias on the materialized transpose, so the result is
// bit-identical to TransposeMatrix followed by GemmBias.
void GemmTransABias(int M, int N, int K, const float* A, int lda,
                    const float* B, int ldb, const float* bias, float* C,
                    int ldc);

// Geometry of one convolution sample: a CHW input, OIHW weights, a square
// stride and symmetric zero padding.
struct ConvGeometry {
  int in_channels, out_channels, kernel_h, kernel_w, stride, padding;
  int in_h, in_w, out_h, out_w;

  int64_t in_size() const { return int64_t{in_channels} * in_h * in_w; }
  int64_t out_size() const { return int64_t{out_channels} * out_h * out_w; }
  // Rows (c, ky, kx) and columns (oy, ox) of the im2col patch matrix.
  int64_t patch_k() const { return int64_t{in_channels} * kernel_h * kernel_w; }
  int64_t patch_n() const { return int64_t{out_h} * out_w; }
};

// Floats of per-sample scratch ConvForward and Col2Im work in: the image,
// zero-padded and split by stride phase (padded column X stored at
// [c][row][X % stride][X / stride]), so the taps of one output row at one
// kernel column are a contiguous run — none when padding == 0 and
// stride == 1, where the image itself has that layout and is used in place —
// followed by ConvForward's table of the patch_k tap offsets.
int64_t ConvScratchSize(const ConvGeometry& g);

// Implicit-GEMM convolution of one sample, pre-activation:
// y[o, oy, ox] = bias[o] + sum over ascending (c, ky, kx) of
// w[o, c, ky, kx] * x[c, oy*stride - padding + ky, ox*stride - padding + kx]
// with out-of-image taps reading +0 — exactly GemmBias(out_channels,
// patch_n, patch_k, w, ..., Im2Col(x), ..., bias, y), bit for bit, without
// the patch matrix: the GemmBias register blocking (kMR output channels x
// two SIMD vectors along the output rows) loads straight from the padded
// image. `scratch` holds ConvScratchSize(g) floats. Output-channel blocks
// fan out over the global ThreadPool under the same gate as GemmBias; no
// heap allocation.
void ConvForward(const ConvGeometry& g, const float* x, const float* w,
                 const float* bias, float* scratch, float* y);

// Unpacks one CHW sample into the [channels * kernel_h * kernel_w,
// out_h * out_w] patch matrix: row (c, ky, kx), column (oy, ox) holds
// x[c, oy*stride - padding + ky, ox*stride - padding + kx], or 0 where the
// index falls in the zero-padding border. `col` must have room for the full
// matrix. The conv grad-weight GEMM consumes it.
void Im2Col(const float* x, int channels, int in_h, int in_w, int kernel_h,
            int kernel_w, int stride, int padding, int out_h, int out_w,
            float* col);

// The adjoint of Im2Col: writes the CHW image `x` (channels * in_h * in_w
// floats) as the scatter-sum of the [channels * kernel_h * kernel_w,
// out_h * out_w] column matrix — col row (c, ky, kx), column (oy, ox) adds
// into x[c, oy*stride - padding + ky, ox*stride - padding + kx];
// contributions that fall in the padding border are dropped. Each image
// element starts at +0 and accumulates its (possibly overlapping) patch
// contributions in the fixed ascending (c, ky, kx, oy, ox) order, so the
// result is deterministic and independent of SIMD backend, batch width, and
// thread count (callers parallelize only across samples, never inside one
// Col2Im). The adds run as whole vectors, with no bounds tests, into the
// padded layout of ConvScratchSize, which is then cropped into `x`;
// `scratch` holds ConvScratchSize floats, or is null for Col2Im to allocate
// its own.
void Col2Im(const float* col, int channels, int in_h, int in_w, int kernel_h,
            int kernel_w, int stride, int padding, int out_h, int out_w,
            float* x, float* scratch = nullptr);

// out[j, i] = in[i, j] for a row-major [rows, cols] matrix (pure data
// movement — bit-exact by construction). Scratch step of the grad-weight
// reductions: grad_pre^T for dense, im2col^T for conv.
void TransposeMatrix(const float* in, int rows, int cols, float* out);

}  // namespace dx

#endif  // DX_SRC_NN_GEMM_H_
