#include "src/nn/gemm.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "src/tensor/simd.h"
#include "src/util/thread_pool.h"

namespace dx {
namespace {

using simd::VecF;

// Register-blocking factors. kMR independent rows give the FMA units
// independent dependency chains (the k-loop of a single row is serial by
// contract); kNR = 2 vectors of columns amortizes each A broadcast over two
// FMAs. With AVX2 (8 lanes) this is the classic 4x16 microkernel holding 8
// accumulator registers.
constexpr int kMR = 4;
constexpr int kNR = 2 * simd::kLanes;

// Work (in FMAs) below which fanning a GEMM out to the pool costs more in
// wake-up latency than it saves; roughly a few hundred microseconds of
// scalar work.
constexpr int64_t kIntraOpMinWork = int64_t{1} << 20;

// Element (m, k) of the A operand: row-major [M, K] storage, or — for
// GemmTransABias — [K, M] storage read transposed in place.
template <bool kTransA>
inline float AAt(const float* A, int lda, int m, int k) {
  if constexpr (kTransA) {
    return A[static_cast<size_t>(k) * lda + m];
  } else {
    return A[static_cast<size_t>(m) * lda + k];
  }
}

// Full kMR x kNR tile.
template <bool kTransA>
void MicroKernel(int K, const float* A, int lda, const float* B, int ldb,
                 const float* bias, float* C, int ldc) {
  VecF acc[kMR][2];
  for (int m = 0; m < kMR; ++m) {
    const float b = bias != nullptr ? bias[m] : 0.0f;
    acc[m][0] = VecF::Broadcast(b);
    acc[m][1] = VecF::Broadcast(b);
  }
  for (int k = 0; k < K; ++k) {
    const float* b_row = B + static_cast<size_t>(k) * ldb;
    const VecF b0 = VecF::Load(b_row);
    const VecF b1 = VecF::Load(b_row + simd::kLanes);
    for (int m = 0; m < kMR; ++m) {
      const VecF a = VecF::Broadcast(AAt<kTransA>(A, lda, m, k));
      acc[m][0] = VecF::Fma(a, b0, acc[m][0]);
      acc[m][1] = VecF::Fma(a, b1, acc[m][1]);
    }
  }
  for (int m = 0; m < kMR; ++m) {
    float* c_row = C + static_cast<size_t>(m) * ldc;
    acc[m][0].Store(c_row);
    acc[m][1].Store(c_row + simd::kLanes);
  }
}

// Any mr x nr remainder (mr <= kMR). Runs whole vectors while they fit,
// then single columns — every path is the same ascending-k FMA chain per
// element, so tile shape never changes a result. The rows' chains are
// interleaved inside one k-loop: each chain is serial by contract, but the
// (up to kMR) chains are independent, which keeps the FMA unit fed and
// shares each B load across rows. This matters most for the N == 1 GEMV
// case (dense forward at batch 1), which never sees the full microkernel.
template <bool kTransA>
void EdgeKernel(int mr, int nr, int K, const float* A, int lda, const float* B,
                int ldb, const float* bias, float* C, int ldc) {
  int n = 0;
  for (; n + simd::kLanes <= nr; n += simd::kLanes) {
    VecF acc[kMR];
    for (int m = 0; m < mr; ++m) {
      acc[m] = VecF::Broadcast(bias != nullptr ? bias[m] : 0.0f);
    }
    for (int k = 0; k < K; ++k) {
      const VecF b = VecF::Load(B + static_cast<size_t>(k) * ldb + n);
      for (int m = 0; m < mr; ++m) {
        acc[m] = VecF::Fma(VecF::Broadcast(AAt<kTransA>(A, lda, m, k)), b, acc[m]);
      }
    }
    for (int m = 0; m < mr; ++m) {
      acc[m].Store(C + static_cast<size_t>(m) * ldc + n);
    }
  }
  for (; n < nr; ++n) {
    float acc[kMR];
    for (int m = 0; m < mr; ++m) {
      acc[m] = bias != nullptr ? bias[m] : 0.0f;
    }
    const float* b_col = B + n;
    for (int k = 0; k < K; ++k) {
      const float b = b_col[static_cast<size_t>(k) * ldb];
      for (int m = 0; m < mr; ++m) {
        acc[m] = std::fma(AAt<kTransA>(A, lda, m, k), b, acc[m]);
      }
    }
    for (int m = 0; m < mr; ++m) {
      C[static_cast<size_t>(m) * ldc + n] = acc[m];
    }
  }
}

// M == 1 (GEMV): the blocked kernels would walk B column-block by
// column-block — strided loads that waste half of every cache line. With k
// outermost, B streams row-major and the single C row stays hot in L1.
// Interchanging the loops does not touch the numerics: element C[n] still
// receives bias + an ascending-k chain of Fma(A[k], B[k][n], ·), the exact
// chain the blocked kernels produce. When C starts at +0 (bias == nullptr),
// rows with A[k] == 0 are skipped: a ±0 product added to +0 or to a nonzero
// running value cannot change it (and an exact nonzero cancellation rounds
// to +0 in round-to-nearest, so the accumulator is never -0), making the
// skip bit-invisible — on ReLU-masked gradient rows it drops about half the
// work. This is the dense grad-input shape at batch 1, i.e. the per-sample
// gradient-ascent inner loop.
template <bool kTransA>
void Gemv(int N, int K, const float* A, int lda, const float* B, int ldb,
          const float* bias, float* C) {
  const float b0 = bias != nullptr ? bias[0] : 0.0f;
  const bool skip_zeros = bias == nullptr;
  std::fill(C, C + N, b0);
  for (int k = 0; k < K; ++k) {
    const float a = AAt<kTransA>(A, lda, 0, k);
    if (skip_zeros && a == 0.0f) {
      continue;
    }
    const float* b_row = B + static_cast<size_t>(k) * ldb;
    const VecF av = VecF::Broadcast(a);
    int n = 0;
    for (; n + simd::kLanes <= N; n += simd::kLanes) {
      VecF::Fma(av, VecF::Load(b_row + n), VecF::Load(C + n)).Store(C + n);
    }
    for (; n < N; ++n) {
      C[n] = std::fma(a, b_row[n], C[n]);
    }
  }
}

template <bool kTransA>
void GemmRows(int m_begin, int m_end, int N, int K, const float* A, int lda,
              const float* B, int ldb, const float* bias, float* C, int ldc) {
  for (int m0 = m_begin; m0 < m_end; m0 += kMR) {
    const int mr = std::min(kMR, m_end - m0);
    const float* a_blk = kTransA ? A + m0 : A + static_cast<size_t>(m0) * lda;
    const float* bias_blk = bias != nullptr ? bias + m0 : nullptr;
    float* c_blk = C + static_cast<size_t>(m0) * ldc;
    int n0 = 0;
    if (mr == kMR) {
      for (; n0 + kNR <= N; n0 += kNR) {
        MicroKernel<kTransA>(K, a_blk, lda, B + n0, ldb, bias_blk, c_blk + n0, ldc);
      }
    }
    if (n0 < N) {
      EdgeKernel<kTransA>(mr, N - n0, K, a_blk, lda, B + n0, ldb, bias_blk,
                          c_blk + n0, ldc);
    }
  }
}

// Runs rows(m_begin, m_end) over [0, M). When the product is worth `work`
// FMAs and the pool is free, the rows are cut into kMR-aligned blocks fanned
// out over the global ThreadPool; each output element is still produced by
// exactly one chain, so the thread count cannot change a bit of the result.
template <typename Rows>
void ForRowBlocks(int M, int64_t work, const Rows& rows) {
  if (work >= kIntraOpMinWork && M >= 2 * kMR && IntraOpParallelismAvailable()) {
    const int threads = ThreadPool::Global().num_threads() + 1;
    const int max_blocks = (M + kMR - 1) / kMR;
    const int blocks = std::min(max_blocks, threads);
    const int rows_per_block = ((M + blocks - 1) / blocks + kMR - 1) / kMR * kMR;
    const int actual_blocks = (M + rows_per_block - 1) / rows_per_block;
    ParallelFor(actual_blocks, [&](int64_t blk) {
      const int m_begin = static_cast<int>(blk) * rows_per_block;
      rows(m_begin, std::min(M, m_begin + rows_per_block));
    });
  } else {
    rows(0, M);
  }
}

template <bool kTransA>
void Gemm(int M, int N, int K, const float* A, int lda, const float* B, int ldb,
          const float* bias, float* C, int ldc) {
  if (M <= 0 || N <= 0) {
    return;
  }
  if (M == 1) {
    Gemv<kTransA>(N, K, A, lda, B, ldb, bias, C);
    return;
  }
  ForRowBlocks(M, static_cast<int64_t>(M) * N * K, [&](int m_begin, int m_end) {
    GemmRows<kTransA>(m_begin, m_end, N, K, A, lda, B, ldb, bias, C, ldc);
  });
}

// ---- Convolution without the patch matrix ---------------------------------
//
// The padded layout: padded row Y = iy + padding and padded column X = ix +
// padding of channel c live at [c][Y][X % stride][X / stride]. Output (oy,
// ox) reads padded (oy*stride + ky, ox*stride + kx) for tap (c, ky, kx),
// which sits at Tap(c, ky, kx) + Base(oy, ox) with
//   Tap  = c*plane_stride + ky*row_stride + (kx % stride)*phase_len
//          + kx / stride,
//   Base = oy*stride*row_stride + ox,
// so a fixed tap over consecutive ox is one contiguous run: whole-vector
// loads and adds, no bounds tests. The extent covers both the padded image
// and every tap, which can reach past it when a kernel overhangs the padded
// input (the output extent is rounded toward zero).
struct PhaseLayout {
  explicit PhaseLayout(const ConvGeometry& g)
      : stride(g.stride),
        rows(std::max(g.in_h + 2 * g.padding, (g.out_h - 1) * g.stride + g.kernel_h)),
        phase_len((std::max(g.in_w + 2 * g.padding, (g.out_w - 1) * g.stride + g.kernel_w) +
                   g.stride - 1) /
                  g.stride),
        row_stride(int64_t{g.stride} * phase_len),
        plane_stride(int64_t{rows} * row_stride),
        in_place(g.padding == 0 && g.stride == 1) {}

  int64_t Base(int oy, int ox) const { return oy * stride * row_stride + ox; }
  // Floats of padded image (0 when the kernels use the image in place).
  int64_t ImageSize(const ConvGeometry& g) const {
    return in_place ? 0 : g.in_channels * plane_stride;
  }

  int stride;
  int rows;
  int phase_len;
  int64_t row_stride;
  int64_t plane_stride;
  bool in_place;  // The image itself: no copy in, no crop out.
};

// Calls fn(k, Tap(c, ky, kx)) for every tap in ascending k = (c, ky, kx),
// the order of the im2col rows and of every FMA chain.
template <typename Fn>
inline void ForEachTap(const ConvGeometry& g, const PhaseLayout& L, Fn&& fn) {
  int k = 0;
  for (int c = 0; c < g.in_channels; ++c) {
    for (int ky = 0; ky < g.kernel_h; ++ky) {
      const int64_t row = c * L.plane_stride + ky * L.row_stride;
      // Column kx is at (kx % stride) * phase_len + kx / stride, stepped.
      int phase = 0;
      int q = 0;
      for (int kx = 0; kx < g.kernel_w; ++kx) {
        fn(k++, row + int64_t{phase} * L.phase_len + q);
        if (++phase == L.stride) {
          phase = 0;
          ++q;
        }
      }
    }
  }
}

// Calls fn(ix, offset of image column ix within its padded row) for every
// image column, phase by phase: column ix is padded column X = ix +
// padding, at phase X % stride. Phases no kernel column reaches (kx %
// stride takes only the values below kernel_w) get fn(ix, -1).
template <typename Fn>
inline void ForEachImageColumn(const ConvGeometry& g, const PhaseLayout& L, Fn&& fn) {
  for (int phase = 0; phase < L.stride; ++phase) {
    // ix = phase - padding + q * stride for q in [q_lo, q_hi).
    const int first = phase - g.padding;
    const int q_lo = first >= 0 ? 0 : (-first + L.stride - 1) / L.stride;
    const int q_hi = g.in_w > first ? (g.in_w - first + L.stride - 1) / L.stride : 0;
    const bool read = phase < g.kernel_w;
    for (int q = q_lo; q < q_hi; ++q) {
      fn(first + q * L.stride, read ? int64_t{phase} * L.phase_len + q : int64_t{-1});
    }
  }
}

// Whether any tap reads padded row Y: taps read rows oy*stride + ky, so the
// rows of residue Y % stride >= kernel_h are never read.
inline bool RowRead(const ConvGeometry& g, const PhaseLayout& L, int y) {
  return y % L.stride < g.kernel_h;
}

void PackPadded(const ConvGeometry& g, const PhaseLayout& L, const float* x,
                float* padded) {
  std::fill(padded, padded + L.ImageSize(g), 0.0f);
  for (int c = 0; c < g.in_channels; ++c) {
    for (int iy = 0; iy < g.in_h; ++iy) {
      if (!RowRead(g, L, iy + g.padding)) {
        continue;
      }
      const float* src = x + (static_cast<size_t>(c) * g.in_h + iy) * g.in_w;
      float* dst = padded + c * L.plane_stride + (iy + g.padding) * L.row_stride;
      if (L.stride == 1) {
        std::copy(src, src + g.in_w, dst + g.padding);
        continue;
      }
      ForEachImageColumn(g, L, [&](int ix, int64_t col) {
        if (col >= 0) {
          dst[col] = src[ix];
        }
      });
    }
  }
}

// The image cells of rows and phases no tap reaches received no scatter:
// they are +0, written without reading the scratch.
void CropPadded(const ConvGeometry& g, const PhaseLayout& L, const float* padded,
                float* x) {
  for (int c = 0; c < g.in_channels; ++c) {
    for (int iy = 0; iy < g.in_h; ++iy) {
      float* dst = x + (static_cast<size_t>(c) * g.in_h + iy) * g.in_w;
      if (!RowRead(g, L, iy + g.padding)) {
        std::fill(dst, dst + g.in_w, 0.0f);
        continue;
      }
      const float* src = padded + c * L.plane_stride + (iy + g.padding) * L.row_stride;
      if (L.stride == 1) {
        std::copy(src + g.padding, src + g.padding + g.in_w, dst);
        continue;
      }
      ForEachImageColumn(g, L, [&](int ix, int64_t col) {
        dst[ix] = col >= 0 ? src[col] : 0.0f;
      });
    }
  }
}

// The tap offsets, Tap(k) for k in [0, patch_k), live behind the padded
// image in the float scratch as int32 bit patterns: the k-loops below are
// then the GEMM microkernel's flat loop, with a table lookup in place of
// k * ldb.
inline int64_t TapAt(const float* taps, int64_t k) {
  return std::bit_cast<int32_t>(taps[k]);
}

// kMR output channels x two vectors of outputs. The vectors read the padded
// image from b0 / b1 and store to c0 / c1 (row m at + m*ldc); they lie along
// one output row, or on two rows when a row holds fewer than two vectors.
void ConvTile(int64_t K, const float* taps, const float* b0, const float* b1,
              const float* A, const float* bias, float* c0, float* c1, int ldc) {
  VecF acc[kMR][2];
  for (int m = 0; m < kMR; ++m) {
    acc[m][0] = VecF::Broadcast(bias[m]);
    acc[m][1] = VecF::Broadcast(bias[m]);
  }
  for (int64_t k = 0; k < K; ++k) {
    const int64_t tap = TapAt(taps, k);
    const VecF x0 = VecF::Load(b0 + tap);
    const VecF x1 = VecF::Load(b1 + tap);
    for (int m = 0; m < kMR; ++m) {
      const VecF a = VecF::Broadcast(A[m * K + k]);
      acc[m][0] = VecF::Fma(a, x0, acc[m][0]);
      acc[m][1] = VecF::Fma(a, x1, acc[m][1]);
    }
  }
  for (int m = 0; m < kMR; ++m) {
    acc[m][0].Store(c0 + static_cast<size_t>(m) * ldc);
    acc[m][1].Store(c1 + static_cast<size_t>(m) * ldc);
  }
}

// mr <= kMR output channels x one vector of outputs.
void ConvEdge(int mr, int64_t K, const float* taps, const float* b, const float* A,
              const float* bias, float* c, int ldc) {
  VecF acc[kMR];
  for (int m = 0; m < mr; ++m) {
    acc[m] = VecF::Broadcast(bias[m]);
  }
  for (int64_t k = 0; k < K; ++k) {
    const VecF x = VecF::Load(b + TapAt(taps, k));
    for (int m = 0; m < mr; ++m) {
      acc[m] = VecF::Fma(VecF::Broadcast(A[m * K + k]), x, acc[m]);
    }
  }
  for (int m = 0; m < mr; ++m) {
    acc[m].Store(c + static_cast<size_t>(m) * ldc);
  }
}

// mr <= kMR output channels x one output (the columns of a row past its
// last whole vector).
void ConvScalar(int mr, int64_t K, const float* taps, const float* b, const float* A,
                const float* bias, float* c, int ldc) {
  float acc[kMR];
  for (int m = 0; m < mr; ++m) {
    acc[m] = bias[m];
  }
  for (int64_t k = 0; k < K; ++k) {
    const float x = b[TapAt(taps, k)];
    for (int m = 0; m < mr; ++m) {
      acc[m] = std::fma(A[m * K + k], x, acc[m]);
    }
  }
  for (int m = 0; m < mr; ++m) {
    c[static_cast<size_t>(m) * ldc] = acc[m];
  }
}

// Output channels [m_begin, m_end) of one sample. The whole vectors of the
// output are visited row by row; full channel blocks take them two at a
// time, so a pair spans two rows when a row holds an odd number of them.
void ConvRows(const ConvGeometry& g, const PhaseLayout& L, const float* src,
              const float* taps, const float* w, const float* bias, float* y, int m_begin,
              int m_end) {
  const int64_t K = g.patch_k();
  const int ldc = static_cast<int>(g.patch_n());
  const int vector_end = g.out_w - g.out_w % simd::kLanes;  // Past the last whole vector.
  const int vectors = g.out_h * (vector_end / simd::kLanes);
  struct Pos {
    int oy, ox;
  };
  const auto next = [&](Pos p) {
    p.ox += simd::kLanes;
    if (p.ox == vector_end) {
      p.ox = 0;
      ++p.oy;
    }
    return p;
  };
  for (int m0 = m_begin; m0 < m_end; m0 += kMR) {
    const int mr = std::min(kMR, m_end - m0);
    const float* a = w + m0 * K;
    const float* b = bias + m0;
    float* c = y + static_cast<size_t>(m0) * ldc;
    const auto out = [&](Pos p) { return c + p.oy * g.out_w + p.ox; };
    Pos p{0, 0};
    int v = 0;
    if (mr == kMR) {
      for (; v + 2 <= vectors; v += 2) {
        const Pos p1 = next(p);
        ConvTile(K, taps, src + L.Base(p.oy, p.ox), src + L.Base(p1.oy, p1.ox), a, b, out(p),
                 out(p1), ldc);
        p = next(p1);
      }
    }
    for (; v < vectors; ++v, p = next(p)) {
      ConvEdge(mr, K, taps, src + L.Base(p.oy, p.ox), a, b, out(p), ldc);
    }
    for (int oy = 0; oy < g.out_h; ++oy) {
      for (int ox = vector_end; ox < g.out_w; ++ox) {
        ConvScalar(mr, K, taps, src + L.Base(oy, ox), a, b, out({oy, ox}), ldc);
      }
    }
  }
}

}  // namespace

void GemmBias(int M, int N, int K, const float* A, int lda, const float* B,
              int ldb, const float* bias, float* C, int ldc) {
  Gemm<false>(M, N, K, A, lda, B, ldb, bias, C, ldc);
}

void GemmTransABias(int M, int N, int K, const float* A, int lda,
                    const float* B, int ldb, const float* bias, float* C,
                    int ldc) {
  Gemm<true>(M, N, K, A, lda, B, ldb, bias, C, ldc);
}

int64_t ConvScratchSize(const ConvGeometry& g) {
  return PhaseLayout(g).ImageSize(g) + g.patch_k();
}

void ConvForward(const ConvGeometry& g, const float* x, const float* w,
                 const float* bias, float* scratch, float* y) {
  const PhaseLayout layout(g);
  const float* src = x;
  if (!layout.in_place) {
    PackPadded(g, layout, x, scratch);
    src = scratch;
  }
  float* taps = scratch + layout.ImageSize(g);
  ForEachTap(g, layout, [&](int k, int64_t tap) {
    taps[k] = std::bit_cast<float>(static_cast<int32_t>(tap));
  });
  ForRowBlocks(g.out_channels, g.out_size() * g.patch_k(), [&](int m_begin, int m_end) {
    ConvRows(g, layout, src, taps, w, bias, y, m_begin, m_end);
  });
}

void Im2Col(const float* x, int channels, int in_h, int in_w, int kernel_h,
            int kernel_w, int stride, int padding, int out_h, int out_w,
            float* col) {
  const size_t n = static_cast<size_t>(out_h) * out_w;
  float* dst = col;  // Row (c, ky, kx) of the [C*KH*KW, OH*OW] matrix.
  for (int c = 0; c < channels; ++c) {
    const float* plane = x + static_cast<size_t>(c) * in_h * in_w;
    for (int ky = 0; ky < kernel_h; ++ky) {
      for (int kx = 0; kx < kernel_w; ++kx, dst += n) {
        for (int oy = 0; oy < out_h; ++oy) {
          float* out_row = dst + static_cast<size_t>(oy) * out_w;
          const int iy = oy * stride - padding + ky;
          if (iy < 0 || iy >= in_h) {
            std::fill(out_row, out_row + out_w, 0.0f);
            continue;
          }
          const float* in_row = plane + static_cast<size_t>(iy) * in_w;
          const int ix0 = kx - padding;
          if (stride == 1) {
            // Contiguous copy with zero borders where ix = ox + ix0 runs
            // outside [0, in_w).
            const int lo = std::min(out_w, std::max(0, -ix0));
            const int hi = std::max(lo, std::min(out_w, in_w - ix0));
            std::fill(out_row, out_row + lo, 0.0f);
            std::copy(in_row + ix0 + lo, in_row + ix0 + hi, out_row + lo);
            std::fill(out_row + hi, out_row + out_w, 0.0f);
          } else {
            for (int ox = 0; ox < out_w; ++ox) {
              const int ix = ox * stride + ix0;
              out_row[ox] = (ix >= 0 && ix < in_w) ? in_row[ix] : 0.0f;
            }
          }
        }
      }
    }
  }
}

void Col2Im(const float* col, int channels, int in_h, int in_w, int kernel_h,
            int kernel_w, int stride, int padding, int out_h, int out_w,
            float* x, float* scratch) {
  const ConvGeometry g{channels, /*out_channels=*/0, kernel_h, kernel_w, stride,
                       padding,  in_h,               in_w,     out_h,    out_w};
  const PhaseLayout layout(g);
  std::vector<float> own;
  float* dst = x;
  if (!layout.in_place) {
    if (scratch == nullptr) {
      own.resize(static_cast<size_t>(ConvScratchSize(g)));
      scratch = own.data();
    }
    dst = scratch;
  }
  std::fill(dst, dst + channels * layout.plane_stride, 0.0f);
  // Padding-border taps add into cells the crop drops; every image cell
  // still receives exactly its in-bounds contributions, in (c, ky, kx, oy,
  // ox) order, and within one vector every lane is a different cell.
  ForEachTap(g, layout, [&](int k, int64_t tap) {
    const float* src = col + static_cast<size_t>(k) * g.patch_n();
    for (int oy = 0; oy < out_h; ++oy, src += out_w) {
      float* row = dst + tap + layout.Base(oy, 0);
      int ox = 0;
      for (; ox + simd::kLanes <= out_w; ox += simd::kLanes) {
        VecF::Add(VecF::Load(row + ox), VecF::Load(src + ox)).Store(row + ox);
      }
      for (; ox < out_w; ++ox) {
        row[ox] += src[ox];
      }
    }
  });
  if (!layout.in_place) {
    CropPadded(g, layout, scratch, x);
  }
}

void TransposeMatrix(const float* in, int rows, int cols, float* out) {
  for (int i = 0; i < rows; ++i) {
    const float* in_row = in + static_cast<size_t>(i) * cols;
    for (int j = 0; j < cols; ++j) {
      out[static_cast<size_t>(j) * rows + i] = in_row[j];
    }
  }
}

}  // namespace dx
