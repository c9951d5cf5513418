// Raw kernels: the compute substrate under tensor/ops.h. Every operand
// is float32 except the stateless-dropout mask, which is one byte per
// element.
//
// Everything the simulator times — perfbench's training and serving
// steps, bench_serve, bench_kernels — bottoms out here, so these
// kernels are written for throughput while keeping the determinism
// contract the rest of the system relies on:
//
//  * gemm() is a cache-blocked GEMM (BLIS-style jc/pc/ic/jr/ir loop nest)
//    with B- and A-panel packing and a register-tiled MR x NR
//    micro-kernel: MR = 6 rows by two vectors of the build's widest
//    float vector (NR = 32 on AVX-512, 16 on AVX2, 8 on the SSE2
//    portable build), 12 vector accumulators that take one FMA each per
//    k step and write C straight from the registers. One source, written
//    with GCC vector-extension types, no intrinsics; see
//    src/CMakeLists.txt for the per-file codegen flags.
//  * Short-M GEMMs (m <= gemm_tile().short_m, op(B) = B, e.g. every
//    decode-step weight GEMM and the decode probs·V GEMM) skip B
//    packing: the micro-kernel reads B's rows in place through their
//    row stride and only the n-edge panel is packed. A packed panel
//    pays off only when many row tiles reuse it.
//  * beta = 0 semantics: C is fully overwritten, never read before the
//    first write — callers pass Tensor::empty() storage and skip the
//    zeros() memset.
//  * Determinism: every output element C[i,j] is reduced over k in a
//    fixed order (register-accumulated kc-panels at fixed absolute k
//    boundaries, sequential within a panel). The order depends only on
//    k, never on tile position, m/n edges, or the thread count — so
//    results are bit-identical at any MLS_KERNEL_THREADS and invariant
//    under column sharding of B / row sharding of A outputs. Packed and
//    in-place B feed the same per-element FMA chain, so a short GEMM's
//    rows equal the same rows of a tall GEMM over the same B, bit for
//    bit.
//  * Intra-op parallelism (MLS_KERNEL_THREADS, default: host cores
//    divided by the calling rank's world size) splits over M/N tiles
//    (or the batch dimension for bmm) ONLY — never the k reduction.
//    Workers are persistent per-caller-thread: they spin briefly for
//    the next kernel (MLS_KERNEL_SPIN_US), then park on a condition
//    variable, so the per-GEMM dispatch cost is a couple of atomic
//    stores, not a mutex handshake. Tall threaded GEMMs run
//    cooperatively: the B panel of each (jc, pc) cache block is packed
//    once, shared read-only, and the M dimension is slabbed across
//    workers so each streams whole MC x NC blocks with its own packed A
//    panels. Short ones (m <= short_m, or fewer row tiles than
//    workers) split N instead: each worker runs the serial kernel on
//    its own NR-aligned column slab of B. The rank threads never
//    contend on a shared queue and teardown is per rank-thread.
//  * MLS_KERNEL_PIN=1 partitions the host cores across the simulated
//    ranks (spmd::run binds each rank thread, see bind_rank below):
//    rank r of W gets cores [rC/W, (r+1)C/W); its kernel workers pin
//    to distinct cores of the slice while the rank thread floats over
//    the whole slice. No rank ever
//    oversubscribes another's cores.
//  * MLS_KERNEL_REF=1 routes gemm()/bmm-shaped calls through gemm_ref(),
//    the pre-blocking scalar kernel (single-threaded), for A/B numeric
//    debugging. Blocked-vs-ref differ only by float reassociation of the
//    k sum (and the trans_b ref path's double accumulator); see
//    DESIGN.md "Kernel substrate" for the documented tolerances.
//
// The fused epilogues (bias+GeLU, scale-into-causal-softmax) fold the
// cheap elementwise passes the transformer layer always runs
// back-to-back into one sweep over the data, and keep them cheap:
//
//  * tanh and exp are libm-free, branch-free float bodies in
//    kernels.cpp, so the epilogue loops auto-vectorize: a clamped
//    rational minimax tanh (within 7 ulp on [-20, 20], exactly odd,
//    |tanh| <= 1) and a Cody–Waite exp (Cephes polynomial, 2^n built
//    from exponent bits; within 1 ulp on [-87.3, 0], exp(0) == 1,
//    underflow to exactly 0). Both saturate at ±inf and pass NaN
//    through. Fused and composed GeLU share those bodies from one
//    translation unit and agree bit for bit.
//  * The softmax row sums (the denominator and the backward's row dot)
//    accumulate in 8 fixed double lanes indexed by absolute column and
//    combine them in a fixed order; the exact row max reduces on
//    order-preserving int keys. All three vectorize, and a row's bits
//    never depend on the thread count (threads split rows only) or on
//    how many rows share the call.
//
// Stateless dropout (the mask every layer draws in forward and the
// selective-recompute replay redraws in backward) is a row kernel too:
//
//  * Every IndexMap has innermost global stride 1, so each innermost
//    run of the local tensor is one contiguous global range: the kernel
//    computes one global base per row, and element j of the row is
//    base + j. No per-element coordinate walk.
//  * The hash is unchanged — splitmix64(seed ^ global index) against
//    the p * (2^64 - 1) threshold, kept elements scaled by 1 / (1 - p) —
//    so masks, losses and saved bytes are the ones the coordinate walk
//    produced. The hash is integer-only and the row loop vectorizes.
//  * Threads split rows only, and each element depends on nothing but
//    its global index, so the bits are the same at any thread count and
//    under any sharding — and, since there is no float reassociation,
//    with or without MLS_KERNEL_NATIVE (-march=native).
//  * The mask is uint8_t 0/1, the 1 byte per element the paper's
//    accounting charges, and is written only when the caller passes a
//    buffer for it: autograd asks exactly when a node will save it.
#pragma once

#include <cstdint>

namespace mls::kernels {

// Intra-op worker threads for the calling thread's kernels, re-read on
// every call so tests can toggle via core::Env. MLS_KERNEL_THREADS set
// to a positive value wins (clamped to [1, 64]); unset or 0 resolves
// the default: host cores / the caller's bound world size (so W ranks
// on a C-core host get C/W workers each and never oversubscribe), at
// least 1.
int threads();
// MLS_KERNEL_REF — route GEMMs through the reference scalar kernel.
bool use_reference();
// MLS_KERNEL_PIN — pin rank threads / kernel workers to per-rank core
// slices (default off; Linux affinity, a no-op elsewhere).
bool pin_enabled();
// MLS_KERNEL_SPIN_US — microseconds a worker spins for the next kernel
// before parking (default 100 on multi-core hosts, 0 on 1-core).
int spin_us();

// ------------------------------------------------------- rank binding
// Which simulated rank the calling thread computes for, and how many
// ranks exist. spmd::run installs it on every rank thread; the worker
// pool carries it onto its workers for each job (BindGuard). It
// resolves the default thread count above and the MLS_KERNEL_PIN core
// slice.
struct RankBinding {
  int rank = 0;
  int world = 1;
};
// Sets the calling thread's binding; under MLS_KERNEL_PIN also pins
// the calling thread to its rank's core slice.
void bind_rank(int rank, int world);
RankBinding rank_binding();
// Scoped binding for worker threads executing on a rank's behalf.
class BindGuard {
 public:
  explicit BindGuard(RankBinding b);
  ~BindGuard();
  BindGuard(const BindGuard&) = delete;
  BindGuard& operator=(const BindGuard&) = delete;

 private:
  RankBinding prev_;
};

// Diagnostics for the calling thread's persistent worker pool.
struct PoolStats {
  int workers = 0;     // worker threads spawned (lifetime of the pool)
  uint64_t jobs = 0;   // parallel kernels dispatched through the pool
};
PoolStats local_pool_stats();

// ------------------------------------------------------------------ GEMM
// C[m,n] = op(A) @ op(B), beta = 0 (C need not be initialized).
// op(A) is [m,k]: stored row-major as A[m,k], or A[k,m] when trans_a.
// op(B) is [k,n]: stored row-major as B[k,n], or B[n,k] when trans_b.
// Dispatches to the blocked kernel (parallelized over M or N tiles when
// MLS_KERNEL_THREADS > 1 and the problem is large enough) or, under
// MLS_KERNEL_REF=1, to gemm_ref.
void gemm(const float* a, const float* b, float* c, int64_t m, int64_t n,
          int64_t k, bool trans_a = false, bool trans_b = false);

// The blocked kernel, bypassing env dispatch (for tests/bench).
// ldc is C's row stride (>= n), so threads can write disjoint column
// ranges of a shared C. lda/ldb are the *storage* row strides of A/B
// (i.e. of the buffer as laid out, before the logical transpose).
void gemm_blocked(const float* a, const float* b, float* c, int64_t m,
                  int64_t n, int64_t k, bool trans_a, bool trans_b,
                  int64_t lda, int64_t ldb, int64_t ldc);

// The blocked kernel's register tile and short-M crossover, for tests
// and benches that must straddle them: mr x nr is the tile, and a GEMM
// with m <= short_m and op(B) = B reads B's full panels in place.
struct GemmTile {
  int64_t mr = 0;
  int64_t nr = 0;
  int64_t short_m = 0;
};
GemmTile gemm_tile();

// Reference scalar GEMM: the pre-blocking kernel (i-k-j saxpy loop for
// op(B) = B, row-dot with a double accumulator for trans_b), beta = 0,
// always single-threaded. Kept for A/B debugging and bitwise tests.
void gemm_ref(const float* a, const float* b, float* c, int64_t m, int64_t n,
              int64_t k, bool trans_a, bool trans_b);

// Batched GEMM over nb independent [m,k] @ [k,n] problems with
// contiguous batch strides; parallelized over the batch dimension.
void bmm(const float* a, const float* b, float* c, int64_t nb, int64_t m,
         int64_t n, int64_t k, bool trans_a, bool trans_b);

// -------------------------------------------------------- fused epilogues
// Elementwise tanh / exp over n floats: the libm-free bodies every
// epilogue below evaluates (error bounds above), exposed so tests can
// check them against libm.
void tanh(const float* x, float* y, int64_t n);
void exp(const float* x, float* y, int64_t n);

// GeLU (tanh approximation) and dx = dy * gelu'(x), elementwise over n
// floats: the composed ops::gelu / ops::gelu_grad. They share their
// scalar bodies with bias_gelu / bias_gelu_grad in one translation
// unit, so composed and fused agree bit for bit.
void gelu(const float* x, float* y, int64_t n);
void gelu_grad(const float* x, const float* dy, float* dx, int64_t n);

// y[r,j] = gelu(x[r,j] + bias[j]) in one sweep (no bias-added
// intermediate is materialized).
void bias_gelu(const float* x, const float* bias, float* y, int64_t rows,
               int64_t h);
// dx[r,j] = dy[r,j] * gelu'(x[r,j] + bias[j]); dbias[j] = sum_r dx[r,j]
// (dbias is overwritten, rows summed in increasing-r order — the same
// order as the composed gelu_grad + sum_to_last_dim pair).
void bias_gelu_grad(const float* x, const float* bias, const float* dy,
                    float* dx, float* dbias, int64_t rows, int64_t h);

// Softmax over the last dimension of alpha * x, optionally causal: rows
// are the trailing [sq, sk] blocks; for row qi only the first
// qi + 1 + (sk - sq) entries are live, the rest are written as 0.
// Fuses the attention-score 1/sqrt(d) scaling into the max/exp sweep.
void scaled_softmax(const float* x, float* y, int64_t rows, int64_t sq,
                    int64_t sk, float alpha, bool causal);
// dx = alpha * y * (dy - sum_j y[j] dy[j]) — backward of the above
// given the forward *output* y.
void scaled_softmax_grad(const float* y, const float* dy, float* dx,
                         int64_t rows, int64_t n, float alpha);

// ----------------------------------------------------- stateless dropout
// Inverted dropout over the local shard of a global tensor (ops.h's
// IndexMap, passed as nd dims/strides and a base): element at local
// coordinate c has global index base + sum_d c[d] * strides[d], is kept
// iff splitmix64(seed ^ global) >= p * (2^64 - 1), and writes
// mask = keep ? 1 : 0, y = keep ? x * (1 / (1 - p)) : 0. Requires
// strides[nd - 1] == 1, so each innermost run of dims[nd - 1] elements
// is a contiguous global range (one base per row); nd = 0 is a single
// element at base. mask may be null (no backward will read it, e.g. a
// no-grad forward): then y alone is written, with the same bits.
void dropout_stateless(const float* x, float* y, uint8_t* mask,
                       const int64_t* dims, const int64_t* strides, int nd,
                       int64_t base, uint64_t seed, float p);
// dx[i] = dy[i] * mask[i] * (1 / (1 - p)) over n elements.
void dropout_grad(const float* dy, const uint8_t* mask, float* dx, int64_t n,
                  float p);

// ------------------------------------------------------ layout transposes
// The two hot attention-layout transposes as blocked row copies (the
// inner d-sized row is contiguous in both layouts), replacing generic
// per-element permute coordinate arithmetic.
// x: [s, b, heads*d] -> y: [b*heads, s, d]
void sbh_to_bhsd(const float* x, float* y, int64_t s, int64_t b,
                 int64_t heads, int64_t d);
// x: [b*heads, s, d] -> y: [s, b, heads*d]
void bhsd_to_sbh(const float* x, float* y, int64_t s, int64_t b,
                 int64_t heads, int64_t d);

}  // namespace mls::kernels
