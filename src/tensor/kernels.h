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
//    decode-step weight GEMM) skip B packing: the micro-kernel reads
//    B's rows in place through their row stride and only the n-edge
//    panel is packed. A packed panel pays off only when many row tiles
//    reuse it.
//  * Narrow GEMMs (op(B) one NR panel wide, n <= NR: the attention
//    core's P·V, dV, dQ and dK at head size 32 on AVX-512) skip A
//    packing: each A element feeds one tile exactly once, so full MR
//    tiles read A in place through its strides and only the m-edge tile
//    is packed. Both A paths feed the same per-element FMA chain.
//  * beta = 0 semantics: C is fully overwritten, never read before the
//    first write — callers pass Tensor::empty() storage and skip the
//    zeros() memset. The one exception is Tri::kOut below, which leaves
//    its dead tiles unwritten.
//  * Triangle modes (Tri, below) let a causal attention core compute
//    only its live lower triangle. kOut (QKᵀ, dP) skips the MR x NR
//    tiles that lie wholly above the diagonal; kALower (P·V, dQ) cuts
//    each tile's k to [0, its last row]; kAUpper (dV, dK) cuts it to
//    [its first row, k). The cuts are made per MC block and per MR tile,
//    while the KC panel boundaries stay absolute, so every kept term
//    lands in the same accumulator in the same order; under kAUpper a
//    tile's first live panel writes C and later panels accumulate.
//    Every skipped term multiplies an exact zero of the triangular
//    operand, a ±0 product the full GEMM adds to an accumulator that
//    started at +0, so for finite inputs the live outputs keep the full
//    GEMM's bits. (The one representable difference is the sign of a
//    zero sum: an FMA that underflows below the smallest subnormal can
//    leave a −0 partial sum, which a skipped +0 term would have turned
//    into +0.) gemm_ref ignores the mode and computes everything.
//  * Determinism: every output element C[i,j] is reduced over k in a
//    fixed order (register-accumulated kc-panels at fixed absolute k
//    boundaries, sequential within a panel). The order depends only on
//    k, never on tile position, m/n edges, or the thread count — so
//    results are bit-identical at any MLS_KERNEL_THREADS and invariant
//    under column sharding of B / row sharding of A outputs. Packed and
//    in-place B feed the same per-element FMA chain, so a short GEMM's
//    rows equal the same rows of a tall GEMM over the same B, bit for
//    bit.
//  * Intra-op parallelism (MLS_KERNEL_THREADS, default: the size of
//    the calling rank's CPU slice, below) splits over M/N tiles (or the
//    batch dimension for bmm) ONLY — never the k reduction. Workers are
//    persistent per-caller-thread: they spin briefly for the next
//    kernel (100 us when the slice holds more than one CPU, else not
//    at all), then park on a condition variable, so the per-GEMM
//    dispatch cost is a couple of atomic stores, not a mutex
//    handshake. Every threaded kernel is one pattern: the extent is
//    cut into aligned slabs, each slot runs the serial kernel on its
//    own slab with its own packing scratch, and the slots join once.
//    A GEMM's slabs are MR-aligned row ranges; short ones (m <=
//    short_m, or fewer row tiles than workers) take NR-aligned column
//    slabs of B instead, so B is read once overall. Slabs hold equal
//    work: equal extents for a full kernel, and for a triangular one (a
//    Tri GEMM, a causal row kernel) boundaries near count·√(t/nt) when
//    the work per row rises, mirrored when it falls. The rank threads
//    never contend on a shared queue and teardown is per rank-thread.
//  * A rank's CPUs are its slice, the simulator's stand-in for the
//    paper's one device per rank. Of the C CPUs in the affinity mask a
//    rank thread inherits (read when spmd::run binds it, see
//    bind_rank below), rank r of W owns the indices [rC/W, (r+1)C/W),
//    or the one index r mod C when W >= C. The rank thread is pinned to
//    its slice, and its kernel workers to distinct CPUs of it, starting
//    after the one the rank thread runs on. No rank ever oversubscribes
//    another's CPUs or leaves the inherited mask.
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
// the default: the number of CPUs in the calling rank's slice (so W
// ranks on C CPUs never oversubscribe), at least 1.
int threads();
// MLS_KERNEL_REF — route GEMMs through the reference scalar kernel.
bool use_reference();

// ------------------------------------------------------- rank binding
// Which simulated rank the calling thread computes for, and how many
// ranks exist. spmd::run installs it on every rank thread; the worker
// pool carries it onto its workers for each job. It selects the rank's
// CPU slice, which sizes the default thread count above.
struct RankBinding {
  int rank = 0;
  int world = 1;
};
// Sets the calling thread's binding and pins the thread to its rank's
// CPU slice (Linux affinity; elsewhere the slice only sizes threads()).
void bind_rank(int rank, int world);
RankBinding rank_binding();

// Diagnostics for the calling thread's persistent worker pool.
struct PoolStats {
  int workers = 0;     // worker threads spawned (lifetime of the pool)
  uint64_t jobs = 0;   // parallel kernels dispatched through the pool
};
PoolStats local_pool_stats();

// ------------------------------------------------------------------ GEMM
// Which part of a causal attention GEMM is live (header comment above).
// Row i of C is query row i of the causal [s, s] block.
enum class Tri {
  kNone,    // the full GEMM
  kOut,     // C is causal: C[i,j] with j > i is dead (m == n). Tiles
            // wholly above the diagonal are left unwritten.
  kALower,  // op(A)[i,kk] == 0 for kk > i (m == k): P·V, dQ
  kAUpper,  // op(A)[i,kk] == 0 for kk < i (m == k): dV, dK
};

// C[m,n] = op(A) @ op(B), beta = 0 (C need not be initialized).
// op(A) is [m,k]: stored row-major as A[m,k], or A[k,m] when trans_a.
// op(B) is [k,n]: stored row-major as B[k,n], or B[n,k] when trans_b.
// lda, ldb and ldc are the storage row strides of A, B and C (of the
// buffer as laid out, before the logical transpose); 0 means contiguous
// (k or m for A, n or k for B, n for C). A strided operand is a matrix
// inside a larger row-major tensor, read or written where it lies: the
// attention core addresses each (batch, head) slice of the [s, b, 3h/t]
// QKV output this way. The strides change only addresses, never which
// values meet in which order, so a strided GEMM's bits are the
// contiguous GEMM's on the same values.
// Dispatches to the blocked kernel (parallelized over M or N tiles when
// MLS_KERNEL_THREADS > 1 and the problem is large enough) or, under
// MLS_KERNEL_REF=1, to gemm_ref. tri computes only the live triangle.
void gemm(const float* a, const float* b, float* c, int64_t m, int64_t n,
          int64_t k, bool trans_a = false, bool trans_b = false,
          Tri tri = Tri::kNone, int64_t lda = 0, int64_t ldb = 0,
          int64_t ldc = 0);

// The blocked kernel, bypassing env dispatch (for tests/bench).
// ldc is C's row stride (>= n), so threads can write disjoint column
// ranges of a shared C. lda/ldb are the *storage* row strides of A/B
// (i.e. of the buffer as laid out, before the logical transpose).
// Under a triangle mode, diag places this call's slab on the diagonal:
// row i meets it at column i + diag (kOut) or at k index i + diag
// (kALower, kAUpper), so a row slab starting at row r0 passes r0 and a
// kOut column slab starting at column j0 passes -j0.
void gemm_blocked(const float* a, const float* b, float* c, int64_t m,
                  int64_t n, int64_t k, bool trans_a, bool trans_b,
                  int64_t lda, int64_t ldb, int64_t ldc, Tri tri = Tri::kNone,
                  int64_t diag = 0);

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
// Leading dimensions as in gemm (0: contiguous).
void gemm_ref(const float* a, const float* b, float* c, int64_t m, int64_t n,
              int64_t k, bool trans_a, bool trans_b, int64_t lda = 0,
              int64_t ldb = 0, int64_t ldc = 0);

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
// qi + 1 + (sk - sq) entries are live (read), the rest are written as 0.
// Fuses the attention-score 1/sqrt(d) scaling into the max/exp sweep.
void scaled_softmax(const float* x, float* y, int64_t rows, int64_t sq,
                    int64_t sk, float alpha, bool causal);
// dx = alpha * y * (dy - sum_j y[j] dy[j]) — backward of the above
// given the forward *output* y, over rows of [sq, sk] blocks. Causal
// reads only each row's live prefix and writes dx = 0 past it; the
// prefix's bits are the full row's (the row dot's lanes are indexed by
// absolute column, and the dead terms it skips are y = 0 products).
void scaled_softmax_grad(const float* y, const float* dy, float* dx,
                         int64_t rows, int64_t sq, int64_t sk, float alpha,
                         bool causal);
// The full-row form: rows of n entries.
inline void scaled_softmax_grad(const float* y, const float* dy, float* dx,
                                int64_t rows, int64_t n, float alpha) {
  scaled_softmax_grad(y, dy, dx, rows, 1, n, alpha, /*causal=*/false);
}

// ------------------------------------------------ paged decode attention
// One query row's attention over a paged K/V cache, read in place (no
// gather into contiguous scratch). Block i holds positions
// [i * block_tokens, (i + 1) * block_tokens); its K slice starts at
// blocks[i] + k_offset, stored transposed as [d, block_tokens] (column
// t is the key of position i * block_tokens + t), and its V slice at
// blocks[i] + v_offset, stored [block_tokens, d].
struct PagedKV {
  const float* const* blocks = nullptr;
  int64_t block_tokens = 0;
  int64_t k_offset = 0;
  int64_t v_offset = 0;
};

// ctx[0:d] = softmax_causal(alpha * q Kᵀ) V over positions [0, len),
// with scores / probs the caller's [len] scratch. Bit for bit the chain
// it replaces — gemm(q, Kᵀ, trans_b), scaled_softmax on the [1, len]
// causal row, gemm(probs, V) — so decode rows stay equal to the full
// forward's:
//  * each score is one ascending-d FMA chain over a K column, from +0,
//    split at the blocked GEMM's absolute KC boundaries when d > KC;
//  * the softmax is scaled_softmax's own row body;
//  * each context element is one ascending-position FMA chain across
//    blocks, from +0, split at the same absolute KC boundaries when
//    len > KC (the split partials summed in order).
// Under MLS_KERNEL_REF=1 it reproduces gemm_ref's chains instead: a
// double accumulator per score and an i-k-j saxpy for the context.
// Single-threaded: one call is one (row, head) of a decode step.
void decode_attention(const float* q, const PagedKV& kv, int64_t len,
                      int64_t d, float alpha, float* scores, float* probs,
                      float* ctx);

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
// causal (nd >= 2) treats the trailing two dims as [sq, sk] blocks, as
// scaled_softmax does: only each row's live prefix is hashed, and y = 0
// and mask = 0 are written past it. Over softmax output, whose dead
// entries are +0, y keeps every bit of the full kernel's.
void dropout_stateless(const float* x, float* y, uint8_t* mask,
                       const int64_t* dims, const int64_t* strides, int nd,
                       int64_t base, uint64_t seed, float p,
                       bool causal = false);
// dx[i] = dy[i] * mask[i] * (1 / (1 - p)) over rows of [sq, sk] blocks.
// Causal reads only each row's live prefix and writes dx = 0 past it.
void dropout_grad(const float* dy, const uint8_t* mask, float* dx,
                  int64_t rows, int64_t sq, int64_t sk, float p, bool causal);
// The full form over n elements.
inline void dropout_grad(const float* dy, const uint8_t* mask, float* dx,
                         int64_t n, float p) {
  dropout_grad(dy, mask, dx, 1, 1, n, p, /*causal=*/false);
}

}  // namespace mls::kernels
