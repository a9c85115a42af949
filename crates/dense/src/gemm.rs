//! General matrix-matrix and matrix-vector multiplication kernels.
//!
//! The workhorse is [`gemm`], a BLAS-3-style update
//! `C <- alpha * op(A) * op(B) + beta * C` with optional transposition of
//! either operand, dispatched over three kernels by measured crossover
//! (see the [`Element`] crossover constants):
//!
//! * [`gemm_small`] — fully unrolled, register-tiled kernels for every
//!   `M x M · M x N` product with `M` in {4, 8, 16}, the block orders
//!   that dominate ARD workloads (the replay and the block-Thomas solve
//!   are made of nothing else). No packing, no blocking loops; any `N`.
//! * [`gemm_axpy`] — a lean cache-blocked j-k-i kernel whose AXPY inner
//!   loops go through the runtime-dispatched SIMD primitives
//!   ([`crate::simd`]).
//! * [`gemm_packed`] — a BLIS-style packed kernel: operand panels are
//!   repacked into contiguous `E::MR`-tall / `E::NR`-wide micro-panels
//!   and multiplied by a register-tiled microkernel (in [`crate::simd`],
//!   FMA-vectorized where the CPU allows), with the `jc` (column-block)
//!   and `ic` (row-block) macro-loops parallelized over the intra-rank
//!   thread budget ([`crate::threading`]).
//!
//! Every kernel is generic over the element type (`f64` by default,
//! `f32` for the mixed-precision solve path); the tile shape and the
//! packed-vs-AXPY crossover come from the [`Element`] impl, and the
//! per-type SIMD kernels are reached through its dispatch hooks.
//!
//! Every public kernel accepts `impl Into<MatRef>` / `impl Into<MatMut>`
//! operands, so both owned matrices (`&Mat` / `&mut Mat`) and borrowed
//! [`MatRef`]/[`MatMut`] views (including strided submatrix windows)
//! work without copies. Packing scratch lives in per-type thread-local
//! buffers ([`Element::with_pack_bufs`]), so warm calls on a given
//! thread allocate nothing.
//!
//! Every kernel accumulates every term unconditionally (no zero
//! short-circuits), so non-finite inputs propagate into the output as
//! IEEE-754 dictates. Each also fixes the per-element summation order
//! independently of blocking, column tiling and thread count: for a
//! given problem the result is bitwise identical whether the kernel runs
//! on 1 thread or 16.

use crate::element::Element;
use crate::mat::Mat;
use crate::simd::{self, Isa};
use crate::threading;
use crate::view::{MatMut, MatRef};

/// Observability counters (no-ops unless `BT_OBS` is on): dispatch counts
/// for the small/packed/AXPY split, how many dispatches ran on a SIMD
/// instruction set, total flops issued through this module, and
/// nanoseconds spent repacking operand panels — the raw inputs for
/// checking the CostModel's compute term against real kernel behaviour.
/// Counters aggregate over both element types; the per-call precision is
/// visible in the bench schemas instead.
static OBS_PACKED_CALLS: bt_obs::Counter = bt_obs::Counter::new("bt_dense.gemm.packed_calls");
static OBS_AXPY_CALLS: bt_obs::Counter = bt_obs::Counter::new("bt_dense.gemm.axpy_calls");
static OBS_SMALL_CALLS: bt_obs::Counter = bt_obs::Counter::new("bt_dense.gemm.small_calls");
static OBS_SIMD_CALLS: bt_obs::Counter = bt_obs::Counter::new("bt_dense.gemm.simd_calls");
static OBS_GEMV_CALLS: bt_obs::Counter = bt_obs::Counter::new("bt_dense.gemm.gemv_calls");
static OBS_GEMM_FLOPS: bt_obs::Counter = bt_obs::Counter::new("bt_dense.gemm.flops");
static OBS_PACK_NS: bt_obs::Counter = bt_obs::Counter::new("bt_dense.gemm.pack_ns");
/// Last-dispatched instruction set, encoded per [`Isa::index`]
/// (0 = scalar, 1 = avx2+fma, 2 = neon).
static OBS_DISPATCH_ISA: bt_obs::Gauge = bt_obs::Gauge::new("bt_dense.gemm.dispatch_isa");

/// Operand transposition selector for [`gemm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trans {
    /// Use the operand as stored.
    No,
    /// Use the transpose of the operand.
    Yes,
}

impl Trans {
    /// Effective `(rows, cols)` of `op(m)`.
    fn dims<E: Element>(self, m: MatRef<'_, E>) -> (usize, usize) {
        match self {
            Trans::No => (m.rows(), m.cols()),
            Trans::Yes => (m.cols(), m.rows()),
        }
    }
}

/// Column block width shared by the packed and AXPY kernels (`NC` in
/// BLIS terms): a `KC x NB` panel of B plus a column stripe of A stay
/// cache-resident. Also the stripe width of the threaded small-block
/// kernel.
const NB: usize = 64;
/// Inner (k) blocking depth (`KC`).
const KC: usize = 128;
/// Row block height of the packed kernel's `ic` macro-loop (`MC`): one
/// packed `MC x KC` A-panel is 256 KiB at f64 (sized for outer-cache
/// residency), 128 KiB at f32.
const MC: usize = 256;

/// Upper bound of `E::MR * E::NR` over the implemented element types
/// (f32's 16 x 4 tile): the microkernel accumulator is a fixed-size
/// stack array of this size, sliced down per type, because stable Rust
/// cannot size an array by an associated const.
const ACC_MAX: usize = 64;

/// Minimum rows per intra-rank thread for the `ic`-parallel path.
const IC_MIN_ROWS: usize = 64;

/// `C <- alpha * op(A) * op(B) + beta * C`.
///
/// Operands may be `&Mat`, `&mut Mat`, or borrowed views
/// ([`MatRef`]/[`MatMut`], including strided submatrix windows), at
/// either element type (all operands must agree).
///
/// # Panics
///
/// Panics if the operand shapes are not conformable with `C`.
///
/// # Examples
///
/// ```
/// use bt_dense::{gemm, Mat, Trans};
///
/// let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Mat::identity(2);
/// let mut c = Mat::zeros(2, 2);
/// gemm(1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut c);
/// assert_eq!(c, a);
/// ```
pub fn gemm<'a, 'b, 'c, E: Element>(
    alpha: E,
    a: impl Into<MatRef<'a, E>>,
    ta: Trans,
    b: impl Into<MatRef<'b, E>>,
    tb: Trans,
    beta: E,
    c: impl Into<MatMut<'c, E>>,
) {
    gemm_ref(alpha, a.into(), ta, b.into(), tb, beta, c.into());
}

fn gemm_ref<E: Element>(
    alpha: E,
    a: MatRef<'_, E>,
    ta: Trans,
    b: MatRef<'_, E>,
    tb: Trans,
    beta: E,
    mut c: MatMut<'_, E>,
) {
    let (m, ka) = ta.dims(a);
    let (kb, n) = tb.dims(b);
    assert_eq!(ka, kb, "gemm inner dimension mismatch: {ka} vs {kb}");
    assert_eq!(
        c.shape(),
        (m, n),
        "gemm output shape mismatch: expected {m}x{n}, got {}x{}",
        c.rows(),
        c.cols()
    );
    let k = ka;

    // Scale C by beta once up front.
    if beta == E::ZERO {
        c.fill_zero();
    } else if beta != E::ONE {
        c.scale(beta);
    }
    if alpha == E::ZERO || m == 0 || n == 0 || k == 0 {
        return;
    }

    match (ta, tb) {
        (Trans::No, Trans::No) => gemm_nn(alpha, a, b, c),
        _ => {
            // Pack op(A)/op(B) into plain column-major temporaries, then use
            // the fast no-transpose kernel. Packing is O(mk + kn), negligible
            // next to the O(mnk) multiply for the sizes we care about.
            let ap;
            let bp;
            let a_eff = match ta {
                Trans::No => a,
                Trans::Yes => {
                    ap = transpose_of(a);
                    ap.as_ref()
                }
            };
            let b_eff = match tb {
                Trans::No => b,
                Trans::Yes => {
                    bp = transpose_of(b);
                    bp.as_ref()
                }
            };
            gemm_nn(alpha, a_eff, b_eff, c);
        }
    }
}

/// Materializes the transpose of a view (for the `Trans::Yes` paths).
fn transpose_of<E: Element>(v: MatRef<'_, E>) -> Mat<E> {
    let mut t = Mat::<E>::zeros(v.cols(), v.rows());
    for j in 0..v.cols() {
        for i in 0..v.rows() {
            t.set(j, i, v.get(i, j));
        }
    }
    t
}

/// `C += alpha * A * B` for plain column-major operands: dispatches
/// between the small-block, packed and AXPY kernels on problem shape
/// and size (measured crossover — see the `Element` crossover consts).
fn gemm_nn<E: Element>(alpha: E, a: MatRef<'_, E>, b: MatRef<'_, E>, c: MatMut<'_, E>) {
    let isa = simd::active();
    if bt_obs::enabled() {
        OBS_DISPATCH_ISA.set(f64::from(isa.index()));
        if isa != Isa::Scalar {
            OBS_SIMD_CALLS.incr();
        }
    }
    plan_for::<E>(isa, a.rows(), a.cols(), b.cols()).apply(alpha, a, b, c);
}

/// Small-block `C += alpha * A * B` for an `M x M` A with `M` in
/// {4, 8, 16} and `M x N` B and C of any width — the unpacked,
/// register-tiled kernel the dispatcher prefers for every product
/// against an ARD-sized block. Returns `false` without touching `C`
/// when the shape does not qualify (callers fall back to [`gemm`]);
/// exposed so benches can time it against the other kernels directly.
pub fn gemm_small<'a, 'b, 'c, E: Element>(
    alpha: E,
    a: impl Into<MatRef<'a, E>>,
    b: impl Into<MatRef<'b, E>>,
    c: impl Into<MatMut<'c, E>>,
) -> bool {
    let (a, b, c) = (a.into(), b.into(), c.into());
    let hit = simd::small_shape(a, b, &c);
    if hit {
        gemm_small_ref(alpha, a, b, c);
    }
    hit
}

/// Runs the small-block kernel over `C`, splitting the columns across
/// the calling thread's budget in `NB`-aligned stripes when there is
/// more than one stripe (the packed kernel's `jc` split). Columns are
/// independent, so the result is bitwise the same for any budget.
///
/// # Panics
///
/// Panics if the shape is not a small-block product.
fn gemm_small_ref<E: Element>(alpha: E, a: MatRef<'_, E>, b: MatRef<'_, E>, c: MatMut<'_, E>) {
    let (m, n) = (a.rows(), b.cols());
    OBS_SMALL_CALLS.incr();
    OBS_GEMM_FLOPS.add(gemm_flops(m, m, n));
    let run = |b: MatRef<'_, E>, mut c: MatMut<'_, E>| {
        assert!(
            E::simd_gemm_small(alpha, a, b, &mut c),
            "small-block kernel rejected a {m}x{}x{} product",
            a.cols(),
            b.cols()
        );
    };
    let threads = threading::current_threads();
    if threads > 1 && n > NB {
        let ldc = c.col_stride();
        column_stripes_parallel(c.data, ldc, n, threads, |j0, ncols, chunk| {
            run(
                b.submatrix(0, j0, m, ncols),
                MatMut::from_parts(chunk, m, ncols, ldc),
            );
        });
    } else {
        run(b, c);
    }
}

/// Runs `stripe(j0, ncols, chunk)` over the `NB`-aligned column stripes
/// of an `n`-column output with backing buffer `c` and column stride
/// `ldc`, spread over at most `threads` rayon tasks (the `jc` split of
/// the packed and small-block kernels). The buffer is split at column
/// boundaries (columns never interleave in column-major storage,
/// whatever the stride), so each task owns a contiguous sub-slice whose
/// first element is `C[0, j0]`; the split points match the sequential
/// stripe order exactly.
fn column_stripes_parallel<E: Element>(
    c: &mut [E],
    ldc: usize,
    n: usize,
    threads: usize,
    stripe: impl Fn(usize, usize, &mut [E]) + Sync,
) {
    let jc_blocks = n.div_ceil(NB);
    let cols_per = jc_blocks.div_ceil(threads.min(jc_blocks)) * NB;
    let stripe = &stripe;
    let mut rest = c;
    rayon::scope(|s| {
        let mut j0 = 0;
        while j0 < n {
            let ncols = cols_per.min(n - j0);
            let split = if j0 + ncols < n {
                ncols * ldc
            } else {
                rest.len()
            };
            let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(split);
            rest = tail;
            s.spawn(move |_| stripe(j0, ncols, chunk));
            j0 += ncols;
        }
    });
}

/// A kernel choice frozen from a *full* problem shape, applicable to
/// any column slice of that problem.
///
/// The dispatcher in [`gemm`] picks packed vs. AXPY from `2*m*k*n`, so
/// naively calling `gemm` per column-tile of a wide panel can cross the
/// crossover threshold and change the kernel — and with it the bitwise
/// result — as a function of the tile width. `ColsplitPlan` freezes the
/// decision once, from the full `(m, k, n)`: every selectable kernel
/// accumulates each output column independently in fixed `k`-order
/// (the small-block kernels by construction, packed's NR zero-padding
/// is inert, AXPY's column loop is outermost), so applying the same
/// plan tile-by-tile is bitwise identical to one full-width call. Used
/// by the RHS-tiled replay pipeline in bt-ard, and by [`gemm`] itself,
/// so a full-width `gemm` and a tiled plan agree bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColsplitPlan {
    kernel: Kernel,
}

/// The three `C += alpha * A * B` kernels a [`ColsplitPlan`] can freeze.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// Unpacked register-tiled kernel, `M x M` A with `M` in {4, 8, 16}.
    Small,
    /// BLIS-style packed kernel.
    Packed,
    /// Cache-blocked AXPY kernel.
    Axpy,
}

/// Freezes the kernel choice for the full `(m, k, n)` problem at the
/// default `f64` element type, for column-tiled application via
/// [`ColsplitPlan::apply`].
pub fn colsplit_plan(m: usize, k: usize, n: usize) -> ColsplitPlan {
    colsplit_plan_for::<f64>(m, k, n)
}

/// [`colsplit_plan`] at an explicit element type — the crossover
/// constants are per-precision, so a plan frozen for `f32` tiles must be
/// frozen with `f32`'s thresholds.
pub fn colsplit_plan_for<E: Element>(m: usize, k: usize, n: usize) -> ColsplitPlan {
    plan_for::<E>(simd::active(), m, k, n)
}

/// The dispatch rule: small-block kernels for every `M x M` A with `M`
/// in {4, 8, 16}; otherwise packed from the ISA's flop crossover up,
/// AXPY below it.
fn plan_for<E: Element>(isa: Isa, m: usize, k: usize, n: usize) -> ColsplitPlan {
    let packed_min = if isa == Isa::Scalar {
        E::PACKED_MIN_FLOPS_SCALAR
    } else {
        E::PACKED_MIN_FLOPS_SIMD
    };
    let kernel = if simd::is_small_block(m, k) {
        Kernel::Small
    } else if 2 * m * k * n >= packed_min {
        Kernel::Packed
    } else {
        Kernel::Axpy
    };
    ColsplitPlan { kernel }
}

impl ColsplitPlan {
    /// `C += alpha * A * B` with the frozen kernel. `b`/`c` may be any
    /// column slice of the planned problem (same `m` and `k`, any `n`).
    ///
    /// # Panics
    ///
    /// Panics if shapes are not conformable.
    pub fn apply<'a, 'b, 'c, E: Element>(
        &self,
        alpha: E,
        a: impl Into<MatRef<'a, E>>,
        b: impl Into<MatRef<'b, E>>,
        c: impl Into<MatMut<'c, E>>,
    ) {
        let (a, b, c) = (a.into(), b.into(), c.into());
        match self.kernel {
            Kernel::Small => gemm_small_ref(alpha, a, b, c),
            Kernel::Packed => gemm_packed_ref(alpha, a, b, c),
            Kernel::Axpy => gemm_axpy_ref(alpha, a, b, c),
        }
    }
}

/// Cache-blocked `C += alpha * A * B` with AXPY inner loops (j-k-i loop
/// order). The small-problem kernel; exposed for benchmarking against
/// [`gemm_packed`].
///
/// # Panics
///
/// Panics if shapes are not conformable.
pub fn gemm_axpy<'a, 'b, 'c, E: Element>(
    alpha: E,
    a: impl Into<MatRef<'a, E>>,
    b: impl Into<MatRef<'b, E>>,
    c: impl Into<MatMut<'c, E>>,
) {
    gemm_axpy_ref(alpha, a.into(), b.into(), c.into());
}

fn gemm_axpy_ref<E: Element>(alpha: E, a: MatRef<'_, E>, b: MatRef<'_, E>, mut c: MatMut<'_, E>) {
    let m = a.rows();
    let k = a.cols();
    let n = b.cols();
    assert_eq!(k, b.rows(), "gemm inner dimension mismatch");
    assert_eq!(c.shape(), (m, n), "gemm output shape mismatch");
    OBS_AXPY_CALLS.incr();
    OBS_GEMM_FLOPS.add(gemm_flops(m, k, n));

    for j0 in (0..n).step_by(NB) {
        let jb = NB.min(n - j0);
        for k0 in (0..k).step_by(KC) {
            let kb = KC.min(k - k0);
            for j in j0..j0 + jb {
                let b_col = b.col(j);
                let c_col = c.col_mut(j);
                for (kk, bk) in b_col.iter().enumerate().skip(k0).take(kb) {
                    // No skip on zero weights: 0 * inf and 0 * NaN must
                    // reach C as NaN, matching IEEE-754 and the packed
                    // kernel.
                    let w = alpha * *bk;
                    // AXPY: c_col += w * a_col — contiguous columns through
                    // the runtime-dispatched SIMD primitive (FMA per
                    // element where the CPU allows).
                    E::simd_axpy(w, a.col(kk), c_col);
                }
            }
        }
    }
}

/// BLIS-style packed `C += alpha * A * B` for plain column-major
/// operands.
///
/// A and B panels are repacked into contiguous `E::MR x KC` /
/// `KC x E::NR` micro-panels (zero-padded at the edges) and combined by
/// a register-tiled microkernel. Packing scratch is checked out of
/// per-type thread-local buffers, so warm calls allocate nothing. When
/// the calling thread's budget ([`threading::current_threads`]) exceeds
/// 1, the `jc` macro-loop (column blocks) — or, for single-column-block
/// shapes, the `ic` macro-loop (row blocks) — is distributed across
/// threads. Per-element summation order is fixed by the `KC` partition
/// of `k` alone, so the result is bitwise identical for every thread
/// count.
///
/// # Panics
///
/// Panics if shapes are not conformable.
pub fn gemm_packed<'a, 'b, 'c, E: Element>(
    alpha: E,
    a: impl Into<MatRef<'a, E>>,
    b: impl Into<MatRef<'b, E>>,
    c: impl Into<MatMut<'c, E>>,
) {
    gemm_packed_ref(alpha, a.into(), b.into(), c.into());
}

fn gemm_packed_ref<E: Element>(alpha: E, a: MatRef<'_, E>, b: MatRef<'_, E>, mut c: MatMut<'_, E>) {
    let m = a.rows();
    let k = a.cols();
    let n = b.cols();
    assert_eq!(k, b.rows(), "gemm inner dimension mismatch");
    assert_eq!(c.shape(), (m, n), "gemm output shape mismatch");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    OBS_PACKED_CALLS.incr();
    OBS_GEMM_FLOPS.add(gemm_flops(m, k, n));

    let (lda, ldb, ldc) = (a.col_stride(), b.col_stride(), c.col_stride());
    let a_buf = a.data;
    let b_buf = b.data;
    let threads = threading::current_threads();
    let jc_blocks = n.div_ceil(NB);

    if threads > 1 && jc_blocks > 1 {
        // jc-parallel: disjoint NB-aligned column stripes of C.
        column_stripes_parallel(c.data, ldc, n, threads, |j0, ncols, chunk| {
            let b_chunk = &b_buf[j0 * ldb..];
            packed_stripe(alpha, a_buf, lda, 0, m, k, b_chunk, ldb, ncols, chunk, ldc);
        });
    } else if threads > 1 && m >= 2 * IC_MIN_ROWS {
        // ic-parallel: disjoint row stripes. Column-major C rows
        // interleave, so each thread works on a private copy of its row
        // stripe and the main thread copies the stripes back; writebacks
        // inside the stripe happen in the same order as the direct path,
        // keeping the result bitwise independent of the thread count.
        // (The stripe copies are allocated per call — this path only
        // runs under a multi-thread budget, never on the zero-alloc
        // replay path.)
        let t = threads.min(m / IC_MIN_ROWS).max(1);
        let rows_per = m.div_ceil(t).next_multiple_of(E::MR);
        let ranges: Vec<(usize, usize)> = (0..m)
            .step_by(rows_per)
            .map(|r0| (r0, rows_per.min(m - r0)))
            .collect();
        let mut stripes: Vec<Vec<E>> = ranges
            .iter()
            .map(|&(r0, mb)| {
                let mut s = vec![E::ZERO; mb * n];
                for j in 0..n {
                    s[j * mb..(j + 1) * mb].copy_from_slice(&c.col(j)[r0..r0 + mb]);
                }
                s
            })
            .collect();
        rayon::scope(|s| {
            for (&(r0, mb), stripe) in ranges.iter().zip(stripes.iter_mut()) {
                s.spawn(move |_| {
                    packed_stripe(alpha, a_buf, lda, r0, mb, k, b_buf, ldb, n, stripe, mb);
                });
            }
        });
        for (&(r0, mb), stripe) in ranges.iter().zip(&stripes) {
            for j in 0..n {
                c.col_mut(j)[r0..r0 + mb].copy_from_slice(&stripe[j * mb..(j + 1) * mb]);
            }
        }
    } else {
        packed_stripe(alpha, a_buf, lda, 0, m, k, b_buf, ldb, n, c.data, ldc);
    }
}

/// Sequential packed kernel over one stripe: rows `[row0, row0 + mb)` of
/// A against all `ncols` columns of the B stripe, accumulating into `c`
/// (leading dimension `ldc`, stripe rows starting at index 0).
#[allow(clippy::too_many_arguments)]
fn packed_stripe<E: Element>(
    alpha: E,
    a: &[E],
    lda: usize,
    row0: usize,
    mb_total: usize,
    k: usize,
    b: &[E],
    ldb: usize,
    ncols: usize,
    c: &mut [E],
    ldc: usize,
) {
    let (mr, nr) = (E::MR, E::NR);
    E::with_pack_bufs(|packed_a, packed_b| {
        packed_b.clear();
        packed_b.resize(KC * ncols.next_multiple_of(nr), E::ZERO);
        packed_a.clear();
        packed_a.resize(MC.min(mb_total).next_multiple_of(mr) * KC, E::ZERO);
        // Pack-time accounting: accumulate locally, publish once per stripe
        // so the hot loop touches no shared state.
        let obs = bt_obs::enabled();
        let mut pack_ns = 0u64;
        let mut timed = |work: &mut dyn FnMut()| {
            if obs {
                let t0 = std::time::Instant::now();
                work();
                pack_ns += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            } else {
                work();
            }
        };

        for pc in (0..k).step_by(KC) {
            let kb = KC.min(k - pc);
            timed(&mut || pack_b(b, ldb, pc, kb, ncols, packed_b));
            for ic in (0..mb_total).step_by(MC) {
                let mbb = MC.min(mb_total - ic);
                timed(&mut || pack_a(a, lda, row0 + ic, mbb, pc, kb, packed_a));
                let n_jr = ncols.div_ceil(nr);
                let n_ir = mbb.div_ceil(mr);
                for jr in 0..n_jr {
                    let jb = nr.min(ncols - jr * nr);
                    let pb = &packed_b[jr * kb * nr..][..kb * nr];
                    for ir in 0..n_ir {
                        let ib = mr.min(mbb - ir * mr);
                        let pa = &packed_a[ir * kb * mr..][..kb * mr];
                        // Fixed-size stack tile sliced to this type's
                        // MR * NR (stable Rust cannot size an array by an
                        // associated const).
                        let mut acc = [E::ZERO; ACC_MAX];
                        E::simd_microkernel(kb, pa, pb, &mut acc);
                        // Writeback the valid ib x jb corner of the tile.
                        for jj in 0..jb {
                            let dst = &mut c[(jr * nr + jj) * ldc + ic + ir * mr..][..ib];
                            let src = &acc[jj * mr..jj * mr + ib];
                            for (ci, &av) in dst.iter_mut().zip(src) {
                                *ci += alpha * av;
                            }
                        }
                    }
                }
            }
        }
        if obs {
            OBS_PACK_NS.add(pack_ns);
        }
    });
}

/// Packs rows `[row0, row0 + mb)` of the `KC`-deep A panel at `pc` into
/// `E::MR`-tall micro-panels: `out[ir * kb * MR + p * MR + ii]`,
/// zero-padded to full MR height.
fn pack_a<E: Element>(
    a: &[E],
    lda: usize,
    row0: usize,
    mb: usize,
    pc: usize,
    kb: usize,
    out: &mut [E],
) {
    let mr = E::MR;
    let n_ir = mb.div_ceil(mr);
    out[..n_ir * kb * mr].fill(E::ZERO);
    for ir in 0..n_ir {
        let ib = mr.min(mb - ir * mr);
        let dst_base = ir * kb * mr;
        for p in 0..kb {
            let src = &a[(pc + p) * lda + row0 + ir * mr..][..ib];
            out[dst_base + p * mr..dst_base + p * mr + ib].copy_from_slice(src);
        }
    }
}

/// Packs the `KC`-deep B panel at `pc` into `E::NR`-wide micro-panels:
/// `out[jr * kb * NR + p * NR + jj]`, zero-padded to full NR width.
fn pack_b<E: Element>(b: &[E], ldb: usize, pc: usize, kb: usize, ncols: usize, out: &mut [E]) {
    let nr = E::NR;
    let n_jr = ncols.div_ceil(nr);
    out[..n_jr * kb * nr].fill(E::ZERO);
    for jr in 0..n_jr {
        let jb = nr.min(ncols - jr * nr);
        let dst_base = jr * kb * nr;
        for jj in 0..jb {
            let src = &b[(jr * nr + jj) * ldb + pc..][..kb];
            for (p, &v) in src.iter().enumerate() {
                out[dst_base + p * nr + jj] = v;
            }
        }
    }
}

/// Returns `a * b` as a freshly allocated matrix.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn matmul<E: Element>(a: &Mat<E>, b: &Mat<E>) -> Mat<E> {
    let mut c = Mat::<E>::zeros(a.rows(), b.cols());
    gemm(E::ONE, a, Trans::No, b, Trans::No, E::ZERO, &mut c);
    c
}

/// `y <- alpha * A * x + beta * y` (matrix-vector product).
///
/// # Panics
///
/// Panics if `x.len() != a.cols()` or `y.len() != a.rows()`.
pub fn gemv<'a, E: Element>(alpha: E, a: impl Into<MatRef<'a, E>>, x: &[E], beta: E, y: &mut [E]) {
    let a = a.into();
    assert_eq!(x.len(), a.cols(), "gemv x length mismatch");
    assert_eq!(y.len(), a.rows(), "gemv y length mismatch");
    OBS_GEMV_CALLS.incr();
    OBS_GEMM_FLOPS.add(gemm_flops(a.rows(), a.cols(), 1));
    if beta == E::ZERO {
        y.fill(E::ZERO);
    } else if beta != E::ONE {
        for v in y.iter_mut() {
            *v *= beta;
        }
    }
    for (j, &xj) in x.iter().enumerate() {
        // No skip on zero weights (see gemm_axpy): non-finite entries of
        // A must propagate even when the matching x entry is zero.
        let w = alpha * xj;
        E::simd_axpy(w, a.col(j), y);
    }
}

/// Returns `a * x` for a vector `x`.
pub fn matvec<E: Element>(a: &Mat<E>, x: &[E]) -> Vec<E> {
    let mut y = vec![E::ZERO; a.rows()];
    gemv(E::ONE, a, x, E::ZERO, &mut y);
    y
}

/// Floating point operation count of `gemm` on `m x k` by `k x n` operands
/// (multiply-add counted as 2 flops). Used by the virtual-time cost model.
#[inline]
pub const fn gemm_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * (m as u64) * (k as u64) * (n as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threading::with_thread_budget;

    fn approx_eq(a: &Mat, b: &Mat, tol: f64) -> bool {
        a.shape() == b.shape() && a.sub(b).max_abs() <= tol
    }

    /// Naive reference multiply for cross-checking the blocked kernels.
    fn naive_matmul(a: &Mat, b: &Mat) -> Mat {
        let mut c = Mat::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for kk in 0..a.cols() {
                    s += a.get(i, kk) * b.get(kk, j);
                }
                c.set(i, j, s);
            }
        }
        c
    }

    fn seq_mat(rows: usize, cols: usize, seed: f64) -> Mat {
        Mat::from_fn(rows, cols, |i, j| {
            ((i * cols + j) as f64 * 0.37 + seed).sin()
        })
    }

    #[test]
    fn matmul_identity() {
        let a = seq_mat(5, 5, 1.0);
        assert!(approx_eq(&matmul(&a, &Mat::identity(5)), &a, 0.0));
        assert!(approx_eq(&matmul(&Mat::identity(5), &a), &a, 0.0));
    }

    #[test]
    fn matmul_matches_naive_rectangular() {
        for &(m, k, n) in &[(1, 1, 1), (3, 4, 5), (7, 2, 9), (16, 16, 16), (65, 130, 67)] {
            let a = seq_mat(m, k, 0.3);
            let b = seq_mat(k, n, 0.7);
            assert!(
                approx_eq(&matmul(&a, &b), &naive_matmul(&a, &b), 1e-12 * (k as f64)),
                "mismatch for {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn packed_matches_naive_at_blocking_boundaries() {
        // Sizes straddling MR (8), NR (4), NB (64) and KC (128) edges,
        // including deliberately ragged tails.
        for &(m, k, n) in &[
            (63, 64, 65),
            (64, 63, 64),
            (65, 65, 63),
            (127, 128, 129),
            (130, 127, 128),
            (9, 200, 5),
            (200, 9, 3),
            (1, 129, 1),
        ] {
            let a = seq_mat(m, k, 0.21);
            let b = seq_mat(k, n, 0.83);
            let mut c = Mat::zeros(m, n);
            gemm_packed(1.0, &a, &b, &mut c);
            assert!(
                approx_eq(&c, &naive_matmul(&a, &b), 1e-12 * (k as f64)),
                "packed mismatch for {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn packed_f32_matches_f64_reference() {
        // The f32 packed kernel (16 x 4 microkernel, f32 packing) against
        // the f64 naive product, at single-precision tolerance. Sizes
        // straddle the f32 tile edges (MR = 16) and the KC boundary.
        for &(m, k, n) in &[(17, 33, 5), (48, 128, 31), (130, 129, 40), (1, 257, 1)] {
            let a = seq_mat(m, k, 0.21);
            let b = seq_mat(k, n, 0.83);
            let a32 = a.convert::<f32>();
            let b32 = b.convert::<f32>();
            let mut c32 = Mat::<f32>::zeros(m, n);
            gemm_packed(1.0f32, &a32, &b32, &mut c32);
            let expect = naive_matmul(&a, &b);
            let diff = c32.convert::<f64>().sub(&expect).max_abs();
            assert!(
                diff <= 1e-5 * (k as f64),
                "f32 packed mismatch for {m}x{k}x{n}: {diff:e}"
            );
        }
    }

    #[test]
    fn axpy_and_small_f32_match_f64_reference() {
        // The f32 AXPY kernel and the f32 small-block kernels against the
        // f64 naive product.
        for &(m, k, n) in &[(4, 4, 4), (8, 8, 8), (16, 16, 16), (7, 9, 5)] {
            let a = seq_mat(m, k, 0.4);
            let b = seq_mat(k, n, 0.6);
            let mut c32 = Mat::<f32>::zeros(m, n);
            gemm(
                1.0f32,
                &a.convert::<f32>(),
                Trans::No,
                &b.convert::<f32>(),
                Trans::No,
                0.0,
                &mut c32,
            );
            let diff = c32.convert::<f64>().sub(&naive_matmul(&a, &b)).max_abs();
            assert!(diff <= 1e-5 * (k as f64), "f32 mismatch for {m}x{k}x{n}");
        }
    }

    #[test]
    fn packed_accumulates_with_alpha() {
        let a = seq_mat(70, 40, 0.5);
        let b = seq_mat(40, 70, 0.6);
        let c0 = seq_mat(70, 70, 0.7);
        let mut c = c0.clone();
        gemm_packed(-1.5, &a, &b, &mut c);
        let expect = c0.add(&naive_matmul(&a, &b).scaled(-1.5));
        assert!(approx_eq(&c, &expect, 1e-11));
    }

    #[test]
    fn packed_bitwise_identical_across_thread_budgets() {
        let _isa = crate::dispatch_lock();
        // Both parallel macro-loop splits (jc for wide C, ic for tall C)
        // must preserve the per-element summation order exactly.
        for &(m, k, n) in &[(96, 300, 200), (400, 150, 40)] {
            let a = seq_mat(m, k, 0.11);
            let b = seq_mat(k, n, 0.91);
            let mut c1 = Mat::zeros(m, n);
            with_thread_budget(1, || gemm_packed(1.0, &a, &b, &mut c1));
            for t in [2, 3, 5] {
                let mut ct = Mat::zeros(m, n);
                with_thread_budget(t, || gemm_packed(1.0, &a, &b, &mut ct));
                assert_eq!(c1, ct, "budget {t} changed bits for {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn packed_f32_bitwise_identical_across_thread_budgets() {
        let _isa = crate::dispatch_lock();
        // The ic-parallel row split aligns stripes to E::MR — exercise it
        // at the f32 tile height too.
        for &(m, k, n) in &[(96, 300, 200), (400, 150, 40)] {
            let a = seq_mat(m, k, 0.11).convert::<f32>();
            let b = seq_mat(k, n, 0.91).convert::<f32>();
            let mut c1 = Mat::<f32>::zeros(m, n);
            with_thread_budget(1, || gemm_packed(1.0f32, &a, &b, &mut c1));
            for t in [2, 5] {
                let mut ct = Mat::<f32>::zeros(m, n);
                with_thread_budget(t, || gemm_packed(1.0f32, &a, &b, &mut ct));
                assert_eq!(c1, ct, "budget {t} changed f32 bits for {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn axpy_and_packed_agree() {
        let a = seq_mat(80, 90, 0.2);
        let b = seq_mat(90, 70, 0.4);
        let mut cp = Mat::zeros(80, 70);
        let mut cx = Mat::zeros(80, 70);
        gemm_packed(1.0, &a, &b, &mut cp);
        gemm_axpy(1.0, &a, &b, &mut cx);
        assert!(approx_eq(&cp, &cx, 1e-12 * 90.0));
    }

    #[test]
    fn gemm_alpha_beta() {
        let a = seq_mat(4, 4, 0.1);
        let b = seq_mat(4, 4, 0.2);
        let c0 = seq_mat(4, 4, 0.9);
        let mut c = c0.clone();
        gemm(2.0, &a, Trans::No, &b, Trans::No, 3.0, &mut c);
        let expect = naive_matmul(&a, &b).scaled(2.0).add(&c0.scaled(3.0));
        assert!(approx_eq(&c, &expect, 1e-12));
    }

    #[test]
    fn gemm_transpose_paths() {
        let a = seq_mat(6, 3, 0.4);
        let b = seq_mat(6, 5, 0.5);
        // C = A^T * B : 3x5
        let mut c = Mat::zeros(3, 5);
        gemm(1.0, &a, Trans::Yes, &b, Trans::No, 0.0, &mut c);
        assert!(approx_eq(&c, &naive_matmul(&a.transpose(), &b), 1e-12));

        // C = A^T * B^T where B is 5x6
        let b2 = seq_mat(5, 6, 0.8);
        let mut c2 = Mat::zeros(3, 5);
        gemm(1.0, &a, Trans::Yes, &b2, Trans::Yes, 0.0, &mut c2);
        assert!(approx_eq(
            &c2,
            &naive_matmul(&a.transpose(), &b2.transpose()),
            1e-12
        ));

        // C = A * B^T where A is 6x3, B is 5x3
        let b3 = seq_mat(5, 3, 0.2);
        let mut c3 = Mat::zeros(6, 5);
        gemm(1.0, &a, Trans::No, &b3, Trans::Yes, 0.0, &mut c3);
        assert!(approx_eq(&c3, &naive_matmul(&a, &b3.transpose()), 1e-12));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn gemm_shape_mismatch_panics() {
        let a: Mat = Mat::zeros(2, 3);
        let b: Mat = Mat::zeros(2, 3);
        let mut c: Mat = Mat::zeros(2, 3);
        gemm(1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut c);
    }

    #[test]
    fn gemv_matches_matmul() {
        let a = seq_mat(5, 4, 0.6);
        let x: Vec<f64> = (0..4).map(|i| i as f64 + 0.5).collect();
        let y = matvec(&a, &x);
        let xm = Mat::from_col_major(4, 1, x);
        let ym = matmul(&a, &xm);
        for i in 0..5 {
            assert!((y[i] - ym[(i, 0)]).abs() < 1e-13);
        }
    }

    #[test]
    fn gemv_beta_accumulates() {
        let a = Mat::identity(3);
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![10.0, 10.0, 10.0];
        gemv(2.0, &a, &x, 1.0, &mut y);
        assert_eq!(y, vec![12.0, 14.0, 16.0]);
    }

    #[test]
    fn nonfinite_propagates_through_zero_weights() {
        // A NaN in A must reach C even when the matching B entry is 0.0
        // (0 * NaN == NaN); the old kernels skipped zero weights and
        // silently produced finite garbage instead.
        let mut a = Mat::identity(3);
        a.set(1, 0, f64::NAN);
        let b = Mat::zeros(3, 2);
        let c = matmul(&a, &b);
        assert!(c[(1, 0)].is_nan(), "gemm dropped 0 * NaN");

        let mut y = vec![0.0; 3];
        gemv(1.0, &a, &[0.0, 0.0, 0.0], 0.0, &mut y);
        assert!(y[1].is_nan(), "gemv dropped 0 * NaN");

        // Same through the packed kernel.
        let mut ap = Mat::identity(64);
        ap.set(3, 2, f64::INFINITY);
        let bp = Mat::zeros(64, 64);
        let mut cp = Mat::zeros(64, 64);
        gemm_packed(1.0, &ap, &bp, &mut cp);
        assert!(cp[(3, 2)].is_nan(), "packed dropped 0 * inf");
    }

    #[test]
    fn empty_dims_are_noops() {
        let a: Mat = Mat::zeros(0, 3);
        let b: Mat = Mat::zeros(3, 2);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), (0, 2));

        let a: Mat = Mat::zeros(2, 0);
        let b: Mat = Mat::zeros(0, 2);
        let mut c = Mat::filled(2, 2, 5.0);
        gemm(1.0, &a, Trans::No, &b, Trans::No, 1.0, &mut c);
        assert_eq!(c, Mat::filled(2, 2, 5.0));
    }

    #[test]
    fn strided_views_match_owned_blocks() {
        // Kernels on submatrix views must agree with the same product on
        // materialized blocks, for both dispatch paths.
        let big_a = seq_mat(40, 40, 0.13);
        let big_b = seq_mat(40, 40, 0.77);
        let a_blk = big_a.block(3, 5, 20, 12);
        let b_blk = big_b.block(7, 1, 12, 16);
        let mut expect = Mat::zeros(20, 16);
        gemm_axpy(1.0, &a_blk, &b_blk, &mut expect);

        let mut got = Mat::zeros(20, 16);
        gemm_axpy(
            1.0,
            big_a.submatrix(3, 5, 20, 12),
            big_b.submatrix(7, 1, 12, 16),
            &mut got,
        );
        assert_eq!(got, expect, "axpy strided mismatch");

        let mut got_p = Mat::zeros(20, 16);
        gemm_packed(
            1.0,
            big_a.submatrix(3, 5, 20, 12),
            big_b.submatrix(7, 1, 12, 16),
            &mut got_p,
        );
        let mut expect_p = Mat::zeros(20, 16);
        gemm_packed(1.0, &a_blk, &b_blk, &mut expect_p);
        assert_eq!(got_p, expect_p, "packed strided mismatch");

        // Strided output window: C written through a submatrix view only
        // touches the window.
        let mut big_c = seq_mat(30, 30, 0.5);
        let orig_c = big_c.clone();
        gemm(
            1.0,
            &a_blk,
            Trans::No,
            &b_blk,
            Trans::No,
            0.0,
            big_c.submatrix_mut(2, 4, 20, 16),
        );
        assert_eq!(big_c.block(2, 4, 20, 16), expect);
        big_c
            .as_mut()
            .submatrix_mut(2, 4, 20, 16)
            .copy_from(orig_c.submatrix(2, 4, 20, 16));
        assert_eq!(big_c, orig_c, "gemm wrote outside the output window");
    }

    #[test]
    fn strided_views_parallel_paths_match_sequential() {
        let _isa = crate::dispatch_lock();
        // The jc/ic-parallel packed paths must handle non-unit strides
        // (ldc > rows) and stay bitwise identical to one thread.
        let big_a = seq_mat(420, 320, 0.31);
        let big_b = seq_mat(320, 220, 0.61);
        // (400, 300, 200) drives the jc-parallel split; (400, 150, 40)
        // has a single column block and drives the ic-parallel split.
        for &(m, k, n) in &[(400, 300, 200), (400, 150, 40)] {
            let mut big_c1 = Mat::zeros(410, 210);
            let mut big_ct = Mat::zeros(410, 210);
            with_thread_budget(1, || {
                gemm_packed(
                    1.0,
                    big_a.submatrix(9, 11, m, k),
                    big_b.submatrix(5, 7, k, n),
                    big_c1.submatrix_mut(3, 2, m, n),
                );
            });
            for t in [2, 5] {
                big_ct.fill_zero();
                with_thread_budget(t, || {
                    gemm_packed(
                        1.0,
                        big_a.submatrix(9, 11, m, k),
                        big_b.submatrix(5, 7, k, n),
                        big_ct.submatrix_mut(3, 2, m, n),
                    );
                });
                assert_eq!(
                    big_c1, big_ct,
                    "budget {t} changed bits on strided {m}x{k}x{n}"
                );
            }
        }
    }

    #[test]
    fn gemv_on_submatrix_view() {
        let big = seq_mat(10, 10, 0.9);
        let x: Vec<f64> = (0..4).map(|i| i as f64 - 1.5).collect();
        let mut y_view = vec![0.0; 5];
        gemv(1.0, big.submatrix(2, 3, 5, 4), &x, 0.0, &mut y_view);
        let y_blk = matvec(&big.block(2, 3, 5, 4), &x);
        assert_eq!(y_view, y_blk);
    }

    #[test]
    fn flop_count_formula() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
        assert_eq!(gemm_flops(0, 3, 4), 0);
    }

    #[test]
    fn colsplit_plan_tiled_is_bitwise_identical() {
        // Column-tiled application of a frozen plan must reproduce the
        // full-width product bit for bit, for every tile width — the
        // invariant the RHS-tiled replay pipeline rests on. Shapes span
        // both sides of the packed crossover and the small-block kernels.
        for &(m, k, n) in &[(4, 4, 4), (8, 8, 8), (5, 7, 23), (16, 16, 64), (32, 32, 33)] {
            let a = seq_mat(m, k, 0.3);
            let b = seq_mat(k, n, 0.7);
            let plan = colsplit_plan(m, k, n);
            let mut full = Mat::zeros(m, n);
            plan.apply(1.5, &a, &b, &mut full);
            for tile in [1, 2, 3, n.div_ceil(2), n, n + 5] {
                let mut tiled = Mat::zeros(m, n);
                let mut c0 = 0;
                while c0 < n {
                    let w = tile.min(n - c0);
                    plan.apply(
                        1.5,
                        &a,
                        b.as_ref().submatrix(0, c0, k, w),
                        tiled.as_mut().submatrix_mut(0, c0, m, w),
                    );
                    c0 += w;
                }
                assert_eq!(full, tiled, "{m}x{k}x{n} tile={tile}");
            }
        }
    }

    #[test]
    fn colsplit_plan_f32_tiled_is_bitwise_identical() {
        // The same tiling invariant holds for plans frozen and applied at
        // f32 — the mixed-precision replay pipeline depends on it.
        for &(m, k, n) in &[(8, 8, 8), (16, 16, 64), (32, 32, 33)] {
            let a = seq_mat(m, k, 0.3).convert::<f32>();
            let b = seq_mat(k, n, 0.7).convert::<f32>();
            let plan = colsplit_plan_for::<f32>(m, k, n);
            let mut full = Mat::<f32>::zeros(m, n);
            plan.apply(1.5f32, &a, &b, &mut full);
            for tile in [1, 3, n] {
                let mut tiled = Mat::<f32>::zeros(m, n);
                let mut c0 = 0;
                while c0 < n {
                    let w = tile.min(n - c0);
                    plan.apply(
                        1.5f32,
                        &a,
                        b.as_ref().submatrix(0, c0, k, w),
                        tiled.as_mut().submatrix_mut(0, c0, m, w),
                    );
                    c0 += w;
                }
                assert_eq!(full, tiled, "f32 {m}x{k}x{n} tile={tile}");
            }
        }
    }

    #[test]
    fn colsplit_small_plan_tiled_matches_full_width_gemm() {
        let _isa = crate::dispatch_lock();
        // A small-block plan applied tile by tile reproduces one
        // full-width `gemm` call bit for bit, at both precisions and
        // with ragged tile tails against every register-tile width.
        for &(m, n) in &[(4, 17), (4, 64), (8, 9), (8, 64), (16, 65), (16, 3)] {
            let a = seq_mat(m, m, 0.3);
            let b = seq_mat(m, n, 0.7);
            let c0 = seq_mat(m, n, 0.1);
            let plan = colsplit_plan(m, m, n);
            assert_eq!(plan.kernel, Kernel::Small);
            let mut full = c0.clone();
            gemm(-0.75, &a, Trans::No, &b, Trans::No, 1.0, &mut full);
            let (a32, b32) = (a.convert::<f32>(), b.convert::<f32>());
            let mut full32 = c0.convert::<f32>();
            gemm(-0.75f32, &a32, Trans::No, &b32, Trans::No, 1.0, &mut full32);
            for tile in [1, 2, 3, 5, 7, n] {
                let mut tiled = c0.clone();
                let mut tiled32 = c0.convert::<f32>();
                let mut c0 = 0;
                while c0 < n {
                    let w = tile.min(n - c0);
                    plan.apply(
                        -0.75,
                        &a,
                        b.as_ref().submatrix(0, c0, m, w),
                        tiled.as_mut().submatrix_mut(0, c0, m, w),
                    );
                    plan.apply(
                        -0.75f32,
                        &a32,
                        b32.as_ref().submatrix(0, c0, m, w),
                        tiled32.as_mut().submatrix_mut(0, c0, m, w),
                    );
                    c0 += w;
                }
                assert_eq!(full, tiled, "{m}x{m}x{n} tile={tile}");
                assert_eq!(full32, tiled32, "f32 {m}x{m}x{n} tile={tile}");
            }
        }
    }

    #[test]
    fn small_kernel_bitwise_identical_across_thread_budgets() {
        let _isa = crate::dispatch_lock();
        // Wide small-block products split into NB-aligned column stripes
        // under a budget > 1; strided operands and output included.
        for &(m, n) in &[(4, 300), (8, 129), (16, 200), (16, 64)] {
            let big_a = seq_mat(m + 3, m + 2, 0.17);
            let big_b = seq_mat(m + 5, n + 1, 0.59);
            let a = big_a.submatrix(2, 1, m, m);
            let b = big_b.submatrix(4, 1, m, n);
            let mut c1 = seq_mat(m + 2, n + 3, 0.23);
            let c_orig = c1.clone();
            with_thread_budget(1, || {
                gemm(
                    1.25,
                    a,
                    Trans::No,
                    b,
                    Trans::No,
                    1.0,
                    c1.submatrix_mut(1, 2, m, n),
                );
            });
            let (a32, b32) = (a.to_mat().convert::<f32>(), b.to_mat().convert::<f32>());
            let mut c1_32 = Mat::<f32>::zeros(m, n);
            with_thread_budget(1, || {
                gemm(1.25f32, &a32, Trans::No, &b32, Trans::No, 0.0, &mut c1_32)
            });
            for t in [2, 3, 5] {
                let mut ct = c_orig.clone();
                with_thread_budget(t, || {
                    gemm(
                        1.25,
                        a,
                        Trans::No,
                        b,
                        Trans::No,
                        1.0,
                        ct.submatrix_mut(1, 2, m, n),
                    );
                });
                assert_eq!(c1, ct, "budget {t} changed bits for {m}x{m}x{n}");
                let mut ct32 = Mat::<f32>::zeros(m, n);
                with_thread_budget(t, || {
                    gemm(1.25f32, &a32, Trans::No, &b32, Trans::No, 0.0, &mut ct32);
                });
                assert_eq!(c1_32, ct32, "budget {t} changed f32 bits for {m}x{m}x{n}");
            }
        }
    }

    #[test]
    fn colsplit_plan_matches_dispatch_threshold() {
        let kernel = |m, k, n| colsplit_plan(m, k, n).kernel;
        // Tiny problem: AXPY side of the crossover on every ISA.
        assert_eq!(kernel(2, 2, 2), Kernel::Axpy);
        // Huge problem: packed on every ISA (2 * 128^3 > 500k).
        assert_eq!(kernel(128, 128, 128), Kernel::Packed);
        // Square A of a small-block order: the small kernel at every
        // width, on every ISA; any other A keeps the flop crossover.
        for n in [1, 16, 64, 4096] {
            for m in [4, 8, 16] {
                assert_eq!(kernel(m, m, n), Kernel::Small, "{m}x{m}x{n}");
            }
        }
        assert_eq!(kernel(16, 8, 4096), Kernel::Packed);
        assert_eq!(kernel(12, 12, 1), Kernel::Axpy);
    }
}
