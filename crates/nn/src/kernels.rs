//! Explicit-SIMD and multi-threaded compute kernels, **bit-identical** to
//! the scalar kernels in [`crate::matrix`] by construction.
//!
//! Every model in this workspace funnels through three matrix products:
//! `matmul` (forward layers), `t_matmul` (weight gradients), and `matmul_t`
//! (input gradients). The scalar reference kernels accumulate each output
//! element as a running `f32` sum over the inner dimension in ascending
//! order, skipping `a == 0.0` terms only when the right-hand operand is
//! entirely finite (see [`crate::matrix::Matrix::matmul`]). The variants here
//! keep **exactly that per-element operation sequence**:
//!
//! * the *SIMD* kernels ([`KernelBackend::Simd`]) tile the output into
//!   `MR × NR` register accumulators through explicit `core::arch` AVX2 /
//!   AVX-512F intrinsics behind runtime feature detection. Vector **lanes
//!   are output columns**, never partial sums of one element: each lane
//!   accumulates its own output element with one `mul` + one `add` per
//!   ascending-`k` step, so no horizontal reduction exists to reorder — the
//!   per-element operation sequence is the scalar one, instruction for
//!   instruction (and the intrinsics never use FMA, whose single rounding
//!   would change bits). `matmul_t`, whose scalar form is a dot product
//!   along `k`, is packed through a transpose first so its SIMD form also
//!   vectorizes across output columns instead of reducing across lanes.
//!   Without AVX2 the SIMD tier runs the scalar bodies;
//! * the *threaded* kernels partition **output rows** across
//!   `std::thread::scope` workers; every element is still computed by the
//!   same serial code on one thread, so the result is independent of the
//!   worker count.
//!
//! Floating-point addition is deterministic for a fixed operand order, so
//! "same per-element order" ⇒ "same bits" — for finite values, signed zeros,
//! and NaN/∞ alike. The property tests in `tests/kernel_identity.rs` pin this
//! across backends × thread counts (including non-finite inputs);
//! `exp_kernel_bench` gates it again at benchmark scale.
//!
//! [`Parallelism`] is the worker budget the rest of the system plumbs
//! through (trainer minibatches, a CardNet estimator's encoder and batch
//! paths, `report::evaluate`): a worker-count hint that the kernels clamp by
//! the number of output rows and by a minimum useful work size, so callers
//! can pass one config everywhere without tiny products paying thread-spawn
//! overhead. The backend is resolved once per process: the
//! `CARDEST_KERNEL_BACKEND` env var (`scalar` | `simd` | `auto`) if set,
//! else the best the CPU supports. [`Parallelism::with_backend`] pins a
//! tier only so tests and `exp_kernel_bench` can compare each one against
//! the scalar reference.

use crate::matrix::Matrix;
use std::sync::OnceLock;

/// Which compute-kernel implementation tier to run.
///
/// Both produce **bit-identical** outputs for every input — the choice
/// is purely a throughput decision, which is what makes it safe to resolve
/// from an env var or CPU detection at runtime.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelBackend {
    /// The reference scalar loops (restricted to each worker's row range):
    /// the trust anchor, the default on CPUs without AVX2, and the forced
    /// fallback for CI's no-SIMD leg.
    Scalar,
    /// Explicit AVX2 / AVX-512F tiles via `core::arch`, chosen by runtime
    /// feature detection. Runs the scalar bodies on CPUs (or architectures)
    /// without AVX2 — selecting `Simd` is always safe.
    Simd,
}

/// The instruction-set tier the SIMD backend resolved to on this CPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SimdLevel {
    None,
    Avx2,
    Avx512,
}

fn simd_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
        *LEVEL.get_or_init(|| {
            if std::arch::is_x86_feature_detected!("avx512f") {
                SimdLevel::Avx512
            } else if std::arch::is_x86_feature_detected!("avx2") {
                SimdLevel::Avx2
            } else {
                SimdLevel::None
            }
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    SimdLevel::None
}

impl KernelBackend {
    /// Whether this CPU has an explicit-SIMD path (AVX2 or better).
    pub fn simd_available() -> bool {
        simd_level() != SimdLevel::None
    }

    /// The instruction set the SIMD backend dispatches to on this CPU:
    /// `"avx512"`, `"avx2"`, or `"none"` (benchmark reports and logs).
    pub fn simd_support() -> &'static str {
        match simd_level() {
            SimdLevel::Avx512 => "avx512",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::None => "none",
        }
    }

    /// The best backend this CPU supports: [`KernelBackend::Simd`] when AVX2
    /// (or better) is detected, else [`KernelBackend::Scalar`].
    pub fn detect() -> KernelBackend {
        if KernelBackend::simd_available() {
            KernelBackend::Simd
        } else {
            KernelBackend::Scalar
        }
    }

    /// Parses a backend name: `scalar` | `simd` | `auto`
    /// (case-insensitive; `auto` resolves through [`KernelBackend::detect`]).
    pub fn parse(s: &str) -> Option<KernelBackend> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelBackend::Scalar),
            "simd" => Some(KernelBackend::Simd),
            "auto" => Some(KernelBackend::detect()),
            _ => None,
        }
    }

    /// The process-wide default for [`Parallelism`] configs that do not pin
    /// a backend: the `CARDEST_KERNEL_BACKEND` env var if set and valid
    /// (this is how CI forces the scalar-fallback leg without touching any
    /// call site), else [`KernelBackend::detect`]. Resolved once and cached.
    pub fn default_backend() -> KernelBackend {
        static DEFAULT: OnceLock<KernelBackend> = OnceLock::new();
        *DEFAULT.get_or_init(|| match std::env::var("CARDEST_KERNEL_BACKEND") {
            Ok(v) if !v.trim().is_empty() => KernelBackend::parse(&v).unwrap_or_else(|| {
                eprintln!(
                    "CARDEST_KERNEL_BACKEND=`{v}` not recognized \
                     (want scalar|simd|auto); using auto-detection"
                );
                KernelBackend::detect()
            }),
            _ => KernelBackend::detect(),
        })
    }

    /// Short stable name (CLI/bench/JSON vocabulary).
    pub fn label(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Simd => "simd",
        }
    }
}

/// Minimum multiply-adds a worker thread must have before the kernels spawn
/// it. The kernels run at tens of GFLOP/s, so 4M MACs ≈ 100–200 µs of work —
/// comfortably above a `thread::scope` spawn+join (~20 µs), which keeps
/// threading from ever losing to its own overhead on small products.
/// Callers that need fine-grained parallelism regardless (tests, coarse
/// per-row fan-outs that amortize one spawn over many kernel calls) use
/// [`Parallelism::exact_threads`] or partition above the kernel layer.
const MIN_WORK_PER_THREAD: usize = 4_000_000;

/// How many worker threads the compute kernels may use, and optionally
/// which [`KernelBackend`] they run.
///
/// A `Parallelism` is a *hint*: kernels clamp it by the number of output rows
/// (each row is computed entirely by one worker — that is what makes the
/// result bit-identical) and, unless constructed with
/// [`Parallelism::exact_threads`], by a minimum-work-per-thread threshold so
/// small products stay serial. The backend is `None` by default, meaning
/// "resolve [`KernelBackend::default_backend`] at dispatch"; tests and
/// benchmarks pin one with [`Parallelism::with_backend`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Parallelism {
    threads: usize,
    /// Skip the minimum-work clamp (tests and micro-benchmarks).
    force: bool,
    /// Pinned kernel tier; `None` defers to the process-wide default.
    backend: Option<KernelBackend>,
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::serial()
    }
}

impl Parallelism {
    /// Single-threaded (the default everywhere).
    pub const fn serial() -> Parallelism {
        Parallelism {
            threads: 1,
            force: false,
            backend: None,
        }
    }

    /// At most `n` worker threads (`0` is treated as `1`).
    pub fn threads(n: usize) -> Parallelism {
        Parallelism {
            threads: n.max(1),
            force: false,
            backend: None,
        }
    }

    /// One worker per available hardware thread.
    pub fn auto() -> Parallelism {
        Parallelism::threads(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// Exactly `n` workers whenever the shape allows it, ignoring the
    /// minimum-work clamp. Meant for tests and benchmarks that must exercise
    /// the threaded path on small inputs; production callers want
    /// [`Parallelism::threads`].
    pub fn exact_threads(n: usize) -> Parallelism {
        Parallelism {
            threads: n.max(1),
            force: true,
            backend: None,
        }
    }

    /// Pins the kernel backend (builder form), so a test or benchmark can
    /// run one tier against the scalar reference. Every backend is
    /// bit-identical; production code leaves the process default in place.
    pub const fn with_backend(mut self, backend: KernelBackend) -> Parallelism {
        self.backend = Some(backend);
        self
    }

    /// The backend kernels will dispatch to: the pinned one, else the
    /// process-wide [`KernelBackend::default_backend`].
    pub fn backend(&self) -> KernelBackend {
        match self.backend {
            Some(b) => b,
            None => KernelBackend::default_backend(),
        }
    }

    /// A one-thread copy that keeps the pinned backend — what coarse row
    /// fan-outs hand to the kernels inside each worker.
    pub fn serial_worker(&self) -> Parallelism {
        Parallelism {
            threads: 1,
            force: false,
            backend: self.backend,
        }
    }

    /// The configured worker-count hint.
    pub fn thread_count(&self) -> usize {
        self.threads
    }

    pub fn is_serial(&self) -> bool {
        self.threads == 1
    }

    /// Effective worker count for `tasks` independent tasks totalling `work`
    /// multiply-adds: the hint, clamped by the task count and (unless
    /// constructed with [`Parallelism::exact_threads`]) by the minimum
    /// useful work per thread.
    pub fn workers(&self, tasks: usize, work: usize) -> usize {
        let cap = if self.force {
            tasks
        } else {
            tasks.min((work / MIN_WORK_PER_THREAD).max(1))
        };
        self.threads.min(cap)
    }
}

/// Partitions a row-major buffer of `row_len`-wide rows into contiguous row
/// ranges and runs `task(first_row, row_chunk)` on each — on the calling
/// thread when `workers <= 1`, else across `std::thread::scope` workers (the
/// calling thread takes the first chunk instead of idling).
///
/// Each row is handed to exactly one worker, which is what lets higher-level
/// fan-outs (per-distance encoder passes, per-query evaluation) stay
/// bit-identical to their serial order.
pub fn partition_rows<F>(out: &mut [f32], row_len: usize, workers: usize, task: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if row_len == 0 || out.is_empty() {
        task(0, out);
        return;
    }
    let rows = out.len() / row_len;
    let workers = workers.clamp(1, rows.max(1));
    if workers <= 1 {
        task(0, out);
        return;
    }
    let chunk_rows = rows.div_ceil(workers);
    let mut chunks = out.chunks_mut(chunk_rows * row_len).enumerate();
    let first = chunks.next();
    std::thread::scope(|s| {
        for (t, chunk) in chunks {
            let task = &task;
            s.spawn(move || task(t * chunk_rows, chunk));
        }
        if let Some((t, chunk)) = first {
            task(t * chunk_rows, chunk);
        }
    });
}

impl Matrix {
    /// `self @ other` through the backend's (and, when `par` allows,
    /// threaded) kernel. Bit-identical to [`Matrix::matmul`] for every input.
    pub fn matmul_with(&self, other: &Matrix, par: Parallelism) -> Matrix {
        assert_eq!(
            self.cols(),
            other.rows(),
            "matmul shape mismatch: {}x{} @ {}x{}",
            self.rows(),
            self.cols(),
            other.rows(),
            other.cols()
        );
        // Same batch-level finiteness rule as the scalar kernel: the sparse
        // skip is only sound when no skipped term could hide a 0·NaN / 0·∞.
        let skip_zeros = other.all_finite();
        let mut out = Matrix::zeros(self.rows(), other.cols());
        let n = other.cols();
        let k = self.cols();
        let backend = par.backend();
        // Per-call kernel choice — both orders are bit-identical, so this is
        // purely a throughput decision: a sparse left operand (binary
        // features, post-ReLU activations) favors the saxpy order whose zero
        // skip drops whole rows of work; a dense one favors the SIMD tiles.
        // The scalar backend *is* the saxpy order, so it skips the count.
        let sparse_left = backend == KernelBackend::Simd && skip_zeros && {
            let nonzero = self.as_slice().iter().filter(|&&v| v != 0.0).count();
            4 * nonzero < 3 * self.len().max(1)
        };
        let rows_kernel = if backend == KernelBackend::Simd && !sparse_left {
            matmul_rows_simd
        } else {
            matmul_rows_saxpy
        };
        let work = self.rows() * k * n;
        let workers = par.workers(self.rows(), work);
        partition_rows(out.as_mut_slice(), n, workers, |first_row, chunk| {
            let (ad, bd) = (self.as_slice(), other.as_slice());
            rows_kernel(ad, k, bd, n, first_row, chunk, skip_zeros)
        });
        out
    }

    /// `selfᵀ @ other` through the row-partitioned kernel. Bit-identical to
    /// [`Matrix::t_matmul`] for every input.
    pub fn t_matmul_with(&self, other: &Matrix, par: Parallelism) -> Matrix {
        assert_eq!(self.rows(), other.rows(), "t_matmul shape mismatch");
        let skip_zeros = other.all_finite();
        let mut out = Matrix::zeros(self.cols(), other.cols());
        let n = other.cols();
        let k = self.cols();
        let samples = self.rows();
        let work = samples * k * n;
        let workers = par.workers(k, work);
        // `t_matmul_rows` *is* the scalar loop restricted to a row range;
        // Simd vectorizes its inner saxpy across output columns.
        let rows_kernel = match par.backend() {
            KernelBackend::Scalar => t_matmul_rows,
            KernelBackend::Simd => t_matmul_rows_simd,
        };
        partition_rows(out.as_mut_slice(), n, workers, |first_row, chunk| {
            let (ad, bd) = (self.as_slice(), other.as_slice());
            rows_kernel(ad, k, bd, n, samples, first_row, chunk, skip_zeros)
        });
        out
    }

    /// `self @ otherᵀ` through the backend's (and, when `par` allows,
    /// threaded) kernel. Bit-identical to [`Matrix::matmul_t`] for every
    /// input.
    pub fn matmul_t_with(&self, other: &Matrix, par: Parallelism) -> Matrix {
        assert_eq!(self.cols(), other.cols(), "matmul_t shape mismatch");
        let mut out = Matrix::zeros(self.rows(), other.rows());
        let n = other.rows();
        let k = self.cols();
        let work = self.rows() * k * n;
        let workers = par.workers(self.rows(), work);
        // The scalar matmul_t is a dot product along `k` — vectorizing *that*
        // would need a horizontal reduction, which reorders the additions.
        // The SIMD path instead packs `otherᵀ` once (shared, read-only across
        // workers) and runs the column-vectorized dense kernel over it: each
        // lane owns one output element, accumulated in ascending `k` exactly
        // like the scalar dot product. The packing cost is O(n·k) against an
        // O(m·n·k) product — and only worth paying when a SIMD tile kernel
        // actually exists on this CPU; otherwise the Simd pin falls straight
        // through to the scalar dot products.
        let packed = (par.backend() == KernelBackend::Simd
            && n > 0
            && k > 0
            && KernelBackend::simd_available())
        .then(|| other.transpose());
        partition_rows(out.as_mut_slice(), n, workers, |first_row, chunk| {
            match &packed {
                // Dense (no zero skip): the scalar matmul_t never skips.
                Some(bt) => matmul_rows_simd(
                    self.as_slice(),
                    k,
                    bt.as_slice(),
                    n,
                    first_row,
                    chunk,
                    false,
                ),
                None => matmul_t_rows(self.as_slice(), k, other.as_slice(), n, first_row, chunk),
            }
        });
        out
    }
}

/// The reference kernel's i-k-j saxpy order restricted to output rows
/// `first_row ..` of `a @ b`, writing into `out` (a contiguous chunk of the
/// output, `len = rows_here * n`): the [`KernelBackend::Scalar`] body, the
/// sparse-left dispatch of [`Matrix::matmul_with`], and the SIMD fallback
/// without AVX2. With `skip_zeros` it is the sparse reference order, without
/// it the dense one — per-element accumulation matches [`Matrix::matmul`]
/// exactly either way.
///
/// The row kernels take raw slices + dimensions rather than `&Matrix`
/// deliberately: slice parameters carry `noalias` guarantees at the function
/// boundary, while a heap buffer loaded through a struct reference does not
/// — and without that LLVM refuses to vectorize the inner loops once the
/// kernel is reachable from the threaded fan-out.
fn matmul_rows_saxpy(
    ad: &[f32],
    kk: usize,
    bd: &[f32],
    n: usize,
    first_row: usize,
    out: &mut [f32],
    skip_zeros: bool,
) {
    if n == 0 {
        return;
    }
    let rows = out.len() / n;
    for r in 0..rows {
        let a_row = &ad[(first_row + r) * kk..(first_row + r + 1) * kk];
        let out_row = &mut out[r * n..(r + 1) * n];
        for (k, &av) in a_row.iter().enumerate() {
            if skip_zeros && av == 0.0 {
                continue;
            }
            let b_row = &bd[k * n..k * n + n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// The reference `a @ bᵀ` loop restricted to a row range — the body of
/// [`Matrix::matmul_t_with`] whenever no SIMD tile kernel runs: one
/// ascending-`k` dot product per output element, exactly like
/// [`Matrix::matmul_t`]. `ad` is `rows × kk`, `bd` is `n × kk`.
fn matmul_t_rows(ad: &[f32], kk: usize, bd: &[f32], n: usize, first_row: usize, out: &mut [f32]) {
    if n == 0 {
        return;
    }
    let rows = out.len() / n;
    for r in 0..rows {
        let a_row = &ad[(first_row + r) * kk..(first_row + r + 1) * kk];
        let out_row = &mut out[r * n..(r + 1) * n];
        for (j, o) in out_row.iter_mut().enumerate() {
            let b_row = &bd[j * kk..(j + 1) * kk];
            let mut acc = 0.0f32;
            for (&av, &bv) in a_row.iter().zip(b_row) {
                acc += av * bv;
            }
            *o = acc;
        }
    }
}

/// `aᵀ @ b` restricted to output rows `first_row ..` (columns of `a`).
/// `ad` is `samples × kk`, `bd` is `samples × n`.
///
/// The scalar kernel accumulates output row `k` as contributions in
/// ascending sample order `r`; restricting `k` to this worker's range keeps
/// that per-element order untouched.
// lint: hot-path
#[allow(clippy::too_many_arguments)] // slice+dims boundary, see matmul_rows_saxpy
fn t_matmul_rows(
    ad: &[f32],
    kk: usize,
    bd: &[f32],
    n: usize,
    samples: usize,
    first_row: usize,
    out: &mut [f32],
    skip_zeros: bool,
) {
    if n == 0 {
        return;
    }
    let rows_here = out.len() / n;
    if rows_here == 0 {
        return;
    }
    for r in 0..samples {
        let a_seg = &ad[r * kk + first_row..r * kk + first_row + rows_here];
        let b_row = &bd[r * n..r * n + n];
        for (k_local, &av) in a_seg.iter().enumerate() {
            if skip_zeros && av == 0.0 {
                continue;
            }
            let out_row = &mut out[k_local * n..k_local * n + n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// [`matmul_rows_saxpy`]'s product through the explicit-SIMD tile kernel
/// when this CPU has one, else the saxpy body itself — bit-identical either
/// way, so selecting [`KernelBackend::Simd`] is always safe.
fn matmul_rows_simd(
    ad: &[f32],
    kk: usize,
    bd: &[f32],
    n: usize,
    first_row: usize,
    out: &mut [f32],
    skip_zeros: bool,
) {
    #[cfg(target_arch = "x86_64")]
    match simd_level() {
        SimdLevel::Avx512 => {
            // SAFETY: simd_level() observed AVX-512F via runtime detection,
            // satisfying the target_feature precondition; the slice/dims
            // contract (`ad` holds rows of length `kk` from `first_row`,
            // `bd` is `kk x n` row-major, `out.len()` a multiple of `n`) is
            // the same one the scalar kernel is called under.
            return unsafe { x86::matmul_rows_avx512(ad, kk, bd, n, first_row, out, skip_zeros) };
        }
        SimdLevel::Avx2 => {
            // SAFETY: simd_level() observed AVX2 via runtime detection;
            // slice/dims contract as above.
            return unsafe { x86::matmul_rows_avx2(ad, kk, bd, n, first_row, out, skip_zeros) };
        }
        SimdLevel::None => {}
    }
    matmul_rows_saxpy(ad, kk, bd, n, first_row, out, skip_zeros)
}

/// [`t_matmul_rows`] through the explicit-SIMD saxpy kernel when this CPU
/// has one, else the scalar body — bit-identical either way.
#[allow(clippy::too_many_arguments)] // slice+dims boundary, see matmul_rows_saxpy
fn t_matmul_rows_simd(
    ad: &[f32],
    kk: usize,
    bd: &[f32],
    n: usize,
    samples: usize,
    first_row: usize,
    out: &mut [f32],
    skip_zeros: bool,
) {
    #[cfg(target_arch = "x86_64")]
    match simd_level() {
        SimdLevel::Avx512 => {
            // SAFETY: simd_level() observed AVX-512F via runtime detection,
            // satisfying the target_feature precondition; the slice/dims
            // contract (`ad` column-major `kk x samples` from `first_row`,
            // `bd` is `kk x n` row-major, `out.len()` a multiple of `n`) is
            // the same one the scalar kernel is called under.
            return unsafe {
                x86::t_matmul_rows_avx512(ad, kk, bd, n, samples, first_row, out, skip_zeros)
            };
        }
        SimdLevel::Avx2 => {
            // SAFETY: simd_level() observed AVX2 via runtime detection;
            // slice/dims contract as above.
            return unsafe {
                x86::t_matmul_rows_avx2(ad, kk, bd, n, samples, first_row, out, skip_zeros)
            };
        }
        SimdLevel::None => {}
    }
    t_matmul_rows(ad, kk, bd, n, samples, first_row, out, skip_zeros)
}

/// Explicit `core::arch::x86_64` kernels (AVX2 and AVX-512F).
///
/// The bit-identity recipe, shared by every function here:
///
/// * **lanes are output columns** — lane `l` of an accumulator vector owns
///   output element `j0 + l` and nothing else, so there is no horizontal
///   reduction anywhere and no operand reassociation to worry about;
/// * per ascending-`k` step each lane performs exactly `mul` then `add`
///   (`_mm256_mul_ps` + `_mm256_add_ps`, never an FMA, whose single
///   rounding would differ from the scalar two-rounding sequence);
/// * packed x86 `mulps`/`addps` follow the same IEEE-754 and NaN
///   propagation rules as their scalar `mulss`/`addss` forms, so non-finite
///   inputs produce the same bits lane-wise;
/// * the sparse zero-skip is decided per `(row, k)` on the scalar `a` value,
///   exactly like the reference kernel;
/// * column tails (`n % NR`) run `matmul_row_tail`'s register
///   accumulators and row tails (`rows % MR`) run one-row blocks, both in
///   the same per-element order.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    /// Rows per register micro-tile.
    const MR: usize = 4;
    /// Columns per register micro-tile: two 8-lane AVX2 vectors or one
    /// 16-lane AVX-512 vector.
    const NR: usize = 16;

    /// The dynamic-width last column tile of a row block (columns `j0..n`,
    /// `n - j0 < NR`), shared by the AVX2 and AVX-512 kernels — register
    /// accumulators, ascending `k`, the scalar zero-skip decision per
    /// `(row, k)`.
    // lint: hot-path
    fn matmul_row_tail<const M: usize>(
        a_rows: [&[f32]; M],
        bd: &[f32],
        kk: usize,
        n: usize,
        j0: usize,
        out: &mut [f32],
        skip_zeros: bool,
    ) {
        let jw = n - j0;
        debug_assert!(jw < NR);
        let mut acc = [[0.0f32; NR]; M];
        for k in 0..kk {
            let bt = &bd[k * n + j0..k * n + j0 + jw];
            for (acc_row, a_row) in acc.iter_mut().zip(&a_rows) {
                let av = a_row[k];
                if skip_zeros && av == 0.0 {
                    continue;
                }
                for (o, &bv) in acc_row[..jw].iter_mut().zip(bt) {
                    *o += av * bv;
                }
            }
        }
        for (i, acc_row) in acc.iter().enumerate() {
            out[i * n + j0..i * n + j0 + jw].copy_from_slice(&acc_row[..jw]);
        }
    }

    /// AVX2 `matmul` over a row chunk: `MR`-row blocks × `NR`-column tiles,
    /// two 256-bit accumulators per row.
    ///
    /// # Safety
    /// AVX2 must be available (callers dispatch on runtime detection).
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn matmul_rows_avx2(
        ad: &[f32],
        kk: usize,
        bd: &[f32],
        n: usize,
        first_row: usize,
        out: &mut [f32],
        skip_zeros: bool,
    ) {
        if n == 0 {
            return;
        }
        let rows = out.len() / n;
        let a_row = |r: usize| -> &[f32] { &ad[r * kk..(r + 1) * kk] };
        let mut r = 0;
        while r + MR <= rows {
            let a_rows: [&[f32]; MR] = std::array::from_fn(|i| a_row(first_row + r + i));
            row_block_avx2::<MR>(a_rows, bd, kk, n, &mut out[r * n..(r + MR) * n], skip_zeros);
            r += MR;
        }
        while r < rows {
            row_block_avx2::<1>(
                [a_row(first_row + r)],
                bd,
                kk,
                n,
                &mut out[r * n..(r + 1) * n],
                skip_zeros,
            );
            r += 1;
        }
    }

    /// `M` rows of `a @ b` with two `__m256` accumulators per row (one
    /// `NR = 16` column tile). Per output element: ascending `k`, one `mul`
    /// and one `add`, the scalar zero-skip decision per `(row, k)`.
    ///
    /// # Safety
    /// AVX2 must be available (the public entry points dispatch on runtime
    /// detection). Bounds preconditions backing the `get_unchecked`/raw
    /// pointer reads: every `a_rows[i]` has length `kk`, `bd` has length
    /// `kk * n`, and `out` has length `M * n` — all established by the
    /// callers' row slicing.
    // lint: hot-path
    #[target_feature(enable = "avx2")]
    #[allow(clippy::needless_range_loop)] // lockstep over three register arrays
    unsafe fn row_block_avx2<const M: usize>(
        a_rows: [&[f32]; M],
        bd: &[f32],
        kk: usize,
        n: usize,
        out: &mut [f32],
        skip_zeros: bool,
    ) {
        let bp = bd.as_ptr();
        let mut j0 = 0;
        while j0 + NR <= n {
            let mut acc_lo = [_mm256_setzero_ps(); M];
            let mut acc_hi = [_mm256_setzero_ps(); M];
            for k in 0..kk {
                let tile = bp.add(k * n + j0);
                let b_lo = _mm256_loadu_ps(tile);
                let b_hi = _mm256_loadu_ps(tile.add(8));
                for i in 0..M {
                    let av = *a_rows[i].get_unchecked(k);
                    if skip_zeros && av == 0.0 {
                        continue;
                    }
                    let va = _mm256_set1_ps(av);
                    acc_lo[i] = _mm256_add_ps(acc_lo[i], _mm256_mul_ps(va, b_lo));
                    acc_hi[i] = _mm256_add_ps(acc_hi[i], _mm256_mul_ps(va, b_hi));
                }
            }
            for i in 0..M {
                let op = out.as_mut_ptr().add(i * n + j0);
                _mm256_storeu_ps(op, acc_lo[i]);
                _mm256_storeu_ps(op.add(8), acc_hi[i]);
            }
            j0 += NR;
        }
        if j0 < n {
            matmul_row_tail(a_rows, bd, kk, n, j0, out, skip_zeros);
        }
    }

    /// AVX-512F `matmul` over a row chunk: one 512-bit accumulator per row
    /// covers a full `NR = 16` column tile.
    ///
    /// # Safety
    /// AVX-512F must be available (callers dispatch on runtime detection).
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn matmul_rows_avx512(
        ad: &[f32],
        kk: usize,
        bd: &[f32],
        n: usize,
        first_row: usize,
        out: &mut [f32],
        skip_zeros: bool,
    ) {
        if n == 0 {
            return;
        }
        let rows = out.len() / n;
        let a_row = |r: usize| -> &[f32] { &ad[r * kk..(r + 1) * kk] };
        let mut r = 0;
        while r + MR <= rows {
            let a_rows: [&[f32]; MR] = std::array::from_fn(|i| a_row(first_row + r + i));
            row_block_avx512::<MR>(a_rows, bd, kk, n, &mut out[r * n..(r + MR) * n], skip_zeros);
            r += MR;
        }
        while r < rows {
            row_block_avx512::<1>(
                [a_row(first_row + r)],
                bd,
                kk,
                n,
                &mut out[r * n..(r + 1) * n],
                skip_zeros,
            );
            r += 1;
        }
    }

    /// # Safety
    /// AVX-512F must be available (the public entry points dispatch on
    /// runtime detection). Bounds preconditions backing the
    /// `get_unchecked`/raw pointer reads: every `a_rows[i]` has length
    /// `kk`, `bd` has length `kk * n`, and `out` has length `M * n` — all
    /// established by the callers' row slicing.
    // lint: hot-path
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::needless_range_loop)] // lockstep over two register arrays
    unsafe fn row_block_avx512<const M: usize>(
        a_rows: [&[f32]; M],
        bd: &[f32],
        kk: usize,
        n: usize,
        out: &mut [f32],
        skip_zeros: bool,
    ) {
        let bp = bd.as_ptr();
        let mut j0 = 0;
        while j0 + NR <= n {
            let mut acc = [_mm512_setzero_ps(); M];
            for k in 0..kk {
                let b = _mm512_loadu_ps(bp.add(k * n + j0));
                for i in 0..M {
                    let av = *a_rows[i].get_unchecked(k);
                    if skip_zeros && av == 0.0 {
                        continue;
                    }
                    acc[i] = _mm512_add_ps(acc[i], _mm512_mul_ps(_mm512_set1_ps(av), b));
                }
            }
            for i in 0..M {
                _mm512_storeu_ps(out.as_mut_ptr().add(i * n + j0), acc[i]);
            }
            j0 += NR;
        }
        if j0 < n {
            matmul_row_tail(a_rows, bd, kk, n, j0, out, skip_zeros);
        }
    }

    /// AVX2 `t_matmul` over a row chunk: the reference sample-major saxpy
    /// with its inner column loop vectorized (each lane owns one output
    /// column; accumulation per element stays ascending sample order `r`).
    ///
    /// # Safety
    /// AVX2 must be available (callers dispatch on runtime detection).
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn t_matmul_rows_avx2(
        ad: &[f32],
        kk: usize,
        bd: &[f32],
        n: usize,
        samples: usize,
        first_row: usize,
        out: &mut [f32],
        skip_zeros: bool,
    ) {
        if n == 0 {
            return;
        }
        let rows_here = out.len() / n;
        if rows_here == 0 {
            return;
        }
        for r in 0..samples {
            let a_seg = &ad[r * kk + first_row..r * kk + first_row + rows_here];
            let b_row = bd.as_ptr().add(r * n);
            for (k_local, &av) in a_seg.iter().enumerate() {
                if skip_zeros && av == 0.0 {
                    continue;
                }
                let out_row = &mut out[k_local * n..k_local * n + n];
                let op = out_row.as_mut_ptr();
                let va = _mm256_set1_ps(av);
                let mut j = 0;
                while j + 8 <= n {
                    let o = _mm256_loadu_ps(op.add(j));
                    let b = _mm256_loadu_ps(b_row.add(j));
                    _mm256_storeu_ps(op.add(j), _mm256_add_ps(o, _mm256_mul_ps(va, b)));
                    j += 8;
                }
                while j < n {
                    *op.add(j) += av * *b_row.add(j);
                    j += 1;
                }
            }
        }
    }

    /// AVX-512F `t_matmul` over a row chunk (16-lane inner loop, then the
    /// scalar column tail).
    ///
    /// # Safety
    /// AVX-512F must be available (callers dispatch on runtime detection).
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn t_matmul_rows_avx512(
        ad: &[f32],
        kk: usize,
        bd: &[f32],
        n: usize,
        samples: usize,
        first_row: usize,
        out: &mut [f32],
        skip_zeros: bool,
    ) {
        if n == 0 {
            return;
        }
        let rows_here = out.len() / n;
        if rows_here == 0 {
            return;
        }
        for r in 0..samples {
            let a_seg = &ad[r * kk + first_row..r * kk + first_row + rows_here];
            let b_row = bd.as_ptr().add(r * n);
            for (k_local, &av) in a_seg.iter().enumerate() {
                if skip_zeros && av == 0.0 {
                    continue;
                }
                let out_row = &mut out[k_local * n..k_local * n + n];
                let op = out_row.as_mut_ptr();
                let va = _mm512_set1_ps(av);
                let mut j = 0;
                while j + 16 <= n {
                    let o = _mm512_loadu_ps(op.add(j));
                    let b = _mm512_loadu_ps(b_row.add(j));
                    _mm512_storeu_ps(op.add(j), _mm512_add_ps(o, _mm512_mul_ps(va, b)));
                    j += 16;
                }
                while j < n {
                    *op.add(j) += av * *b_row.add(j);
                    j += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(rows: usize, cols: usize, f: impl FnMut(usize, usize) -> f32) -> Matrix {
        Matrix::from_fn(rows, cols, f)
    }

    fn assert_bits_eq(want: &Matrix, got: &Matrix, what: &str) {
        assert_eq!(want.shape(), got.shape(), "{what}: shape");
        for (i, (w, g)) in want.as_slice().iter().zip(got.as_slice()).enumerate() {
            assert_eq!(
                w.to_bits(),
                g.to_bits(),
                "{what}: element {i} differs ({w} vs {g})"
            );
        }
    }

    #[test]
    fn parallelism_clamps_worker_counts() {
        assert_eq!(Parallelism::threads(0).thread_count(), 1);
        assert!(Parallelism::serial().is_serial());
        assert!(Parallelism::auto().thread_count() >= 1);
        // Small work stays serial under a plain hint, threads under exact.
        assert_eq!(Parallelism::threads(8).workers(100, 1000), 1);
        assert_eq!(Parallelism::exact_threads(8).workers(100, 1000), 8);
        assert_eq!(Parallelism::exact_threads(8).workers(3, 1000), 3);
        assert_eq!(Parallelism::threads(8).workers(100, 64_000_000), 8);
    }

    #[test]
    fn backend_parsing_and_labels_roundtrip() {
        for b in [KernelBackend::Scalar, KernelBackend::Simd] {
            assert_eq!(KernelBackend::parse(b.label()), Some(b));
        }
        assert_eq!(KernelBackend::parse(" SIMD "), Some(KernelBackend::Simd));
        assert_eq!(KernelBackend::parse("auto"), Some(KernelBackend::detect()));
        assert_eq!(KernelBackend::parse("mmx"), None);
        // detect() picks Simd exactly when the CPU has it.
        assert_eq!(
            KernelBackend::detect() == KernelBackend::Simd,
            KernelBackend::simd_available()
        );
        assert!(["avx512", "avx2", "none"].contains(&KernelBackend::simd_support()));
    }

    #[test]
    fn backend_pin_survives_serial_worker() {
        let pinned = Parallelism::threads(2).with_backend(KernelBackend::Scalar);
        assert_eq!(pinned.backend(), KernelBackend::Scalar);
        // Unpinned resolves the process default.
        assert_eq!(
            Parallelism::serial().backend(),
            KernelBackend::default_backend()
        );
        let worker = pinned.serial_worker();
        assert!(worker.is_serial());
        assert_eq!(worker.backend(), KernelBackend::Scalar);
    }

    #[test]
    fn every_backend_matches_scalar_reference() {
        let a = filled(11, 19, |r, c| {
            if (r + c) % 3 == 0 {
                0.0
            } else {
                (r as f32).mul_add(0.7, -(c as f32) * 0.2)
            }
        });
        let b = filled(19, 18, |r, c| (r as f32 - c as f32) * 0.05);
        let want_mm = a.matmul(&b);
        let bt = b.transpose();
        let want_mmt = a.matmul_t(&bt);
        let at = a.transpose();
        let want_tmm = at.t_matmul(&b);
        for backend in [KernelBackend::Scalar, KernelBackend::Simd] {
            for t in [1, 3] {
                let par = Parallelism::exact_threads(t).with_backend(backend);
                let what = format!("{}/t={t}", backend.label());
                assert_bits_eq(&want_mm, &a.matmul_with(&b, par), &format!("matmul {what}"));
                assert_bits_eq(
                    &want_mmt,
                    &a.matmul_t_with(&bt, par),
                    &format!("matmul_t {what}"),
                );
                assert_bits_eq(
                    &want_tmm,
                    &at.t_matmul_with(&b, par),
                    &format!("t_matmul {what}"),
                );
            }
        }
    }

    #[test]
    fn default_backend_matches_scalar_on_mixed_shapes() {
        for (m, k, n) in [(1, 1, 1), (3, 5, 2), (9, 13, 17), (4, 8, 8), (7, 3, 9)] {
            let a = filled(m, k, |r, c| {
                if (r + c) % 3 == 0 {
                    0.0
                } else {
                    (r as f32 - 0.5) * 0.3 + c as f32 * 0.1
                }
            });
            let b = filled(k, n, |r, c| (r * n + c) as f32 * 0.01 - 0.7);
            assert_bits_eq(
                &a.matmul(&b),
                &a.matmul_with(&b, Parallelism::serial()),
                "matmul",
            );
            let bt = b.transpose();
            assert_bits_eq(
                &a.matmul_t(&bt),
                &a.matmul_t_with(&bt, Parallelism::serial()),
                "matmul_t",
            );
            let at = a.transpose();
            assert_bits_eq(
                &at.t_matmul(&b),
                &at.t_matmul_with(&b, Parallelism::serial()),
                "t_matmul",
            );
        }
    }

    #[test]
    fn threaded_matches_scalar_for_every_worker_count() {
        let a = filled(13, 21, |r, c| if c % 4 == 0 { 0.0 } else { (r + c) as f32 });
        let b = filled(21, 10, |r, c| (r as f32 - c as f32) * 0.25);
        let want = a.matmul(&b);
        for t in [1, 2, 3, 4, 7, 16] {
            assert_bits_eq(
                &want,
                &a.matmul_with(&b, Parallelism::exact_threads(t)),
                "threads",
            );
        }
    }

    #[test]
    fn degenerate_shapes_are_handled() {
        let a = Matrix::zeros(0, 4);
        let b = Matrix::zeros(4, 3);
        assert_eq!(
            a.matmul_with(&b, Parallelism::exact_threads(4)).shape(),
            (0, 3)
        );
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 2);
        let c = a.matmul_with(&b, Parallelism::exact_threads(2));
        assert_eq!(c.shape(), (3, 2));
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
        let a = Matrix::zeros(2, 5);
        let b = Matrix::zeros(5, 0);
        assert_eq!(
            a.matmul_with(&b, Parallelism::exact_threads(2)).shape(),
            (2, 0)
        );
    }

    #[test]
    fn nonfinite_inputs_propagate_identically() {
        let a = filled(5, 6, |r, c| match (r + c) % 4 {
            0 => 0.0,
            1 => 1.5,
            _ => -0.25,
        });
        let mut b = filled(6, 5, |r, c| (r * 5 + c) as f32 * 0.1);
        b.set(2, 3, f32::NAN);
        b.set(4, 0, f32::INFINITY);
        let want = a.matmul(&b);
        assert!(want.as_slice().iter().any(|v| v.is_nan()));
        for t in [1, 2, 4] {
            assert_bits_eq(
                &want,
                &a.matmul_with(&b, Parallelism::exact_threads(t)),
                "nan matmul",
            );
        }
    }
}
