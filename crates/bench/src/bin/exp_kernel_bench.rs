//! `exp_kernel_bench`: compute-kernel benchmark and bit-identity gate.
//!
//! Measures the kernel tiers — scalar reference, cache-blocked, explicit
//! SIMD (AVX2/AVX-512 runtime dispatch), and best-backend + row-partitioned
//! threads — on model-shaped matrix products (GFLOP/s), then at the system
//! level:
//!
//! * **train-epoch** wall clock, serial vs. threaded trainer — and the
//!   trained parameter stores must be *bit-identical* (same RNG schedule,
//!   same bits per kernel call, therefore same weights);
//! * **batch-estimate** wall clock through `estimate_batch` on a serial
//!   vs. threaded estimator (`set_parallelism`), and on one pinned to each
//!   backend, values compared bitwise;
//! * **evaluate fan-out**: `report::evaluate` vs `report::evaluate_par`.
//!
//! Writes `BENCH_kernels.json` (override the path with `CARDEST_BENCH_OUT`)
//! and exits non-zero when a gate fails:
//!
//! 1. every blocked/SIMD/threaded result must match the scalar kernels bit
//!    for bit (always enforced);
//! 2. with >1 hardware thread, the threaded paths must not be *slower* than
//!    scalar on the headline measurements (the CI gate at quick scale);
//! 3. on hosts with AVX2 (or better), the explicit-SIMD backend must not be
//!    slower than the blocked backend (best ratio across shapes, with a 5%
//!    noise tolerance).
//!
//! The ≥2× speedup target applies on a multi-core runner; the report prints
//! where each measurement landed. Honors `CARDEST_SCALE` (`quick` | `full`).

use cardest_bench::{report, Scale};
use cardest_core::model::CardNetConfig;
use cardest_core::train::{train_cardnet, Trainer, TrainerOptions};
use cardest_core::{
    CardNetEstimator, CardinalityEstimator, KernelBackend, Parallelism, PreparedQuery,
};
use cardest_data::synth::{hm_imagenet, SynthConfig};
use cardest_data::Workload;
use cardest_fx::build_extractor;
use cardest_nn::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

struct KernelRow {
    name: &'static str,
    m: usize,
    k: usize,
    n: usize,
    /// Whether the left operand is binary-sparse — those shapes route every
    /// backend through the same zero-skipping saxpy order, so their
    /// simd-vs-blocked ratio says nothing about the tile kernels.
    sparse: bool,
    scalar_gflops: f64,
    blocked_gflops: f64,
    simd_gflops: f64,
    threaded_gflops: f64,
}

impl KernelRow {
    fn threaded_speedup(&self) -> f64 {
        self.threaded_gflops / self.scalar_gflops.max(1e-12)
    }

    fn simd_vs_blocked(&self) -> f64 {
        self.simd_gflops / self.blocked_gflops.max(1e-12)
    }
}

struct WallClockRow {
    name: &'static str,
    serial_s: f64,
    threaded_s: f64,
}

impl WallClockRow {
    fn speedup(&self) -> f64 {
        self.serial_s / self.threaded_s.max(1e-12)
    }
}

fn main() -> ExitCode {
    let scale = Scale::from_env();
    let threads = Parallelism::auto().thread_count();
    let simd_active = KernelBackend::simd_available();
    eprintln!(
        "# exp_kernel_bench (scalar vs blocked vs simd vs threaded kernels), scale = {}, \
         {} hardware threads, simd = {} (default backend: {})",
        scale.label(),
        threads,
        KernelBackend::simd_support(),
        KernelBackend::default_backend().label(),
    );

    // Bit-identity breaks and performance-gate misses are tracked apart:
    // both fail the run, but only the former flips the JSON's
    // `bit_identity_pass` (a slow runner must never read as a determinism
    // break).
    let mut identity_failures: Vec<String> = Vec::new();
    let mut failures: Vec<String> = Vec::new();

    // ── 1. Kernel microbench + bit-identity on model-shaped products ─────
    let shapes: &[(&'static str, usize, usize, usize, bool)] = if scale.label() == "full" {
        &[
            ("train-minibatch", 64, 176, 96, true),
            ("batch-estimate", 256, 176, 96, true),
            ("dense-large", 384, 256, 256, false),
        ]
    } else {
        &[
            ("train-minibatch", 64, 176, 96, true),
            ("batch-estimate", 256, 176, 96, true),
            ("dense-large", 256, 256, 192, false),
        ]
    };
    let par = Parallelism::threads(threads);
    let pin_blocked = Parallelism::serial().with_backend(KernelBackend::Blocked);
    let pin_simd = Parallelism::serial().with_backend(KernelBackend::Simd);
    let mut kernel_rows: Vec<KernelRow> = Vec::new();
    println!("## matmul kernels (GFLOP/s, best of 5)\n");
    println!(
        "{:<16} {:>14} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "shape", "m×k×n", "scalar", "blocked", "simd", "threaded", "speedup"
    );
    for &(name, m, k, n, sparse) in shapes {
        let a = if sparse {
            // Binary-sparse left operand, like extracted features.
            Matrix::from_fn(m, k, |r, c| f32::from(u8::from((r * 13 + c * 7) % 4 == 0)))
        } else {
            let mut rng = StdRng::seed_from_u64(11);
            Matrix::from_fn(m, k, |_, _| rng.gen_range(-1.0f32..1.0))
        };
        let mut rng = StdRng::seed_from_u64(23);
        let b = Matrix::from_fn(k, n, |_, _| rng.gen_range(-1.0f32..1.0));

        let reference = a.matmul(&b);
        for (label, p) in [
            (
                "scalar-backend",
                Parallelism::serial().with_backend(KernelBackend::Scalar),
            ),
            ("blocked", pin_blocked),
            ("simd", pin_simd),
            (
                "simd threads=2",
                Parallelism::exact_threads(2).with_backend(KernelBackend::Simd),
            ),
            ("threaded", par),
            ("threads=2", Parallelism::exact_threads(2)),
        ] {
            let got = a.matmul_with(&b, p);
            if !bits_equal(&reference, &got) {
                identity_failures.push(format!("{name}: {label} matmul diverged from scalar"));
            }
        }
        // The other two products are gated here too (the proptests cover
        // them at small shapes; this is the benchmark-scale check).
        let bt = b.transpose();
        let at = a.transpose();
        let want_mt = a.matmul_t(&bt);
        let want_tm = at.t_matmul(&b);
        for (label, p) in [
            ("blocked", pin_blocked),
            ("simd", pin_simd),
            ("threaded", par),
        ] {
            if !bits_equal(&want_mt, &a.matmul_t_with(&bt, p)) {
                identity_failures.push(format!("{name}: {label} matmul_t diverged from scalar"));
            }
            if !bits_equal(&want_tm, &at.t_matmul_with(&b, p)) {
                identity_failures.push(format!("{name}: {label} t_matmul diverged from scalar"));
            }
        }

        let flops = 2.0 * (m * k * n) as f64;
        let scalar = best_gflops(flops, || std::hint::black_box(a.matmul(&b)));
        let blocked = best_gflops(flops, || {
            std::hint::black_box(a.matmul_with(&b, pin_blocked))
        });
        let simd = best_gflops(flops, || std::hint::black_box(a.matmul_with(&b, pin_simd)));
        let threaded = best_gflops(flops, || std::hint::black_box(a.matmul_with(&b, par)));
        let row = KernelRow {
            name,
            m,
            k,
            n,
            sparse,
            scalar_gflops: scalar,
            blocked_gflops: blocked,
            simd_gflops: simd,
            threaded_gflops: threaded,
        };
        println!(
            "{:<16} {:>14} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>8.2}x",
            row.name,
            format!("{m}x{k}x{n}"),
            row.scalar_gflops,
            row.blocked_gflops,
            row.simd_gflops,
            row.threaded_gflops,
            row.threaded_speedup()
        );
        kernel_rows.push(row);
    }

    // ── 2. Train-epoch wall clock, serial vs threaded (same bits out) ────
    let ds = hm_imagenet(SynthConfig::new(scale.n_records.min(1500), scale.seed));
    let fx = build_extractor(&ds, scale.tau_max, 1);
    let split = Workload::sample_from(&ds, 0.20, 10, 3).split(5);
    let cfg = CardNetConfig::new(fx.dim(), fx.tau_max() + 1);
    let epochs = if scale.label() == "full" { 4 } else { 2 };
    let train_opts = |threads: usize| TrainerOptions {
        epochs,
        vae_epochs: 1,
        threads,
        ..TrainerOptions::quick()
    };

    let t0 = Instant::now();
    let (serial_trainer, _) = train_cardnet(
        fx.as_ref(),
        &split.train,
        &split.valid,
        cfg.clone(),
        train_opts(1),
    );
    let serial_train_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let (threaded_trainer, _) = train_cardnet(
        fx.as_ref(),
        &split.train,
        &split.valid,
        cfg.clone(),
        train_opts(threads),
    );
    let threaded_train_s = t0.elapsed().as_secs_f64();
    if !stores_equal(&serial_trainer, &threaded_trainer) {
        identity_failures.push("threaded training produced different weights than serial".into());
    }
    let train_row = WallClockRow {
        name: "train-epochs",
        serial_s: serial_train_s,
        threaded_s: threaded_train_s,
    };
    println!(
        "\n## training ({} epochs): serial {:.2}s, threaded({}) {:.2}s — {:.2}x, weights bit-identical: {}",
        epochs,
        train_row.serial_s,
        threads,
        train_row.threaded_s,
        train_row.speedup(),
        stores_equal(&serial_trainer, &threaded_trainer),
    );

    // ── 3. Batch-estimate wall clock through the estimator API ───────────
    let mut est = CardNetEstimator::from_trainer(fx, serial_trainer);
    let batch_size = if scale.label() == "full" { 512 } else { 256 };
    let queries: Vec<_> = (0..batch_size)
        .map(|i| ds.records[(i * 31) % ds.len()].clone())
        .collect();
    let thetas: Vec<f64> = (0..batch_size)
        .map(|i| ds.theta_max * (i % 17) as f64 / 16.0)
        .collect();
    let prepared: Vec<PreparedQuery> = queries.iter().map(|q| est.prepare(q)).collect();
    let refs: Vec<&PreparedQuery> = prepared.iter().collect();

    let serial_values = est.estimate_batch(&refs, &thetas);
    let same_bits = |values: &[cardest_core::Estimate]| {
        serial_values
            .iter()
            .zip(values)
            .all(|(a, b)| a.value.to_bits() == b.value.to_bits())
    };
    est.set_parallelism(par);
    let batch_identical = same_bits(&est.estimate_batch(&refs, &thetas));
    if !batch_identical {
        identity_failures.push("threaded estimate_batch diverged from serial".into());
    }
    // Every pinned backend serves the same bits through the batched path.
    for backend in [
        KernelBackend::Scalar,
        KernelBackend::Blocked,
        KernelBackend::Simd,
    ] {
        est.set_parallelism(Parallelism::serial().with_backend(backend));
        if !same_bits(&est.estimate_batch(&refs, &thetas)) {
            identity_failures.push(format!(
                "estimate_batch on {} diverged from serial",
                backend.label()
            ));
        }
    }
    est.set_parallelism(par);
    let threaded_batch_s = best_seconds(3, || {
        std::hint::black_box(est.estimate_batch(&refs, &thetas));
    });
    est.set_parallelism(Parallelism::serial());
    let serial_batch_s = best_seconds(3, || {
        std::hint::black_box(est.estimate_batch(&refs, &thetas));
    });
    let batch_row = WallClockRow {
        name: "batch-estimate",
        serial_s: serial_batch_s,
        threaded_s: threaded_batch_s,
    };
    println!(
        "## batch-estimate ({batch_size} queries): serial {:.4}s, threaded {:.4}s — {:.2}x, bit-identical: {batch_identical}",
        batch_row.serial_s,
        batch_row.threaded_s,
        batch_row.speedup(),
    );

    // ── 4. evaluate fan-out ──────────────────────────────────────────────
    let serial_acc = report::evaluate(&est, &split.test);
    let par_acc = report::evaluate_par(&est, &split.test, threads);
    let eval_identical = serial_acc.mse.to_bits() == par_acc.mse.to_bits()
        && serial_acc.mean_q_error.to_bits() == par_acc.mean_q_error.to_bits();
    if !eval_identical {
        identity_failures.push("evaluate_par accuracy diverged from serial evaluate".into());
    }
    let serial_eval_s = best_seconds(3, || {
        std::hint::black_box(report::evaluate(&est, &split.test));
    });
    let par_eval_s = best_seconds(3, || {
        std::hint::black_box(report::evaluate_par(&est, &split.test, threads));
    });
    let eval_row = WallClockRow {
        name: "evaluate",
        serial_s: serial_eval_s,
        threaded_s: par_eval_s,
    };
    println!(
        "## evaluate ({} queries): serial {:.4}s, fan-out {:.4}s — {:.2}x, bit-identical: {eval_identical}",
        split.test.len(),
        eval_row.serial_s,
        eval_row.threaded_s,
        eval_row.speedup(),
    );

    // ── Gates ────────────────────────────────────────────────────────────
    let best_wall_speedup = [&train_row, &batch_row, &eval_row]
        .iter()
        .map(|r| r.speedup())
        .fold(0.0f64, f64::max);
    let best_kernel_speedup = kernel_rows
        .iter()
        .map(KernelRow::threaded_speedup)
        .fold(0.0f64, f64::max);
    if threads > 1 {
        // The CI gate: threading must never be a slowdown at quick scale.
        // Small tolerance absorbs wall-clock noise on loaded runners.
        if best_kernel_speedup < 0.95 {
            failures.push(format!(
                "threaded kernels slower than scalar: best speedup {best_kernel_speedup:.2}x"
            ));
        }
        if best_wall_speedup < 0.95 {
            failures.push(format!(
                "threaded train/estimate slower than serial: best speedup {best_wall_speedup:.2}x"
            ));
        }
    }
    // The SIMD gate: on AVX2-capable hosts the explicit-SIMD backend must
    // not lose to the blocked one, judged on the **dense** shapes only —
    // the sparse shapes route both backends through the identical saxpy
    // order (ratio ≈ 1 by construction), so including them would let a
    // dense-tile regression hide behind a sparse-shape ratio. 5% tolerance
    // absorbs runner noise.
    let best_dense_simd_ratio = kernel_rows
        .iter()
        .filter(|r| !r.sparse)
        .map(KernelRow::simd_vs_blocked)
        .fold(f64::NAN, f64::max);
    if simd_active {
        println!(
            "simd backend ({}) vs blocked on dense shapes: best ratio {best_dense_simd_ratio:.2}x",
            KernelBackend::simd_support()
        );
        // NaN (no dense shape measured) must fail too.
        if best_dense_simd_ratio.is_nan() || best_dense_simd_ratio < 0.95 {
            failures.push(format!(
                "simd backend slower than blocked on an AVX2-capable host: \
                 best dense-shape ratio {best_dense_simd_ratio:.2}x"
            ));
        }
    } else {
        println!(
            "simd backend: no AVX2 on this host — dispatch fell back to blocked (gate skipped)"
        );
    }
    let two_x = best_wall_speedup >= 2.0 || best_kernel_speedup >= 2.0;
    println!(
        "\nbest kernel speedup {best_kernel_speedup:.2}x, best wall-clock speedup {best_wall_speedup:.2}x — ≥2x target {} ({} threads)",
        if two_x { "MET" } else { "not met on this machine" },
        threads,
    );

    // ── BENCH_kernels.json ───────────────────────────────────────────────
    let out_path =
        std::env::var("CARDEST_BENCH_OUT").unwrap_or_else(|_| "BENCH_kernels.json".into());
    let json = render_json(
        &scale,
        threads,
        &kernel_rows,
        &[&train_row, &batch_row, &eval_row],
        identity_failures.is_empty(),
        two_x,
        simd_active,
    );
    if let Err(e) = std::fs::write(&out_path, json) {
        failures.push(format!("cannot write {out_path}: {e}"));
    } else {
        println!("wrote {out_path}");
    }

    if identity_failures.is_empty() && failures.is_empty() {
        println!("\nPASS: kernels bit-identical; threading is not a slowdown");
        ExitCode::SUCCESS
    } else {
        for f in identity_failures.iter().chain(&failures) {
            eprintln!("FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}

/// Best-of-5 GFLOP/s for `run`, auto-scaling the iteration count so each
/// sample spends a few tens of milliseconds.
fn best_gflops(flops_per_call: f64, mut run: impl FnMut() -> Matrix) -> f64 {
    // Calibrate.
    let t0 = Instant::now();
    run();
    let once = t0.elapsed().as_secs_f64().max(1e-6);
    let iters = ((0.03 / once) as usize).clamp(1, 2000);
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        for _ in 0..iters {
            run();
        }
        best = best.min(t0.elapsed().as_secs_f64() / iters as f64);
    }
    flops_per_call / best / 1e9
}

/// Best wall-clock seconds over `reps` runs of `run`.
fn best_seconds(reps: usize, mut run: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        run();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn bits_equal(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Bitwise equality of every parameter matrix in two trainers' stores.
fn stores_equal(a: &Trainer, b: &Trainer) -> bool {
    let (sa, sb) = (&a.store, &b.store);
    if sa.len() != sb.len() {
        return false;
    }
    sa.ids()
        .zip(sb.ids())
        .all(|(ia, ib)| sa.name(ia) == sb.name(ib) && bits_equal(sa.value(ia), sb.value(ib)))
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    scale: &Scale,
    threads: usize,
    kernels: &[KernelRow],
    walls: &[&WallClockRow],
    bit_identity_pass: bool,
    two_x_met: bool,
    simd_active: bool,
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"scale\": \"{}\",", scale.label());
    let _ = writeln!(s, "  \"hardware_threads\": {threads},");
    let _ = writeln!(
        s,
        "  \"simd_support\": \"{}\",",
        KernelBackend::simd_support()
    );
    let _ = writeln!(s, "  \"simd_active\": {simd_active},");
    let _ = writeln!(
        s,
        "  \"default_backend\": \"{}\",",
        KernelBackend::default_backend().label()
    );
    let _ = writeln!(s, "  \"bit_identity_pass\": {bit_identity_pass},");
    let _ = writeln!(s, "  \"speedup_2x_met\": {two_x_met},");
    let _ = writeln!(s, "  \"kernels\": [");
    for (i, r) in kernels.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"m\": {}, \"k\": {}, \"n\": {}, \
             \"scalar_gflops\": {:.4}, \"blocked_gflops\": {:.4}, \
             \"simd_gflops\": {:.4}, \"simd_vs_blocked\": {:.4}, \
             \"threaded_gflops\": {:.4}, \"threaded_speedup\": {:.4}}}{}",
            r.name,
            r.m,
            r.k,
            r.n,
            r.scalar_gflops,
            r.blocked_gflops,
            r.simd_gflops,
            r.simd_vs_blocked(),
            r.threaded_gflops,
            r.threaded_speedup(),
            if i + 1 < kernels.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"wall_clock\": [");
    for (i, r) in walls.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"serial_s\": {:.6}, \"threaded_s\": {:.6}, \
             \"speedup\": {:.4}}}{}",
            r.name,
            r.serial_s,
            r.threaded_s,
            r.speedup(),
            if i + 1 < walls.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}
