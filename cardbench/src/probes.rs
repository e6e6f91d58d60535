//! Per-layer probes of the traced run: direct, timed calls into one layer's
//! public API at the shapes the trained model actually uses.

use crate::report::Report;
use crate::spans::Spans;
use crate::stats;
use cardest_core::train::TrainReport;
use cardest_core::{CardNetEstimator, CardinalityEstimator, PreparedQuery};
use cardest_data::Record;
use cardest_fx::FeatureExtractor;
use cardest_nn::{Matrix, Parallelism};
use std::hint::black_box;
use std::time::Instant;

/// Records each probe runs over.
const PROBE_ROWS: usize = 256;
/// Calls per matmul shape, at least; more for fast shapes.
const MIN_KERNEL_SECONDS: f64 = 0.05;

fn elapsed_us(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64 / 1e3
}

/// Median `extract` time per record, µs, and the record count.
pub fn extract_us(fx: &dyn FeatureExtractor, records: &[Record]) -> (f64, usize) {
    let us: Vec<f64> = records
        .iter()
        .take(PROBE_ROWS)
        .map(|r| {
            let t0 = Instant::now();
            black_box(fx.extract(black_box(r)));
            elapsed_us(t0)
        })
        .collect();
    (stats::median(&us), us.len())
}

fn features(est: &CardNetEstimator, records: &[Record]) -> Matrix {
    let fx = est.extractor();
    let rows: Vec<f32> = records
        .iter()
        .flat_map(|r| fx.extract(r).to_f32())
        .collect();
    Matrix::from_vec(records.len(), fx.dim(), rows)
}

/// `model.encode_us`, `model.decode_us`, `estimator.features_us_per_row` and
/// `model.infer_batch_us_per_row`, pooled over the given models.
pub fn model_layers<'a>(
    models: impl Iterator<Item = (&'a CardNetEstimator, &'a [Record])>,
    rep: &mut Report,
) {
    let (mut enc, mut dec, mut feat, mut infer) = (vec![], vec![], vec![], vec![]);
    for (est, records) in models {
        let records = &records[..PROBE_ROWS.min(records.len())];
        let (model, store) = (est.model(), est.store());
        let tau = est.extractor().tau_max();
        for r in records.iter().take(64) {
            let x = features(est, std::slice::from_ref(r));
            let t0 = Instant::now();
            let z = black_box(model.encode_all_with(store, &x, Parallelism::serial()));
            enc.push(elapsed_us(t0));
            let t0 = Instant::now();
            black_box(model.decode_prefix(store, &z, tau));
            dec.push(elapsed_us(t0));
        }
        for _ in 0..4 {
            let t0 = Instant::now();
            let prepared: Vec<PreparedQuery> = records.iter().map(|r| est.prepare(r)).collect();
            feat.push(elapsed_us(t0) / records.len() as f64);
            black_box(prepared);
            let x = features(est, records);
            let t0 = Instant::now();
            black_box(model.infer_dist_batch_with(store, &x, est.parallelism()));
            infer.push(elapsed_us(t0) / records.len() as f64);
        }
    }
    let put = |rep: &mut Report, name: &str, v: &[f64], how: &str| {
        rep.metric(name, stats::median(v), "us", v.len(), how);
    };
    put(
        rep,
        "model.encode_us",
        &enc,
        "median, 1-row encode_all_with",
    );
    put(
        rep,
        "model.decode_us",
        &dec,
        "median, decode_prefix at tau_max",
    );
    put(
        rep,
        "estimator.features_us_per_row",
        &feat,
        "median, prepare x256",
    );
    put(
        rep,
        "model.infer_batch_us_per_row",
        &infer,
        "median, infer_dist_batch_with x256",
    );
}

/// `nn.matmul_gflops.{single,batch,train}`: `matmul_with` under the resolved
/// default backend, on the first Φ layer's shape (`[x ; VAE latent ; e]` ×
/// hidden) at 1, 256 and 64 rows; left operands carry the model's real
/// binary features, so the sparse/dense kernel choice is the production one.
pub fn matmul(est: &CardNetEstimator, records: &[Record], rep: &mut Report) {
    let cfg = &est.model().config;
    let latent = if cfg.vae_hidden.is_empty() {
        0
    } else {
        cfg.vae_latent
    };
    let k = cfg.input_dim + latent + cfg.e_dim;
    let n = cfg.phi_hidden.first().copied().unwrap_or(cfg.z_dim);
    let weights = Matrix::from_fn(k, n, |i, j| ((i * 31 + j * 17) % 23) as f32 / 23.0 - 0.5);
    for (label, m) in [("single", 1usize), ("batch", 256), ("train", 64)] {
        let x = features(est, &records[..m.min(records.len())]);
        let left = Matrix::from_fn(x.rows(), k, |i, j| {
            if j < cfg.input_dim {
                x.get(i, j)
            } else {
                ((i + j) % 7) as f32 / 7.0
            }
        });
        let (mut calls, t0) = (0usize, Instant::now());
        while calls < 20 || t0.elapsed().as_secs_f64() < MIN_KERNEL_SECONDS {
            black_box(left.matmul_with(black_box(&weights), Parallelism::serial()));
            calls += 1;
        }
        let flops = 2.0 * (left.rows() * k * n * calls) as f64;
        rep.metric(
            &format!("nn.matmul_gflops.{label}"),
            flops / t0.elapsed().as_secs_f64() / 1e9,
            "GFLOP/s",
            calls,
            &format!("{}x{k}x{n}", left.rows()),
        );
    }
}

/// `select.*` and `train.*` from the set-up spans and training reports,
/// averaged per corpus.
pub fn setup_layers(spans: &Spans, reports: &[&TrainReport], rep: &mut Report) {
    let n = reports.len().max(1) as f64;
    let mean_ms = |name: &str| {
        let d = spans.durations_us(name);
        d.iter().sum::<f64>() / 1e3 / d.len().max(1) as f64
    };
    rep.metric(
        "select.label_ms",
        mean_ms("select.label"),
        "ms",
        reports.len(),
        "per corpus",
    );
    rep.metric(
        "train.fit_s",
        mean_ms("train.fit") / 1e3,
        "s",
        reports.len(),
        "per corpus",
    );
    let epochs: f64 = reports.iter().map(|r| r.epochs_run as f64).sum::<f64>() / n;
    rep.metric(
        "train.epochs_run",
        epochs,
        "count",
        reports.len(),
        "per corpus",
    );
    let epoch_ms: f64 = reports
        .iter()
        .map(|r| r.train_seconds * 1e3 / r.epochs_run.max(1) as f64)
        .sum::<f64>()
        / n;
    rep.metric(
        "train.epoch_ms",
        epoch_ms,
        "ms",
        reports.len(),
        "per corpus, VAE pre-training included",
    );
    let msle: f64 = reports.iter().map(|r| r.best_val_msle).sum::<f64>() / n;
    rep.metric(
        "train.val_msle",
        msle,
        "ratio",
        reports.len(),
        "best validation MSLE, per corpus",
    );
}
