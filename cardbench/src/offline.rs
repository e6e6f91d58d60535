//! `estimate-offline`: one caller thread, no service, no cache, no socket.
//! Four corpora (HM, ED, JC, EU), CardNet trained on each; single-query
//! `estimate` over held-out queries × the threshold grid, alternating with
//! `prepare` + `estimate_batch` over batches of 256 fresh queries.

use crate::inputs::{self, Corpus};
use crate::probes;
use crate::report::Report;
use crate::setup::{self, Labelled};
use crate::spans::Spans;
use crate::stats;
use crate::RunConfig;
use cardest_core::metrics::ApiCounters;
use cardest_core::train::TrainReport;
use cardest_core::{CardNetEstimator, CardinalityEstimator, PreparedQuery};
use cardest_data::Record;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Rows per `estimate_batch` call.
pub const BATCH_ROWS: usize = 256;
/// Alternations of the single-query and batch phases within a run.
const ROUNDS: usize = 40;

/// One corpus with its labels and trained estimator.
pub struct Model {
    pub corpus: Corpus,
    pub labels: Labelled,
    pub est: CardNetEstimator,
    pub train: TrainReport,
}

/// Generates, labels and trains the four corpora.
pub fn setup(seed: u64, spans: &mut Spans, parent: Option<usize>) -> Vec<Model> {
    let corpora = spans.time("data.generate", parent, || inputs::four_corpora(seed));
    corpora
        .into_iter()
        .map(|corpus| {
            let labels = setup::label(&corpus, spans, parent);
            let trained = setup::train(&corpus, &labels, spans, parent);
            Model {
                est: CardNetEstimator::from_trainer(trained.fx, trained.trainer),
                train: trained.report,
                corpus,
                labels,
            }
        })
        .collect()
}

/// One `(corpus, held-out query, grid point)` of the single-query phase.
#[derive(Clone, Copy)]
struct Slot {
    model: usize,
    query: usize,
    grid: usize,
}

/// Every held-out slot, interleaved across corpora so any stretch of the
/// phase mixes the four distance domains in the same proportion.
fn slots(models: &[Model]) -> Vec<Slot> {
    let per_model: Vec<Vec<Slot>> = models
        .iter()
        .enumerate()
        .map(|(m, model)| {
            let n_grid = model.corpus.grid.len();
            (0..inputs::N_TIMED.min(model.corpus.heldout.len()) * n_grid)
                .map(|i| Slot {
                    model: m,
                    query: i / n_grid,
                    grid: i % n_grid,
                })
                .collect()
        })
        .collect();
    let longest = per_model.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest)
        .flat_map(|i| per_model.iter().filter_map(move |v| v.get(i).copied()))
        .collect()
}

/// Fresh batch queries: corpus records with grid thresholds, drawn from the
/// seed. Each batch prepares its queries anew.
fn batch_pool(models: &[Model], seed: u64) -> Vec<Vec<(usize, f64)>> {
    models
        .iter()
        .enumerate()
        .map(|(m, model)| {
            let mut rng = StdRng::seed_from_u64(inputs::mix(seed, 0xBA7 + m as u64));
            let ds = &model.corpus.dataset;
            (0..BATCH_ROWS * 16)
                .map(|_| {
                    let g = rng.gen_range(0..model.corpus.grid.len());
                    (rng.gen_range(0..ds.len()), model.corpus.grid[g])
                })
                .collect()
        })
        .collect()
}

/// What the measured phases produced.
#[derive(Default)]
struct Measured {
    /// Single-query latencies, µs, per round and corpus.
    single_us: Vec<Vec<Vec<f64>>>,
    /// Estimates per second of each batch phase window.
    batch_eps: Vec<f64>,
    batch_rows: usize,
    /// Last value the single-query phase produced for each slot.
    single_out: Vec<Option<f64>>,
    /// `(model, record, θ, value)` of the first row of every batch.
    batch_heads: Vec<(usize, usize, f64, f64)>,
    singles: usize,
    /// Extractions and encoder passes the single-query phase caused.
    extractions: u64,
    encoder_passes: u64,
}

impl Measured {
    /// The single-query median: per round, the mean over corpora of each
    /// corpus's median; then the median round.
    fn single_p50(&self) -> f64 {
        let round_p50: Vec<f64> = self
            .single_us
            .iter()
            .map(|round| round.iter().map(|v| stats::median(v)).sum::<f64>() / round.len() as f64)
            .collect();
        stats::median(&round_p50)
    }
}

/// Runs `rounds` alternations of the two phases for `seconds` in total.
fn measure(
    models: &[Model],
    slots: &[Slot],
    pool: &[Vec<(usize, f64)>],
    seconds: f64,
    spans: &mut Spans,
    parent: Option<usize>,
) -> Measured {
    let mut out = Measured {
        single_out: vec![None; slots.len()],
        ..Measured::default()
    };
    let window = Duration::from_secs_f64(seconds / (2 * ROUNDS) as f64);
    let (mut cursor, mut cycle) = (0usize, 0usize);
    for _ in 0..ROUNDS {
        out.single_us.push(vec![Vec::new(); models.len()]);
        let round = out.single_us.last_mut().expect("just pushed");
        let phase = spans.open("offline.single", parent);
        let api0 = ApiCounters::process_totals();
        let end = Instant::now() + window;
        while Instant::now() < end {
            let i = cursor % slots.len();
            cursor += 1;
            let s = slots[i];
            let m = &models[s.model];
            let (q, theta) = (&m.corpus.heldout[s.query], m.corpus.grid[s.grid]);
            let t0 = Instant::now();
            let v = black_box(m.est.estimate(black_box(q), theta));
            let t1 = Instant::now();
            spans.record("estimator.estimate", t0, t1, phase, None);
            round[s.model].push((t1 - t0).as_nanos() as f64 / 1e3);
            out.single_out[i] = Some(v);
            out.singles += 1;
        }
        let api = ApiCounters::process_totals().delta_since(&api0);
        out.extractions += api.extractions;
        out.encoder_passes += api.encoder_passes;
        spans.close(phase);

        let phase = spans.open("offline.batch", parent);
        let (mut rows, t_start) = (0usize, Instant::now());
        let end = t_start + window;
        // Whole cycles over the corpora, so every window mixes the four
        // domains in the same proportion.
        while Instant::now() < end {
            for (m, (model, p)) in models.iter().zip(pool).enumerate() {
                let start = (cycle * BATCH_ROWS) % p.len();
                let items = &p[start..start + BATCH_ROWS];
                let records: Vec<&Record> = items
                    .iter()
                    .map(|&(r, _)| &model.corpus.dataset.records[r])
                    .collect();
                let thetas: Vec<f64> = items.iter().map(|&(_, t)| t).collect();
                let t0 = Instant::now();
                let prepared: Vec<PreparedQuery> =
                    records.iter().map(|r| model.est.prepare(r)).collect();
                let t1 = Instant::now();
                let refs: Vec<&PreparedQuery> = prepared.iter().collect();
                let est = black_box(model.est.estimate_batch(&refs, &thetas));
                let t2 = Instant::now();
                spans.record("estimator.prepare", t0, t1, phase, None);
                spans.record("estimator.estimate_batch", t1, t2, phase, None);
                out.batch_heads
                    .push((m, items[0].0, items[0].1, est[0].value));
                rows += est.len();
            }
            cycle += 1;
        }
        let elapsed = t_start.elapsed().as_secs_f64();
        out.batch_eps.push(rows as f64 / elapsed);
        out.batch_rows += rows;
        spans.close(phase);
    }
    out
}

pub fn run(cfg: &RunConfig, rep: &mut Report) {
    let origin = Instant::now();

    let (models, setup_s, mut spans) =
        setup::repeated(cfg, origin, |spans, root| setup(cfg.seed, spans, root));
    let slots = slots(&models);
    let pool = batch_pool(&models, cfg.seed);

    let m = if cfg.trace {
        // Untraced half, then traced half: their latency difference is the
        // benchmark's own tracing overhead.
        let mut off = Spans::new(false, origin);
        let plain = measure(&models, &slots, &pool, cfg.seconds / 2.0, &mut off, None);
        let root = spans.open("offline.measure", None);
        let traced = measure(&models, &slots, &pool, cfg.seconds / 2.0, &mut spans, root);
        spans.close(root);
        rep.metric(
            "obs.trace_overhead_frac",
            traced.single_p50() / plain.single_p50() - 1.0,
            "ratio",
            traced.singles,
            "p50 traced / p50 untraced - 1",
        );
        traced
    } else {
        measure(&models, &slots, &pool, cfg.seconds, &mut spans, None)
    };
    rep.attempted += (m.singles + m.batch_rows) as u64;

    // End-to-end metrics.
    rep.metric(
        "setup_s",
        stats::median(&setup_s),
        "s",
        setup_s.len(),
        &format!("median of {}", setup_s.len()),
    );
    // Per corpus, then averaged: the four domains' latencies differ by up
    // to 5x, so a pooled median would sit on the gap between two of them
    // and jump with small shifts in either. The median is taken per round
    // and the median round reported, like the batch throughput; each
    // corpus's tail needs the whole run's sample.
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let per: Vec<stats::Latency> = (0..models.len())
        .filter_map(|c| {
            stats::latency(
                m.single_us
                    .iter()
                    .flat_map(|r| r[c].iter().copied())
                    .collect(),
            )
        })
        .collect();
    for (l, dom) in per.iter().zip(["hm", "ed", "jc", "eu"]) {
        rep.note(format!(
            "single estimate {dom}: p50 {:.1} us, {} {:.1} us, n={}",
            l.p50.value,
            l.tail.label(),
            l.tail.value,
            l.p50.n
        ));
    }
    if per.len() == models.len() {
        let tail_label = per.iter().map(|l| l.tail.label()).min().unwrap_or_default();
        rep.metric(
            "latency_p50_us",
            m.single_p50(),
            "us",
            m.singles,
            &format!("p50 per corpus, mean of 4, median of {ROUNDS} rounds"),
        );
        rep.metric(
            "latency_p99_us",
            mean(&per.iter().map(|l| l.tail.value).collect::<Vec<_>>()),
            "us",
            m.singles,
            &format!("{tail_label} per corpus, mean of 4"),
        );
    }
    let windows: Vec<String> = m.batch_eps.iter().map(|e| format!("{e:.0}")).collect();
    rep.note(format!("batch windows, estimates/s: {}", windows.join(" ")));
    rep.metric(
        "throughput_per_s",
        stats::median(&m.batch_eps),
        "1/s",
        m.batch_eps.len(),
        &format!("batch_eps, median of {} windows", m.batch_eps.len()),
    );

    check_and_score(&models, &slots, &m, rep);

    if cfg.trace {
        layers(&models, &m, &spans, rep);
        let path = cfg.spans_path();
        if let Err(e) = spans.write_jsonl(&path) {
            rep.note(format!("cannot write spans to {}: {e}", path.display()));
        }
        rep.note(format!(
            "spans={} written={}",
            spans.all().len(),
            path.display()
        ));
        rep.metric(
            "trace.explained_frac",
            spans.explained_frac(),
            "ratio",
            spans.all().len(),
            "child span time / parent span time",
        );
    }
}

/// Output checks and accuracy: held-out curves must be monotone and agree
/// with the single-query path, the single-query answers of the measured
/// phase must replay bit for bit, batch heads must equal the single-query
/// path, and q-error is taken against exact labels.
fn check_and_score(models: &[Model], slots: &[Slot], m: &Measured, rep: &mut Report) {
    let mut qerr = Vec::new();
    let mut acc = Accuracy::default();
    let values: Vec<Vec<Vec<f64>>> = models
        .iter()
        .map(|model| {
            acc.add(
                &model.est,
                &model.labels.heldout,
                inputs::N_TIMED,
                &mut qerr,
            )
        })
        .collect();
    let (mut replay_checked, mut replay_failed) = (0u64, 0u64);
    for (s, out) in slots.iter().zip(&m.single_out) {
        if let Some(v) = out {
            replay_checked += 1;
            replay_failed += u64::from(values[s.model][s.query][s.grid].to_bits() != v.to_bits());
        }
    }
    let mut batch_failed = 0u64;
    for &(mi, r, theta, v) in &m.batch_heads {
        let model = &models[mi];
        let want = model.est.estimate(&model.corpus.dataset.records[r], theta);
        if want.to_bits() != v.to_bits() || !v.is_finite() {
            batch_failed += 1;
        }
    }
    rep.check("single_replay_bit_identical", replay_checked, replay_failed);
    rep.check(
        "batch_bit_identical_to_single",
        m.batch_heads.len() as u64,
        batch_failed,
    );
    let failed = acc.report(rep) + replay_failed + batch_failed;
    score(&mut qerr, rep);
    rep.note(format!(
        "monotone_violations={} failed_frac={}",
        acc.mono_bad,
        failed as f64 / rep.attempted.max(1) as f64
    ));
}

/// Held-out accuracy and the checks that come with it, over one or more
/// estimators.
#[derive(Default)]
pub struct Accuracy {
    queries: u64,
    pub mono_bad: u64,
    singles: u64,
    single_bad: u64,
}

impl Accuracy {
    /// Answers every held-out query at every grid θ through `prepare` +
    /// `curve_batch` (one encoder pass per query) and pushes the q-errors
    /// onto `qerr`. Each answer curve must be non-decreasing, and for the
    /// first `keep` queries the single-query `estimate` must match it bit
    /// for bit; their answers are returned as `[query][grid point]`.
    pub fn add(
        &mut self,
        est: &CardNetEstimator,
        heldout: &cardest_data::Workload,
        keep: usize,
        qerr: &mut Vec<f64>,
    ) -> Vec<Vec<f64>> {
        let grid = &heldout.thresholds;
        let steps: Vec<usize> = grid.iter().map(|&t| est.threshold_step(t)).collect();
        let mut kept = Vec::with_capacity(keep);
        for chunk in heldout.queries.chunks(BATCH_ROWS) {
            let prepared: Vec<PreparedQuery> =
                chunk.iter().map(|lq| est.prepare(&lq.query)).collect();
            let refs: Vec<&PreparedQuery> = prepared.iter().collect();
            for (lq, curve) in chunk.iter().zip(est.curve_batch(&refs)) {
                let vals: Vec<f64> = steps.iter().map(|&st| curve.value_at(st)).collect();
                self.queries += 1;
                self.mono_bad +=
                    u64::from(!curve.is_non_decreasing() || vals.windows(2).any(|w| w[1] < w[0]));
                qerr.extend(
                    vals.iter()
                        .zip(&lq.cards)
                        .map(|(&v, &c)| stats::q_error(f64::from(c), v)),
                );
                if kept.len() < keep {
                    self.singles += 1;
                    self.single_bad += u64::from(
                        grid.iter()
                            .zip(&vals)
                            .any(|(&t, v)| est.estimate(&lq.query, t).to_bits() != v.to_bits()),
                    );
                    kept.push(vals);
                }
            }
        }
        kept
    }

    /// Adds the check lines; returns the failure count.
    pub fn report(&self, rep: &mut Report) -> u64 {
        rep.check("monotone_in_theta", self.queries, self.mono_bad);
        rep.check(
            "single_bit_identical_to_curve",
            self.singles,
            self.single_bad,
        );
        self.mono_bad + self.single_bad
    }
}

/// `qerror_mean` and `qerror_p95` over a pooled q-error sample.
pub fn score(qerr: &mut [f64], rep: &mut Report) {
    let n = qerr.len();
    let mean = qerr.iter().sum::<f64>() / n.max(1) as f64;
    rep.metric("qerror_mean", mean, "ratio", n, "mean");
    qerr.sort_by(f64::total_cmp);
    match stats::percentile(qerr, 0.95) {
        Some(p) => rep.percentile("qerror_p95", p, "ratio"),
        None => rep.metric("qerror_p95", f64::NAN, "ratio", n, "too few samples"),
    }
}

/// Per-layer numbers of the traced run.
fn layers(models: &[Model], m: &Measured, spans: &Spans, rep: &mut Report) {
    for (model, dom) in models.iter().zip(["hm", "ed", "jc", "eu"]) {
        let us = probes::extract_us(model.est.extractor(), &model.corpus.dataset.records);
        rep.metric(
            &format!("fx.extract_us.{dom}"),
            us.0,
            "us",
            us.1,
            "median per record",
        );
    }
    probes::model_layers(
        models
            .iter()
            .map(|m| (&m.est, &m.corpus.dataset.records[..])),
        rep,
    );
    probes::matmul(&models[0].est, &models[0].corpus.dataset.records, rep);
    let per = |count: u64| count as f64 / m.singles.max(1) as f64;
    rep.metric(
        "core.extractions_per_estimate",
        per(m.extractions),
        "count",
        m.singles,
        "single-query phase",
    );
    rep.metric(
        "core.encoder_passes_per_estimate",
        per(m.encoder_passes),
        "count",
        m.singles,
        "single-query phase",
    );
    let reports: Vec<&TrainReport> = models.iter().map(|m| &m.train).collect();
    probes::setup_layers(spans, &reports, rep);
}
