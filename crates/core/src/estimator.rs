//! The Estimator API: prepared queries, batch-first estimation, and
//! threshold-curve results — shared by CardNet and every baseline — plus the
//! trained-CardNet wrapper.
//!
//! # The prepare → curve → estimate flow
//!
//! The paper's interface is `ĉ(x, θ)`, monotone in θ (Lemmas 1–2). Every
//! consumer that sweeps θ — GPH threshold allocation, accuracy sweeps, the
//! serving cache's bracket probes — used to pay for feature extraction and
//! the encoder once *per threshold*. The v2 API splits the work along its
//! natural seams:
//!
//! 1. [`CardinalityEstimator::prepare`] runs the query-only work once
//!    (feature extraction `h_rec`; estimators may lazily attach more cached
//!    state, e.g. CardNet's encoder embeddings) and returns a
//!    [`PreparedQuery`] that is reusable across thresholds *and* models;
//! 2. [`CardinalityEstimator::curve`] returns the whole threshold curve
//!    `ĉ_0 … ĉ_{h(θ)}` as a [`CardinalityCurve`] — one call answers every
//!    threshold up to θ;
//! 3. [`CardinalityEstimator::estimate`] / [`estimate_batch`] have default
//!    implementations in terms of `prepare` + `curve`, so scalar call sites
//!    keep working unchanged, and [`Estimate`] carries monotone `[lo, hi]`
//!    bounds where they matter (the serving cache's bracket answers).
//!
//! Implementors must override **at least one** of `estimate` or `curve`
//! (their defaults are defined in terms of each other). A τ-sweep through a
//! prepared query is bit-identical to calling `estimate` per threshold — the
//! property tests in `tests/estimator_api.rs` pin this down.
//!
//! [`estimate_batch`]: CardinalityEstimator::estimate_batch

use crate::model::CardNetModel;
use crate::train::Trainer;
use cardest_data::{BitVec, Record};
use cardest_fx::FeatureExtractor;
use cardest_nn::{Matrix, Parallelism, ParamStore};
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Hands out process-unique owner ids for per-estimator cached state inside
/// a [`PreparedQuery`]. Estimators that cache derived state grab one id at
/// construction so a prepared query can never serve another instance's cache.
pub fn next_instance_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    // ordering: relaxed suffices for a unique-id counter — atomicity alone
    // guarantees distinct ids and nothing else synchronizes through it.
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// A query with its per-query work done once, reusable across thresholds and
/// models.
///
/// Always carries the original [`Record`] (estimators that consume records
/// directly — samplers, KDE — keep working); optionally carries the
/// extractor's bit vector (`h_rec(x)`, filled in by extractor-backed
/// estimators); and offers one lazily-initialized slot of estimator-specific
/// state (e.g. CardNet's encoder embeddings, a sampler's sorted distances)
/// keyed by the owning estimator's instance id.
pub struct PreparedQuery {
    record: Arc<Record>,
    /// `(owner instance id, h_rec(x))` — owner-keyed like `state`, because
    /// two extractors of equal dimensionality (e.g. LSH families drawn from
    /// different seeds) produce different bits for the same record.
    bits: Option<(u64, BitVec)>,
    state: OnceLock<(u64, Arc<dyn Any + Send + Sync>)>,
}

impl PreparedQuery {
    /// Wraps a record with no precomputed features (the default `prepare`).
    pub fn from_record(record: Record) -> PreparedQuery {
        PreparedQuery::from_shared(Arc::new(record))
    }

    /// Wraps an already-shared record without copying its payload — the
    /// serving hot path hands its `Arc<Record>` straight through.
    pub fn from_shared(record: Arc<Record>) -> PreparedQuery {
        PreparedQuery {
            record,
            bits: None,
            state: OnceLock::new(),
        }
    }

    /// Wraps a record together with the bit vector `owner`'s extractor
    /// produced for it.
    pub fn with_bits(record: Record, owner: u64, bits: BitVec) -> PreparedQuery {
        PreparedQuery::shared_with_bits(Arc::new(record), owner, bits)
    }

    /// [`PreparedQuery::with_bits`] over an already-shared record.
    pub fn shared_with_bits(record: Arc<Record>, owner: u64, bits: BitVec) -> PreparedQuery {
        PreparedQuery {
            record,
            bits: Some((owner, bits)),
            state: OnceLock::new(),
        }
    }

    /// The original query record.
    pub fn record(&self) -> &Record {
        &self.record
    }

    /// The extracted bit vector, whoever prepared it — for consumers in the
    /// preparing estimator's own pipeline (e.g. the serving layer's query
    /// fingerprint). Model inputs should go through
    /// [`PreparedQuery::bits_for`] instead.
    pub fn bits(&self) -> Option<&BitVec> {
        self.bits.as_ref().map(|(_, b)| b)
    }

    /// The extracted bit vector, only if `owner` is the estimator that
    /// extracted it — a prepared query reused across models never serves
    /// another extractor's features.
    pub fn bits_for(&self, owner: u64) -> Option<&BitVec> {
        match &self.bits {
            Some((id, bits)) if *id == owner => Some(bits),
            _ => None,
        }
    }

    /// Per-estimator cached state, computed at most once per (query, owner).
    ///
    /// The slot is claimed by the first owner to initialize it. If a
    /// *different* estimator already claimed it (a prepared query being
    /// reused across models), `init` runs fresh and the result is simply not
    /// cached — correctness over caching: state computed under one model's
    /// parameters must never be decoded under another's.
    pub fn state<T: Any + Send + Sync>(&self, owner: u64, init: impl FnOnce() -> T) -> Arc<T> {
        if let Some((id, any)) = self.state.get() {
            if *id == owner {
                if let Ok(t) = Arc::clone(any).downcast::<T>() {
                    return t;
                }
            }
            return Arc::new(init());
        }
        let value = Arc::new(init());
        let stored: Arc<dyn Any + Send + Sync> = Arc::clone(&value) as _;
        // A racing thread may have filled the slot first; both computed the
        // same deterministic value, so returning ours is equivalent.
        let _ = self.state.set((owner, stored));
        value
    }
}

/// A cardinality estimate with optional monotone bounds and provenance —
/// replaces bare `f64` where the bracket matters (the serving cache answers
/// misses between two cached τ values from exactly these bounds).
#[derive(Clone, Debug, PartialEq)]
#[must_use]
pub struct Estimate {
    /// The estimate itself.
    pub value: f64,
    /// Monotone lower bound: `lo ≤ true model value`.
    pub lo: f64,
    /// Monotone upper bound: `true model value ≤ hi`.
    pub hi: f64,
    /// Name of the producing estimator, when known.
    pub source: Option<Arc<str>>,
}

impl Estimate {
    /// An exact (degenerate-bracket) estimate: `lo == value == hi`.
    pub fn exact(value: f64) -> Estimate {
        Estimate {
            value,
            lo: value,
            hi: value,
            source: None,
        }
    }

    /// An estimate known only through a monotone bracket `[lo, hi]` (two
    /// curve points on either side of the queried threshold). A degenerate
    /// bracket (`lo == hi`) pins the value exactly — monotone curves cannot
    /// dip between equal endpoints; otherwise the midpoint is reported.
    pub fn from_bracket(lo: f64, hi: f64) -> Estimate {
        debug_assert!(lo <= hi, "inverted bracket [{lo}, {hi}]");
        Estimate {
            value: if lo == hi { lo } else { 0.5 * (lo + hi) },
            lo,
            hi,
            source: None,
        }
    }

    /// Tags the producing estimator.
    pub fn with_source(mut self, source: Arc<str>) -> Estimate {
        self.source = Some(source);
        self
    }

    /// Whether the bounds pin the value exactly (`lo == hi`).
    pub fn is_pinned(&self) -> bool {
        self.lo == self.hi
    }

    /// Bracket width `hi − lo`.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Whether the bracket is tight enough to answer without the model:
    /// `hi − lo ≤ tolerance · max(hi, 1)` (relative slack, floored at one
    /// record so tiny cardinalities don't demand impossible precision).
    pub fn within_tolerance(&self, tolerance: f64) -> bool {
        self.width() <= tolerance * self.hi.max(1.0)
    }
}

/// The threshold curve `ĉ_0 … ĉ_{h(θ)}`: one estimate per transformed
/// threshold step, as a first-class result.
///
/// For estimators with a native threshold discretization (CardNet's τ grid,
/// histogram buckets), `values()[i]` is exactly what `estimate` returns at
/// any θ' with [`CardinalityEstimator::threshold_step`]`(θ') == i` — the
/// indexing contract the GPH allocator relies on. Estimators without a
/// discretization return single-point curves (`[ĉ(θ)]`).
#[derive(Clone, Debug, PartialEq)]
#[must_use]
pub struct CardinalityCurve {
    values: Vec<f64>,
}

impl CardinalityCurve {
    /// Wraps explicit per-step values; must be non-empty.
    pub fn from_values(values: Vec<f64>) -> CardinalityCurve {
        assert!(!values.is_empty(), "a curve has at least one point");
        CardinalityCurve { values }
    }

    /// A single-point curve (estimators without a threshold discretization).
    pub fn point(value: f64) -> CardinalityCurve {
        CardinalityCurve {
            values: vec![value],
        }
    }

    /// Cumulative curve from per-distance f32 increments, accumulated
    /// left-to-right in f64 — the exact arithmetic of
    /// [`CardNetModel::infer_sum`], so `last()` is bit-identical to the
    /// scalar path.
    pub fn from_f32_increments(dist: &[f32]) -> CardinalityCurve {
        let mut values = Vec::with_capacity(dist.len());
        let mut acc = 0.0f64;
        for &v in dist {
            acc += f64::from(v);
            values.push(acc);
        }
        CardinalityCurve::from_values(values)
    }

    /// Non-cumulative curve: each step is a direct prediction (the
    /// −incremental ablation, which forfeits monotonicity).
    pub fn from_f32_direct(dist: &[f32]) -> CardinalityCurve {
        CardinalityCurve::from_values(dist.iter().map(|&v| f64::from(v)).collect())
    }

    /// The value at the queried threshold — what `estimate` returns.
    pub fn last(&self) -> f64 {
        *self.values.last().expect("curves are non-empty")
    }

    /// The value at `step`, clamped to the final point.
    pub fn value_at(&self, step: usize) -> f64 {
        self.values[step.min(self.values.len() - 1)]
    }

    /// All per-step values, index = transformed threshold step.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Never true — kept for API completeness alongside `len`.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Whether the curve is non-decreasing (the monotonicity guarantee as
    /// observed data).
    pub fn is_non_decreasing(&self) -> bool {
        self.values.windows(2).all(|w| w[1] >= w[0])
    }

    /// The monotone bracket between two steps of this curve.
    pub fn bracket(&self, lo_step: usize, hi_step: usize) -> Estimate {
        Estimate::from_bracket(self.value_at(lo_step), self.value_at(hi_step))
    }
}

/// A cardinality estimator for similarity selection (Problem 1 of the
/// paper): `estimate(x, θ) ≈ |{ y ∈ D : f(x, y) ≤ θ }|`.
///
/// Implementors **must override at least one of [`estimate`] or [`curve`]**:
/// their defaults are defined in terms of each other so that both legacy
/// scalar estimators and curve-native estimators implement just one method —
/// the cost of that convenience is that an impl overriding *neither*
/// compiles but recurses infinitely on first use (the compiler cannot
/// express "one of these two"), so treat a stack overflow in a fresh
/// estimator as this contract violation. Estimators with per-query work
/// worth reusing (feature extraction, encoder passes, sample distances)
/// should also override [`prepare`].
///
/// [`estimate`]: CardinalityEstimator::estimate
/// [`curve`]: CardinalityEstimator::curve
/// [`prepare`]: CardinalityEstimator::prepare
pub trait CardinalityEstimator: Send + Sync {
    /// Runs the per-query work once. The default wraps the record with no
    /// precomputed features.
    fn prepare(&self, query: &Record) -> PreparedQuery {
        PreparedQuery::from_record(query.clone())
    }

    /// [`CardinalityEstimator::prepare`] over an already-shared record: the
    /// prepared query holds the `Arc` instead of deep-cloning the payload.
    /// The serving hot path calls this once per request.
    fn prepare_shared(&self, query: &Arc<Record>) -> PreparedQuery {
        self.prepare(query)
    }

    /// The threshold curve up to (and including) θ. The final point is the
    /// estimate at θ, bit-for-bit equal to [`CardinalityEstimator::estimate`].
    /// Default: a single-point curve through `estimate`.
    fn curve(&self, prepared: &PreparedQuery, theta: f64) -> CardinalityCurve {
        CardinalityCurve::point(self.estimate(prepared.record(), theta))
    }

    /// `h_thr`: maps θ to this estimator's curve step, monotone in θ.
    ///
    /// Contract for estimators returning a non-trivial step (> 0 for large
    /// θ): for any θ' ≤ θ, `curve(p, θ).value_at(threshold_step(θ'))`
    /// equals `estimate(q, θ')` bit for bit. Estimators without a native
    /// discretization keep every θ at step 0 (single-point curves), which
    /// consumers must treat as "no curve indexing available".
    fn threshold_step(&self, _theta: f64) -> usize {
        0
    }

    /// The estimated cardinality (non-negative; not necessarily integral).
    /// Default: `prepare` + `curve`, reading the final point.
    fn estimate(&self, query: &Record, theta: f64) -> f64 {
        self.curve(&self.prepare(query), theta).last()
    }

    /// The estimate at θ from an already-prepared query — the per-threshold
    /// call of a τ-sweep (`prepare` once, this per θ).
    fn estimate_prepared(&self, prepared: &PreparedQuery, theta: f64) -> f64 {
        self.curve(prepared, theta).last()
    }

    /// Batch-first estimation: one [`Estimate`] per `(prepared[i],
    /// thetas[i])` pair. The default loops `curve`; batched models override
    /// this to run their kernel once for the whole batch (the serving worker
    /// pool feeds micro-batches straight through here).
    fn estimate_batch(&self, prepared: &[&PreparedQuery], thetas: &[f64]) -> Vec<Estimate> {
        assert_eq!(
            prepared.len(),
            thetas.len(),
            "estimate_batch: {} queries vs {} thresholds",
            prepared.len(),
            thetas.len()
        );
        let source: Arc<str> = self.name().into();
        prepared
            .iter()
            .zip(thetas)
            .map(|(p, &theta)| {
                Estimate::exact(self.curve(p, theta).last()).with_source(Arc::clone(&source))
            })
            .collect()
    }

    /// Full threshold curves (θ = ∞, clamped by `h_thr` to each estimator's
    /// maximum step) for a batch of prepared queries. Default loops `curve`;
    /// batched models override to run one kernel for the whole batch — the
    /// serving layer's curve-seeding mode feeds micro-batches through here.
    fn curve_batch(&self, prepared: &[&PreparedQuery]) -> Vec<CardinalityCurve> {
        prepared
            .iter()
            .map(|p| self.curve(p, f64::INFINITY))
            .collect()
    }

    /// Display name matching the paper's tables (e.g. `CardNet-A`, `DB-US`).
    fn name(&self) -> String;

    /// Serialized parameter footprint in bytes (Table 9's "model size").
    fn size_bytes(&self) -> usize;

    /// Whether the estimator guarantees monotonicity w.r.t. the threshold
    /// (and therefore a non-decreasing [`CardinalityCurve`]).
    fn is_monotonic(&self) -> bool {
        false
    }
}

/// Writes the `h_rec` features of a prepared query into `out` (length =
/// `fx.dim()`): reuses the prepared bit vector when `owner` extracted it
/// (and the dimensionality matches), re-extracts with `fx` — counting the
/// extraction — otherwise. The shared fallback rule for every
/// extractor-backed estimator consuming a query prepared elsewhere.
pub fn prepared_features_into(
    fx: &dyn FeatureExtractor,
    owner: u64,
    prepared: &PreparedQuery,
    out: &mut [f32],
) {
    match prepared.bits_for(owner) {
        Some(bits) if bits.len() == out.len() => bits.write_f32(out),
        _ => {
            crate::metrics::record_extraction();
            fx.extract(prepared.record()).write_f32(out);
        }
    }
}

/// [`prepared_features_into`] as a `1 × dim` model-input matrix.
pub fn prepared_feature_matrix(
    fx: &dyn FeatureExtractor,
    owner: u64,
    prepared: &PreparedQuery,
) -> Matrix {
    let mut data = vec![0.0f32; fx.dim()];
    prepared_features_into(fx, owner, prepared, &mut data);
    Matrix::from_vec(1, fx.dim(), data)
}

/// A trained CardNet (or CardNet-A): feature extractor + regression model.
pub struct CardNetEstimator {
    fx: Box<dyn FeatureExtractor>,
    model: CardNetModel,
    store: ParamStore,
    accelerated: bool,
    /// Owner id for encoder state cached inside [`PreparedQuery`].
    prep_id: u64,
    /// Kernel worker budget for the encoder/batch paths. Threaded kernels
    /// are bit-identical to the scalar ones, so this is a throughput knob
    /// with no effect on estimates.
    par: Parallelism,
}

/// CardNet's cached per-query state: the full encoder output (`n_out ×
/// z_dim` embeddings), computed lazily on the first `curve` call so cheap
/// cache probes never pay for it.
struct CardNetPrepared {
    z_all: Matrix,
}

impl CardNetEstimator {
    /// Wraps the products of [`crate::train::train_cardnet`].
    pub fn from_trainer(fx: Box<dyn FeatureExtractor>, trainer: Trainer) -> Self {
        let accelerated = trainer.model.config.encoder == crate::model::EncoderKind::Accelerated;
        CardNetEstimator {
            fx,
            model: trainer.model,
            store: trainer.store,
            accelerated,
            prep_id: next_instance_id(),
            par: Parallelism::serial(),
        }
    }

    /// Sets the kernel worker budget for the encoder/batch paths. Estimates
    /// are bit-identical for any setting.
    pub fn set_parallelism(&mut self, par: Parallelism) {
        self.par = par;
    }

    /// The configured kernel worker budget.
    pub fn parallelism(&self) -> Parallelism {
        self.par
    }

    pub fn model(&self) -> &CardNetModel {
        &self.model
    }

    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    pub fn extractor(&self) -> &dyn FeatureExtractor {
        self.fx.as_ref()
    }

    /// Per-distance estimates `ĉ_0 … ĉ_τ` for a query (diagnostics and the
    /// GPH case study's per-distance costing).
    pub fn estimate_per_distance(&self, query: &Record, theta: f64) -> Vec<f32> {
        let tau = self.fx.map_threshold(theta);
        let x = self.query_matrix(query);
        self.model.infer_dist(&self.store, &x, tau)
    }

    fn query_matrix(&self, query: &Record) -> Matrix {
        crate::metrics::record_extraction();
        let bits = self.fx.extract(query);
        Matrix::from_vec(1, bits.len(), bits.to_f32())
    }

    /// The cached (or freshly computed) encoder embeddings for a prepared
    /// query.
    fn embeddings(&self, prepared: &PreparedQuery) -> Arc<CardNetPrepared> {
        prepared.state(self.prep_id, || CardNetPrepared {
            z_all: self.model.encode_all_with(
                &self.store,
                &prepared_feature_matrix(self.fx.as_ref(), self.prep_id, prepared),
                self.par,
            ),
        })
    }

    /// Stacks the prepared queries' features into one `n × dim` model input.
    fn batch_feature_matrix(&self, prepared: &[&PreparedQuery]) -> Matrix {
        let d = self.fx.dim();
        let mut data = vec![0.0f32; prepared.len() * d];
        for (r, p) in prepared.iter().enumerate() {
            prepared_features_into(
                self.fx.as_ref(),
                self.prep_id,
                p,
                &mut data[r * d..(r + 1) * d],
            );
        }
        Matrix::from_vec(prepared.len(), d, data)
    }
}

/// A borrowed view over a trainer's current model: lets update loops (§8)
/// evaluate mid-stream without consuming the trainer.
pub struct CardNetView<'a> {
    fx: &'a dyn FeatureExtractor,
    trainer: &'a Trainer,
    /// Owner id for prepared bits (views cache no encoder state).
    view_id: u64,
}

impl CardNetEstimator {
    /// Borrows a trainer as an estimator.
    pub fn from_trainer_ref<'a>(
        fx: &'a dyn FeatureExtractor,
        trainer: &'a Trainer,
    ) -> CardNetView<'a> {
        CardNetView {
            fx,
            trainer,
            view_id: next_instance_id(),
        }
    }
}

impl CardinalityEstimator for CardNetView<'_> {
    fn prepare(&self, query: &Record) -> PreparedQuery {
        crate::metrics::record_extraction();
        let bits = self.fx.extract(query);
        PreparedQuery::with_bits(query.clone(), self.view_id, bits)
    }

    fn curve(&self, prepared: &PreparedQuery, theta: f64) -> CardinalityCurve {
        // Views are transient (mid-training evaluation); they reuse prepared
        // bits but do not cache encoder state.
        let tau = self.threshold_step(theta);
        let x = prepared_feature_matrix(self.fx, self.view_id, prepared);
        let dist = self.trainer.model.infer_dist(&self.trainer.store, &x, tau);
        if self.trainer.model.config.incremental {
            CardinalityCurve::from_f32_increments(&dist)
        } else {
            CardinalityCurve::from_f32_direct(&dist)
        }
    }

    fn threshold_step(&self, theta: f64) -> usize {
        self.fx
            .map_threshold(theta)
            .min(self.trainer.model.config.n_out - 1)
    }

    fn estimate(&self, query: &Record, theta: f64) -> f64 {
        crate::metrics::record_extraction();
        let tau = self.fx.map_threshold(theta);
        let bits = self.fx.extract(query);
        let x = Matrix::from_vec(1, bits.len(), bits.to_f32());
        self.trainer.model.infer_sum(&self.trainer.store, &x, tau)
    }

    fn name(&self) -> String {
        "CardNet(view)".into()
    }

    fn size_bytes(&self) -> usize {
        self.trainer.store.size_bytes()
    }

    fn is_monotonic(&self) -> bool {
        self.trainer.model.config.incremental
    }
}

impl CardinalityEstimator for CardNetEstimator {
    /// Extracts features once (`h_rec`). Encoder embeddings are attached
    /// lazily on the first `curve` call, so preparing for a cache probe
    /// costs one extraction and nothing else.
    fn prepare(&self, query: &Record) -> PreparedQuery {
        crate::metrics::record_extraction();
        let bits = self.fx.extract(query);
        PreparedQuery::with_bits(query.clone(), self.prep_id, bits)
    }

    /// Hot-path variant: extracts once and shares the caller's `Arc` instead
    /// of deep-cloning the record.
    fn prepare_shared(&self, query: &Arc<Record>) -> PreparedQuery {
        crate::metrics::record_extraction();
        let bits = self.fx.extract(query);
        PreparedQuery::shared_with_bits(Arc::clone(query), self.prep_id, bits)
    }

    /// One encoder pass per prepared query (cached), decoders per τ: a
    /// k-threshold sweep costs 1 extraction + 1 encoder pass, not k.
    fn curve(&self, prepared: &PreparedQuery, theta: f64) -> CardinalityCurve {
        let tau = self.threshold_step(theta);
        let state = self.embeddings(prepared);
        let dist = self.model.decode_prefix(&self.store, &state.z_all, tau);
        if self.model.config.incremental {
            CardinalityCurve::from_f32_increments(&dist)
        } else {
            CardinalityCurve::from_f32_direct(&dist)
        }
    }

    fn threshold_step(&self, theta: f64) -> usize {
        self.fx
            .map_threshold(theta)
            .min(self.model.config.n_out - 1)
    }

    /// Scalar fast path: evaluates only decoders `0..=τ` (the paper's
    /// `O((τ+1)|Φ|)` cost for the shared encoder) — cheaper than a full
    /// `curve` for one-shot estimates, bit-identical to `curve(…).last()`.
    fn estimate(&self, query: &Record, theta: f64) -> f64 {
        let tau = self.fx.map_threshold(theta);
        let x = self.query_matrix(query);
        self.model.infer_sum(&self.store, &x, tau)
    }

    /// One batched kernel run for the whole batch: per-row arithmetic
    /// mirrors [`CardNetModel::infer_sum`] exactly (left-to-right f64 prefix
    /// sum over decoders `0..=τ`), so batched estimates are bit-identical to
    /// the scalar path — the invariant the serving layer's cache relies on.
    fn estimate_batch(&self, prepared: &[&PreparedQuery], thetas: &[f64]) -> Vec<Estimate> {
        assert_eq!(
            prepared.len(),
            thetas.len(),
            "estimate_batch: {} queries vs {} thresholds",
            prepared.len(),
            thetas.len()
        );
        if prepared.is_empty() {
            return Vec::new();
        }
        let x = self.batch_feature_matrix(prepared);
        let dist = self.model.infer_dist_batch_with(&self.store, &x, self.par);
        let n_out = self.model.config.n_out;
        let incremental = self.model.config.incremental;
        let source: Arc<str> = CardinalityEstimator::name(self).into();
        thetas
            .iter()
            .enumerate()
            .map(|(r, &theta)| {
                let tau = self.fx.map_threshold(theta).min(n_out - 1);
                let value = if incremental {
                    let mut acc = 0.0f64;
                    for j in 0..=tau {
                        acc += f64::from(dist.get(r, j));
                    }
                    acc
                } else {
                    f64::from(dist.get(r, tau))
                };
                Estimate::exact(value).with_source(Arc::clone(&source))
            })
            .collect()
    }

    /// One batched kernel run for the whole batch of full curves: every
    /// decoder column comes out of `infer_dist_batch` anyway, so each row's
    /// curve is just its f64 prefix sums — bit-identical to per-query
    /// `curve` calls.
    fn curve_batch(&self, prepared: &[&PreparedQuery]) -> Vec<CardinalityCurve> {
        if prepared.is_empty() {
            return Vec::new();
        }
        let x = self.batch_feature_matrix(prepared);
        let dist = self.model.infer_dist_batch_with(&self.store, &x, self.par);
        let incremental = self.model.config.incremental;
        (0..prepared.len())
            .map(|r| {
                if incremental {
                    CardinalityCurve::from_f32_increments(dist.row(r))
                } else {
                    CardinalityCurve::from_f32_direct(dist.row(r))
                }
            })
            .collect()
    }

    fn name(&self) -> String {
        if self.accelerated {
            "CardNet-A".into()
        } else {
            "CardNet".into()
        }
    }

    fn size_bytes(&self) -> usize {
        self.store.size_bytes()
    }

    fn is_monotonic(&self) -> bool {
        // Deterministic inference + non-negative decoders + monotone h_thr:
        // Lemmas 1 and 2. The −incremental ablation predicts cumulative
        // values directly and forfeits the guarantee.
        self.model.config.incremental
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ApiCounters;
    use crate::model::{CardNetConfig, EncoderKind};
    use crate::train::{train_cardnet, TrainerOptions};
    use cardest_data::synth::{hm_imagenet, SynthConfig};
    use cardest_data::Workload;
    use cardest_fx::build_extractor;
    use proptest::prelude::*;

    fn trained(accelerated: bool) -> (CardNetEstimator, cardest_data::Dataset) {
        let ds = hm_imagenet(SynthConfig::new(250, 77));
        let fx = build_extractor(&ds, 20, 1);
        let wl = Workload::sample_from(&ds, 0.4, 10, 2);
        let split = wl.split(3);
        let mut cfg = CardNetConfig::new(fx.dim(), fx.tau_max() + 1);
        cfg.phi_hidden = vec![32, 24];
        cfg.z_dim = 16;
        cfg.vae_hidden = vec![32];
        cfg.vae_latent = 8;
        if accelerated {
            cfg.encoder = EncoderKind::Accelerated;
        }
        let mut opts = TrainerOptions::quick();
        opts.epochs = 10;
        opts.vae_epochs = 3;
        let (trainer, _) = train_cardnet(fx.as_ref(), &split.train, &split.valid, cfg, opts);
        (CardNetEstimator::from_trainer(fx, trainer), ds)
    }

    #[test]
    fn estimator_reports_identity() {
        let (est, _) = trained(false);
        assert_eq!(est.name(), "CardNet");
        assert!(est.is_monotonic());
        assert!(est.size_bytes() > 0);
        let (est_a, _) = trained(true);
        assert_eq!(est_a.name(), "CardNet-A");
    }

    #[test]
    fn estimates_are_deterministic() {
        let (est, ds) = trained(false);
        let q = &ds.records[0];
        assert_eq!(est.estimate(q, 10.0), est.estimate(q, 10.0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]
        #[test]
        fn estimates_are_monotone_in_theta(qi in 0usize..250) {
            let (est, ds) = trained(true);
            let q = &ds.records[qi % ds.len()];
            let mut prev = 0.0;
            for step in 0..=20 {
                let theta = ds.theta_max * f64::from(step) / 20.0;
                let c = est.estimate(q, theta);
                prop_assert!(c >= prev - 1e-9, "θ={theta}: {c} < {prev}");
                prev = c;
            }
        }
    }

    #[test]
    fn per_distance_sums_to_estimate() {
        let (est, ds) = trained(false);
        let q = &ds.records[5];
        let per = est.estimate_per_distance(q, 12.0);
        let total: f64 = per.iter().map(|&v| f64::from(v)).sum();
        assert!((total - est.estimate(q, 12.0)).abs() < 1e-4);
    }

    #[test]
    fn curve_matches_scalar_estimates_bitwise() {
        for accelerated in [false, true] {
            let (est, ds) = trained(accelerated);
            let q = &ds.records[3];
            let prepared = est.prepare(q);
            for step in 0..=10 {
                let theta = ds.theta_max * f64::from(step) / 10.0;
                let curve = est.curve(&prepared, theta);
                assert_eq!(curve.len(), est.threshold_step(theta) + 1);
                assert!(curve.is_non_decreasing(), "curve dipped: {curve:?}");
                let scalar = est.estimate(q, theta);
                assert_eq!(
                    curve.last().to_bits(),
                    scalar.to_bits(),
                    "accel={accelerated} θ={theta}: {} vs {scalar}",
                    curve.last()
                );
                assert_eq!(
                    est.estimate_prepared(&prepared, theta).to_bits(),
                    scalar.to_bits()
                );
            }
        }
    }

    #[test]
    fn prepared_sweep_runs_the_encoder_once() {
        let (est, ds) = trained(false);
        let q = &ds.records[9];
        let before = ApiCounters::snapshot();
        let prepared = est.prepare(q);
        let after_prepare = ApiCounters::snapshot().delta_since(&before);
        assert_eq!(after_prepare.extractions, 1);
        assert_eq!(after_prepare.encoder_passes, 0, "prepare is lazy");
        for step in 0..=20 {
            let theta = ds.theta_max * f64::from(step) / 20.0;
            // The sweep exists for its counter side effects; the curves are
            // deliberately dropped.
            let _ = est.curve(&prepared, theta);
        }
        let delta = ApiCounters::snapshot().delta_since(&before);
        assert_eq!(delta.extractions, 1, "one extraction for the whole sweep");
        assert_eq!(delta.encoder_passes, 1, "one encoder pass for the sweep");
    }

    #[test]
    fn estimate_batch_is_bit_identical_to_scalar_path() {
        for accelerated in [false, true] {
            let (est, ds) = trained(accelerated);
            let queries: Vec<_> = (0..12).map(|i| ds.records[i * 7].clone()).collect();
            let thetas: Vec<f64> = (0..12)
                .map(|i| ds.theta_max * f64::from(i) / 11.0)
                .collect();
            let prepared: Vec<PreparedQuery> = queries.iter().map(|q| est.prepare(q)).collect();
            let refs: Vec<&PreparedQuery> = prepared.iter().collect();
            let batch = est.estimate_batch(&refs, &thetas);
            assert_eq!(batch.len(), queries.len());
            for ((q, &theta), got) in queries.iter().zip(&thetas).zip(&batch) {
                let want = est.estimate(q, theta);
                assert_eq!(got.value.to_bits(), want.to_bits(), "θ={theta}");
                assert!(got.is_pinned());
                assert_eq!(got.source.as_deref(), Some(est.name().as_str()));
            }
        }
    }

    #[test]
    fn curve_batch_matches_per_query_curves_bitwise() {
        for accelerated in [false, true] {
            let (est, ds) = trained(accelerated);
            let queries: Vec<_> = (0..8).map(|i| ds.records[i * 11].clone()).collect();
            let prepared: Vec<PreparedQuery> = queries.iter().map(|q| est.prepare(q)).collect();
            let refs: Vec<&PreparedQuery> = prepared.iter().collect();
            let curves = est.curve_batch(&refs);
            assert_eq!(curves.len(), queries.len());
            for (p, batched) in prepared.iter().zip(&curves) {
                let single = est.curve(p, f64::INFINITY);
                assert_eq!(batched.len(), single.len());
                for (a, b) in batched.values().iter().zip(single.values()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "accel={accelerated}");
                }
            }
        }
    }

    #[test]
    fn threaded_estimator_is_bit_identical_to_serial() {
        // An estimator configured for threaded kernels must serve the exact
        // bits of the serial one: estimate, curve (via the fan-out encoder),
        // and both batch kernels.
        let (mut est, ds) = trained(false);
        let queries: Vec<_> = (0..10).map(|i| ds.records[i * 9].clone()).collect();
        let thetas: Vec<f64> = (0..10).map(|i| ds.theta_max * f64::from(i) / 9.0).collect();
        let prepared: Vec<PreparedQuery> = queries.iter().map(|q| est.prepare(q)).collect();
        let refs: Vec<&PreparedQuery> = prepared.iter().collect();
        let serial_batch = est.estimate_batch(&refs, &thetas);
        let serial_curves = est.curve_batch(&refs);
        let serial_curve = est.curve(&est.prepare(&queries[0]), ds.theta_max);

        est.set_parallelism(Parallelism::exact_threads(3));
        assert_eq!(est.parallelism(), Parallelism::exact_threads(3));
        let batch = est.estimate_batch(&refs, &thetas);
        for (a, b) in serial_batch.iter().zip(&batch) {
            assert_eq!(a.value.to_bits(), b.value.to_bits());
        }
        let curves = est.curve_batch(&refs);
        for (a, b) in serial_curves.iter().zip(&curves) {
            for (x, y) in a.values().iter().zip(b.values()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        // A fresh prepared query so the encoder state is recomputed under
        // the threaded fan-out.
        let curve = est.curve(&est.prepare(&queries[0]), ds.theta_max);
        for (x, y) in serial_curve.values().iter().zip(curve.values()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // The budget is bit-stable across worker hints and pinned backends
        // alike, for both batch kernels.
        est.set_parallelism(Parallelism::threads(4));
        let hinted = est.estimate_batch(&refs, &thetas);
        for (a, b) in serial_batch.iter().zip(&hinted) {
            assert_eq!(a.value.to_bits(), b.value.to_bits());
        }
        for backend in [
            cardest_nn::KernelBackend::Scalar,
            cardest_nn::KernelBackend::Blocked,
            cardest_nn::KernelBackend::Simd,
        ] {
            est.set_parallelism(Parallelism::threads(2).with_backend(backend));
            let pinned = est.estimate_batch(&refs, &thetas);
            for (a, b) in serial_batch.iter().zip(&pinned) {
                assert_eq!(a.value.to_bits(), b.value.to_bits(), "{}", backend.label());
            }
            for (a, b) in serial_curves.iter().zip(&est.curve_batch(&refs)) {
                for (x, y) in a.values().iter().zip(b.values()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{}", backend.label());
                }
            }
        }
    }

    #[test]
    fn prepared_queries_are_safe_across_models() {
        // A query prepared (and encoder-cached) under model A must produce
        // model B's own estimates when handed to B: cached state is keyed by
        // instance, never shared.
        let (a, ds) = trained(false);
        let (b, _) = trained(true);
        let q = &ds.records[11];
        let prepared = a.prepare(q);
        let _ = a.curve(&prepared, 10.0); // A claims the state slot
        let from_prepared = b.estimate_prepared(&prepared, 10.0);
        let direct = b.estimate(q, 10.0);
        assert_eq!(from_prepared.to_bits(), direct.to_bits());
    }

    #[test]
    fn estimate_struct_brackets_behave() {
        let e = Estimate::exact(5.0);
        assert!(e.is_pinned());
        assert_eq!(e.width(), 0.0);
        let b = Estimate::from_bracket(4.0, 8.0);
        assert_eq!(b.value, 6.0);
        assert!(!b.is_pinned());
        assert!(b.within_tolerance(0.5));
        assert!(!b.within_tolerance(0.4));
        let pinned = Estimate::from_bracket(3.0, 3.0);
        assert!(pinned.is_pinned());
        assert_eq!(pinned.value, 3.0);
    }

    #[test]
    fn default_trait_methods_serve_scalar_only_estimators() {
        // An estimator implementing only `estimate` (the legacy surface)
        // gets working prepare/curve/estimate_batch for free.
        struct Flat(f64);
        impl CardinalityEstimator for Flat {
            fn estimate(&self, _: &Record, theta: f64) -> f64 {
                self.0 + theta
            }
            fn name(&self) -> String {
                "Flat".into()
            }
            fn size_bytes(&self) -> usize {
                0
            }
        }
        let flat = Flat(2.0);
        let q = Record::Bits(BitVec::zeros(4));
        let prepared = flat.prepare(&q);
        let curve = flat.curve(&prepared, 3.0);
        assert_eq!(curve.len(), 1);
        assert_eq!(curve.last(), 5.0);
        assert_eq!(flat.threshold_step(99.0), 0);
        let batch = flat.estimate_batch(&[&prepared, &prepared], &[1.0, 2.0]);
        assert_eq!(batch[0].value, 3.0);
        assert_eq!(batch[1].value, 4.0);
        assert_eq!(batch[0].source.as_deref(), Some("Flat"));
    }
}
