//! The CardNet regression model (§5) and its accelerated variant (§7).
//!
//! Encoder Ψ: the representation network Γ concatenates the raw binary
//! vector with its VAE latent (`x' = [x ; VAE(x, ε)]`, §5.2.1); a learned
//! distance-embedding matrix `E` supplies one embedding per Hamming distance
//! value (§5.2.2); a shared FNN Φ maps `[x' ; e_i]` to the final embedding
//! `z_i` (§5.2.3). Decoder `g_i(x) = ReLU(w_iᵀ z_i + b_i)` yields the
//! cardinality of distance exactly `i`; the estimate at threshold τ is the
//! prefix sum (Eq. 1) — deterministic and non-negative, hence monotone
//! (Lemma 2).
//!
//! **CardNet-A** replaces the per-distance Φ applications with a single FNN
//! Φ′ whose hidden layer `f_j` also emits region `j` of *all* `τ_max + 1`
//! embeddings through a head matrix (Figure 4), cutting estimation cost from
//! `O((τ+1)·|Φ|)` to `O(|Φ′|)`.

use std::time::{Duration, Instant};

use cardest_nn::kernels::partition_rows;
use cardest_nn::layers::{chain_shapes, Activation, Dense, Mlp};
use cardest_nn::{
    init, Matrix, Parallelism, ParamId, ParamShape, ParamStore, Tape, Vae, VaeConfig, Var,
};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Which encoder topology to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EncoderKind {
    /// CardNet: shared Φ applied once per distance value.
    Shared,
    /// CardNet-A: multi-head Φ′ emitting all embeddings at once (§7).
    Accelerated,
}

/// Hyperparameters. Defaults follow §9.1.3 scaled for CPU training
/// (the paper: Φ = 512/512/256/256, z = 60, e = 5, VAE = 256/128/128).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CardNetConfig {
    /// Input dimensionality `d` (from the feature extractor).
    pub input_dim: usize,
    /// Decoder count `τ_max + 1`.
    pub n_out: usize,
    pub encoder: EncoderKind,
    /// Hidden sizes of Φ / Φ′.
    pub phi_hidden: Vec<usize>,
    /// Final embedding dimensionality |z|.
    pub z_dim: usize,
    /// Distance-embedding dimensionality |e| (paper: 5).
    pub e_dim: usize,
    /// VAE hidden sizes; empty disables the VAE (ablation −VAE).
    pub vae_hidden: Vec<usize>,
    /// VAE latent dimensionality.
    pub vae_latent: usize,
    /// Ablation switch: `false` replaces incremental prediction with a direct
    /// regression on `[x' ; e_τ]` (the paper's comparison in Table 7).
    pub incremental: bool,
}

impl CardNetConfig {
    /// CPU-scaled defaults.
    pub fn new(input_dim: usize, n_out: usize) -> Self {
        CardNetConfig {
            input_dim,
            n_out,
            encoder: EncoderKind::Shared,
            phi_hidden: vec![96, 64],
            z_dim: 32,
            e_dim: 5,
            vae_hidden: vec![96, 48],
            vae_latent: 20,
            incremental: true,
        }
    }

    pub fn accelerated(mut self) -> Self {
        self.encoder = EncoderKind::Accelerated;
        self
    }

    pub fn without_vae(mut self) -> Self {
        self.vae_hidden.clear();
        self.vae_latent = 0;
        self
    }

    pub fn without_incremental(mut self) -> Self {
        self.incremental = false;
        self
    }

    fn vae_config(&self) -> VaeConfig {
        VaeConfig::new(self.input_dim, self.vae_hidden.clone(), self.vae_latent)
    }

    fn uses_vae(&self) -> bool {
        !self.vae_hidden.is_empty() && self.vae_latent > 0
    }

    /// Width of `x' = [x ; VAE latent]`.
    fn xprime_dim(&self) -> usize {
        let latent = if self.uses_vae() { self.vae_latent } else { 0 };
        // Saturating: a snapshot's config is untrusted until validated.
        self.input_dim.saturating_add(latent)
    }

    /// CardNet-A's split of `z_dim` into one region per Φ′ layer; earlier
    /// layers get the remainder so Σ regions = z_dim.
    fn phi_a_regions(&self) -> Vec<usize> {
        let n_layers = self.phi_hidden.len().max(1);
        let base = self.z_dim / n_layers;
        let mut regions = vec![base; n_layers];
        for region in regions.iter_mut().take(self.z_dim % n_layers) {
            *region += 1;
        }
        regions
    }
}

/// The regression model `g`. Parameters live in an external [`ParamStore`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CardNetModel {
    pub config: CardNetConfig,
    vae: Option<Vae>,
    /// Distance-embedding matrix `E`: `n_out × e_dim`.
    e: ParamId,
    /// Shared Φ (CardNet) — input `[x' ; e_i]`.
    phi: Option<Mlp>,
    /// Accelerated Φ′ (CardNet-A): hidden chain + per-layer region heads.
    phi_a: Option<PhiAccelerated>,
    /// Decoder weights: `n_out × z_dim` (row i = w_i).
    dec_w: ParamId,
    /// Decoder biases: `1 × n_out`.
    dec_b: ParamId,
}

/// Φ′ of Figure 4: hidden layers `f_j`, each with a head emitting region `j`
/// of all `n_out` embeddings.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct PhiAccelerated {
    hidden: Vec<Dense>,
    /// `heads[j]`: `hidden_j × (n_out · region_j)`.
    heads: Vec<ParamId>,
    /// Region widths per layer; sums to `z_dim`.
    regions: Vec<usize>,
}

/// Training forward-pass outputs.
pub struct ModelForward {
    /// `n × n_out` per-distance predictions (`ĉ_i ≥ 0`).
    pub dist: Var,
    /// `n × n_out` cumulative predictions (`ĉ(x, τ)` for every τ).
    pub cum: Var,
    /// VAE loss term, if the VAE is enabled.
    pub vae_loss: Option<Var>,
}

impl CardNetModel {
    pub fn new(store: &mut ParamStore, rng: &mut impl Rng, config: CardNetConfig) -> Self {
        let vae = config
            .uses_vae()
            .then(|| Vae::new(store, rng, config.vae_config()));
        // §5.2.2: E initialized from the standard normal distribution.
        let e = store.register(
            "cardnet.E",
            init::std_normal(rng, config.n_out, config.e_dim),
        );
        let (phi, phi_a) = match config.encoder {
            EncoderKind::Shared => {
                let phi = Mlp::new(
                    store,
                    rng,
                    "cardnet.phi",
                    config.xprime_dim() + config.e_dim,
                    &config.phi_hidden,
                    config.z_dim,
                    Activation::Relu,
                    Activation::Relu,
                );
                (Some(phi), None)
            }
            EncoderKind::Accelerated => {
                let regions = config.phi_a_regions();
                let mut hidden = Vec::with_capacity(regions.len());
                let mut heads = Vec::with_capacity(regions.len());
                let mut prev = config.xprime_dim();
                for (j, &h) in config.phi_hidden.iter().enumerate() {
                    hidden.push(Dense::new(
                        store,
                        rng,
                        &format!("cardnet.phiA.{j}"),
                        prev,
                        h,
                        Activation::Relu,
                    ));
                    heads.push(store.register(
                        format!("cardnet.phiA.head{j}"),
                        init::he_normal(rng, h, config.n_out * regions[j]),
                    ));
                    prev = h;
                }
                (
                    None,
                    Some(PhiAccelerated {
                        hidden,
                        heads,
                        regions,
                    }),
                )
            }
        };
        let dec_w = store.register(
            "cardnet.dec_w",
            init::xavier_uniform(rng, config.n_out, config.z_dim),
        );
        // Positive bias keeps every ReLU decoder alive at initialization —
        // a decoder that starts at 0 output receives no gradient and would
        // predict 0 forever.
        let dec_b = store.register("cardnet.dec_b", Matrix::full(1, config.n_out, 1.0));
        CardNetModel {
            config,
            vae,
            e,
            phi,
            phi_a,
            dec_w,
            dec_b,
        }
    }

    pub fn vae(&self) -> Option<&Vae> {
        self.vae.as_ref()
    }

    /// The shape of every parameter this model reads, as implied by its
    /// config, or an error naming the first layer that disagrees with the
    /// config. [`ParamStore::check_shapes`] holds a store to this list.
    pub fn param_shapes(&self) -> Result<Vec<ParamShape>, String> {
        let c = &self.config;
        let mut shapes = Vec::new();
        match (&self.vae, c.uses_vae()) {
            (Some(vae), true) if vae.config == c.vae_config() => shapes.extend(vae.param_shapes()?),
            (None, false) => {}
            _ => return Err("the VAE disagrees with the model config".to_string()),
        }
        shapes.push((self.e, (c.n_out, c.e_dim)));
        let xprime = c.xprime_dim();
        match (&self.phi, &self.phi_a, c.encoder) {
            (Some(phi), None, EncoderKind::Shared) => {
                let widths = [
                    &[xprime.saturating_add(c.e_dim)],
                    &c.phi_hidden[..],
                    &[c.z_dim],
                ];
                shapes.extend(chain_shapes(&phi.layers, &widths.concat())?);
            }
            (None, Some(pa), EncoderKind::Accelerated) => {
                let widths = [&[xprime], &c.phi_hidden[..]].concat();
                shapes.extend(chain_shapes(&pa.hidden, &widths)?);
                if pa.heads.len() != c.phi_hidden.len() || pa.regions != c.phi_a_regions() {
                    return Err("CardNet-A heads disagree with the model config".to_string());
                }
                for ((&head, &h), &r) in pa.heads.iter().zip(&c.phi_hidden).zip(&pa.regions) {
                    shapes.push((head, (h, c.n_out.saturating_mul(r))));
                }
            }
            _ => return Err("encoder layers disagree with the model config".to_string()),
        }
        shapes.push((self.dec_w, (c.n_out, c.z_dim)));
        shapes.push((self.dec_b, (1, c.n_out)));
        Ok(shapes)
    }

    /// Training forward pass over a batch `x` (`n × d` binary as f32).
    ///
    /// `vae_beta` scales the KL term inside the VAE loss; `noise_rng` draws
    /// the reparameterization noise (training is stochastic, §5.2.1).
    pub fn forward_train(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x: Matrix,
        noise_rng: &mut impl Rng,
        vae_beta: f32,
    ) -> ModelForward {
        let n = x.rows();
        let xv = tape.input(x);
        let (xprime, vae_loss) = match &self.vae {
            Some(vae) => {
                let fwd = vae.forward_train(tape, store, xv, noise_rng, vae_beta);
                (tape.hconcat(&[xv, fwd.z]), Some(fwd.loss))
            }
            None => (xv, None),
        };
        let dist = self.decode_all(tape, store, xprime, n);
        // Incremental prediction (Eq. 1): cumulative = prefix sum of the
        // per-distance outputs. The −incremental ablation (Table 7) instead
        // reads each decoder as a *direct* cumulative prediction at τ = i.
        let cum = if self.config.incremental {
            self.prefix_sum(tape, dist, n)
        } else {
            dist
        };
        ModelForward {
            dist,
            cum,
            vae_loss,
        }
    }

    /// Per-distance predictions for all `n_out` decoders on the tape.
    fn decode_all(&self, tape: &mut Tape, store: &ParamStore, xprime: Var, n: usize) -> Var {
        let e = tape.param(store, self.e);
        let dec_w = tape.param(store, self.dec_w);
        let dec_b = tape.param(store, self.dec_b);
        let n_out = self.config.n_out;

        let z_all: Vec<Var> = match (&self.phi, &self.phi_a) {
            (Some(phi), _) => {
                // CardNet: Φ([x' ; e_i]) per distance i (shared parameters).
                (0..n_out)
                    .map(|i| {
                        let ei = tape.slice_rows(e, i, i + 1);
                        let eb = tape.broadcast_row(ei, n);
                        let xi = tape.hconcat(&[xprime, eb]);
                        phi.forward(tape, store, xi)
                    })
                    .collect()
            }
            (None, Some(pa)) => {
                // CardNet-A: one pass through the hidden chain; each layer's
                // head emits its region of every embedding (Figure 4).
                let mut h = xprime;
                let mut region_blocks: Vec<Var> = Vec::with_capacity(pa.hidden.len());
                for (layer, &head) in pa.hidden.iter().zip(&pa.heads) {
                    h = layer.forward(tape, store, h);
                    let head_v = tape.param(store, head);
                    region_blocks.push(tape.matmul(h, head_v)); // n × (n_out·r_j)
                }
                (0..n_out)
                    .map(|i| {
                        let parts: Vec<Var> = region_blocks
                            .iter()
                            .zip(&pa.regions)
                            .map(|(&block, &r)| tape.slice_cols(block, i * r, (i + 1) * r))
                            .collect();
                        let z = tape.hconcat(&parts);
                        tape.relu(z)
                    })
                    .collect()
            }
            _ => unreachable!("model has exactly one encoder"),
        };

        // Decoder g_i = ReLU(z_i · w_i + b_i); computed per distance, then
        // concatenated to n × n_out.
        let outs: Vec<Var> = z_all
            .iter()
            .enumerate()
            .map(|(i, &z)| {
                let wi = tape.slice_rows(dec_w, i, i + 1); // 1 × z_dim
                let raw = tape.matmul_rowvec(z, wi);
                let bi = tape.slice_cols(dec_b, i, i + 1);
                let bb = tape.broadcast_row(bi, n);
                let sum = tape.add(raw, bb);
                tape.relu(sum)
            })
            .collect();
        tape.hconcat(&outs)
    }

    /// `cum[:, τ] = Σ_{i≤τ} dist[:, i]` via multiplication with a constant
    /// upper-triangular ones matrix.
    fn prefix_sum(&self, tape: &mut Tape, dist: Var, _n: usize) -> Var {
        let n_out = self.config.n_out;
        let tri = Matrix::from_fn(n_out, n_out, |i, j| if i <= j { 1.0 } else { 0.0 });
        let tri = tape.input(tri);
        tape.matmul(dist, tri)
    }

    /// Inference fast path: per-distance predictions for one query (row
    /// vector `1 × d`), deterministic (VAE mean latent). Only the first
    /// `tau + 1` embeddings are computed for the shared encoder — the paper's
    /// `O((τ+1)|Φ|)` cost — while the accelerated encoder computes all
    /// embeddings in one pass (`O(|Φ′|)`). The same encode and decode steps
    /// as [`CardNetModel::encode_all`] + [`CardNetModel::decode_prefix`], so
    /// the two agree bit for bit.
    pub fn infer_dist(&self, store: &ParamStore, x: &Matrix, tau: usize) -> Vec<f32> {
        let tau = tau.min(self.config.n_out - 1);
        let z = self.encode_prefix(store, x, tau + 1, Parallelism::serial());
        self.decode_prefix(store, &z, tau)
    }

    /// The estimate at threshold τ: the prefix sum `Σ_{i≤τ} g_i(x)` (Eq. 1)
    /// for incremental models, or the τ-th decoder directly for the
    /// −incremental ablation.
    pub fn infer_sum(&self, store: &ParamStore, x: &Matrix, tau: usize) -> f64 {
        let dist = self.infer_dist(store, x, tau);
        if self.config.incremental {
            dist.iter().map(|&v| f64::from(v)).sum()
        } else {
            dist.last().map_or(0.0, |&v| f64::from(v))
        }
    }

    /// Full deterministic encoder pass for one query (row vector `1 × d`):
    /// the per-distance embeddings `z_0 … z_{n_out−1}` stacked into an
    /// `n_out × z_dim` matrix (output activations applied). This is the
    /// cacheable half of a prepared query: decoding any τ from the returned
    /// matrix via [`CardNetModel::decode_prefix`] reproduces
    /// [`CardNetModel::infer_dist`] bit for bit.
    pub fn encode_all(&self, store: &ParamStore, x: &Matrix) -> Matrix {
        self.encode_all_with(store, x, Parallelism::serial())
    }

    /// [`CardNetModel::encode_all`] with an explicit kernel worker budget.
    ///
    /// For the shared encoder the `n_out` per-distance Φ passes are
    /// independent, so they partition across workers — each embedding row is
    /// still computed by the exact serial arithmetic, so the result is
    /// bit-identical for any `par`.
    pub fn encode_all_with(&self, store: &ParamStore, x: &Matrix, par: Parallelism) -> Matrix {
        self.encode_prefix(store, x, self.config.n_out, par)
    }

    /// Per-distance predictions `ĉ_0 … ĉ_τ` decoded from a cached
    /// [`CardNetModel::encode_all`] matrix — the per-τ half of a prepared
    /// query. No encoder work happens here: a τ-sweep pays for the embeddings
    /// once and re-runs only these dot products.
    pub fn decode_prefix(&self, store: &ParamStore, z_all: &Matrix, tau: usize) -> Vec<f32> {
        let tau = tau.min(self.config.n_out - 1);
        crate::metrics::record_decoder_calls(tau as u64 + 1);
        let t_dec = Instant::now();
        let dec_w = store.value(self.dec_w);
        let dec_b = store.value(self.dec_b);
        let out = (0..=tau)
            .map(|i| decode_row(z_all.row(i), dec_w, dec_b, i))
            .collect();
        crate::metrics::record_decoder_time(t_dec.elapsed());
        out
    }

    /// Batched per-distance inference across all decoders: `n × n_out`
    /// matrix. Used by validation (dynamic-ω updates need per-column losses)
    /// and by the batch-first estimation path (one encoder pass per batch).
    pub fn infer_dist_batch(&self, store: &ParamStore, x: &Matrix) -> Matrix {
        self.infer_dist_batch_with(store, x, Parallelism::serial())
    }

    /// [`CardNetModel::infer_dist_batch`] with an explicit kernel worker
    /// budget, bit-identical for any `par`.
    ///
    /// Large batches partition their **rows** across workers, each running
    /// the full serial pipeline on its chunk — one spawn amortized over the
    /// whole model, and every row's arithmetic is row-independent, so the
    /// output matches the serial batch bit for bit. Small batches fall
    /// through to kernel-level threading (which in turn stays serial below
    /// its own work threshold).
    pub fn infer_dist_batch_with(
        &self,
        store: &ParamStore,
        x: &Matrix,
        par: Parallelism,
    ) -> Matrix {
        crate::metrics::record_encoder_pass();
        crate::metrics::record_decoder_calls((x.rows() * self.config.n_out) as u64);
        let n = x.rows();
        let n_out = self.config.n_out;
        // Per-row cost ≈ one multiply-add per parameter.
        let workers = par.workers(n, n * store.num_scalars());
        if workers <= 1 {
            return self.infer_dist_batch_rows(store, x, par);
        }
        let d = x.cols();
        let mut out = Matrix::zeros(n, n_out);
        partition_rows(out.as_mut_slice(), n_out, workers, |first_row, chunk| {
            let rows_here = chunk.len() / n_out;
            let sub = Matrix::from_vec(
                rows_here,
                d,
                x.as_slice()[first_row * d..(first_row + rows_here) * d].to_vec(),
            );
            // One worker per chunk, but a backend pinned by the caller must
            // survive the coarse fan-out into the per-chunk kernels.
            let dist = self.infer_dist_batch_rows(store, &sub, par.serial_worker());
            chunk.copy_from_slice(dist.as_slice());
        });
        out
    }

    /// Embeddings `z_0 … z_{count−1}` of a one-row query, stacked into a
    /// `count × z_dim` matrix: one encoder pass, with the shared encoder's
    /// per-distance Φ passes split across `par`'s workers (each embedding
    /// row is computed by one worker, so the result is the same for any
    /// `par`).
    fn encode_prefix(
        &self,
        store: &ParamStore,
        x: &Matrix,
        count: usize,
        par: Parallelism,
    ) -> Matrix {
        crate::metrics::record_encoder_pass();
        let t_enc = Instant::now();
        let z_dim = self.config.z_dim;
        let worker = par.serial_worker();
        let state = self.encoder_state(store, x, worker);
        let workers = match &state {
            EncoderState::Shared { phi, .. } => par.workers(count, count * phi.num_params()),
            EncoderState::Accelerated { .. } => 1,
        };
        let mut z_all = Matrix::zeros(count, z_dim);
        partition_rows(z_all.as_mut_slice(), z_dim, workers, |first_row, chunk| {
            // `max(1)`: a zero-width embedding has nothing to fill.
            for (i_local, z_row) in chunk.chunks_mut(z_dim.max(1)).enumerate() {
                let z = self.embed(store, &state, first_row + i_local, worker);
                z_row.copy_from_slice(z.row(0));
            }
        });
        crate::metrics::record_encoder_time(t_enc.elapsed());
        z_all
    }

    /// The serial-order batch pipeline (no counter recording; both the
    /// serial and the row-partitioned paths of
    /// [`CardNetModel::infer_dist_batch_with`] funnel through here).
    fn infer_dist_batch_rows(&self, store: &ParamStore, x: &Matrix, par: Parallelism) -> Matrix {
        let n_out = self.config.n_out;
        let dec_w = store.value(self.dec_w);
        let dec_b = store.value(self.dec_b);
        // Encoder vs decoder wall time, accumulated across the per-distance
        // loop and recorded once at the end (two clock reads per distance
        // value — noise next to the matmuls they bracket).
        let t0 = Instant::now();
        let state = self.encoder_state(store, x, par);
        let mut enc = t0.elapsed();
        let mut dec = Duration::ZERO;
        let mut out = Matrix::zeros(x.rows(), n_out);
        for i in 0..n_out {
            let t_enc = Instant::now();
            let z = self.embed(store, &state, i, par);
            let t_dec = Instant::now();
            enc += t_dec - t_enc;
            for r in 0..x.rows() {
                out.set(r, i, decode_row(z.row(r), dec_w, dec_b, i));
            }
            dec += t_dec.elapsed();
        }
        crate::metrics::record_encoder_time(enc);
        crate::metrics::record_decoder_time(dec);
        out
    }

    /// The per-query half of the encoder, run once per call: the VAE mean
    /// latent, then — for CardNet-A — the hidden chain and its head blocks.
    fn encoder_state(&self, store: &ParamStore, x: &Matrix, par: Parallelism) -> EncoderState<'_> {
        let xprime = match &self.vae {
            Some(vae) => {
                let mu = vae.latent_mean_with(store, x, par);
                Matrix::hconcat(&[x, &mu])
            }
            None => x.clone(),
        };
        match (&self.phi, &self.phi_a) {
            (Some(phi), _) => EncoderState::Shared { phi, xprime },
            (None, Some(pa)) => {
                let mut h = xprime;
                let mut blocks: Vec<Matrix> = Vec::with_capacity(pa.hidden.len());
                for (layer, &head) in pa.hidden.iter().zip(&pa.heads) {
                    h = layer.infer_with(store, &h, par);
                    blocks.push(h.matmul_with(store.value(head), par));
                }
                EncoderState::Accelerated {
                    regions: &pa.regions,
                    rows: x.rows(),
                    blocks,
                }
            }
            _ => unreachable!("model has exactly one encoder"),
        }
    }

    /// Distance `i`'s embeddings `z_i` for every row of an encoded batch
    /// (`rows × z_dim`): Φ([x′ ; e_i]) for the shared encoder, or region `j`
    /// of every head block, ReLU'd and concatenated, for CardNet-A.
    fn embed(
        &self,
        store: &ParamStore,
        state: &EncoderState<'_>,
        i: usize,
        par: Parallelism,
    ) -> Matrix {
        match state {
            EncoderState::Shared { phi, xprime } => {
                let e = store.value(self.e);
                let mut xi = Matrix::zeros(xprime.rows(), xprime.cols() + self.config.e_dim);
                for r in 0..xprime.rows() {
                    let row = xi.row_mut(r);
                    row[..xprime.cols()].copy_from_slice(xprime.row(r));
                    row[xprime.cols()..].copy_from_slice(e.row(i));
                }
                phi.infer_with(store, &xi, par)
            }
            EncoderState::Accelerated {
                regions,
                rows,
                blocks,
            } => {
                let mut z = Matrix::zeros(*rows, self.config.z_dim);
                for r in 0..*rows {
                    let zr = z.row_mut(r);
                    let mut at = 0;
                    for (block, &w) in blocks.iter().zip(regions.iter()) {
                        for (k, v) in zr[at..at + w].iter_mut().enumerate() {
                            *v = block.get(r, i * w + k).max(0.0);
                        }
                        at += w;
                    }
                }
                z
            }
        }
    }
}

/// What [`CardNetModel::encoder_state`] leaves for the per-distance step.
enum EncoderState<'m> {
    /// CardNet: `x′ = [x ; μ(x)]`; Φ still runs once per distance.
    Shared { phi: &'m Mlp, xprime: Matrix },
    /// CardNet-A: one `rows × (n_out · region_j)` head block per Φ′ layer,
    /// holding region `j` of every embedding.
    Accelerated {
        regions: &'m [usize],
        rows: usize,
        blocks: Vec<Matrix>,
    },
}

/// Decoder `g_i(z) = ReLU(w_iᵀ z + b_i)` — the one inference dot product.
fn decode_row(z: &[f32], dec_w: &Matrix, dec_b: &Matrix, i: usize) -> f32 {
    let mut acc = dec_b.get(0, i);
    for (zv, wv) in z.iter().zip(dec_w.row(i)) {
        acc += zv * wv;
    }
    acc.max(0.0)
}

/// `matmul` against a `1 × k` row vector treated as `k × 1` — a tape helper
/// for the decoder dot products.
trait TapeDecodeExt {
    fn matmul_rowvec(&mut self, a: Var, row: Var) -> Var;
}

impl TapeDecodeExt for Tape {
    fn matmul_rowvec(&mut self, a: Var, row: Var) -> Var {
        // (n × k) @ (k × 1): transpose the row on the tape by slicing —
        // a 1×k row reshaped via matmul with its transpose is overkill, so we
        // multiply element-wise and sum columns instead:
        // a ⊙ broadcast(row) summed over columns = a @ rowᵀ.
        let n = self.value(a).rows();
        let rb = self.broadcast_row(row, n);
        let prod = self.mul(a, rb);
        // Sum over columns via matmul with a ones column vector.
        let k = self.value(a).cols();
        let ones = self.input(Matrix::full(k, 1, 1.0));
        self.matmul(prod, ones)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardest_nn::rng;

    fn toy_model(encoder: EncoderKind, with_vae: bool) -> (CardNetModel, ParamStore) {
        let mut store = ParamStore::new();
        let mut r = rng::seeded(7);
        let mut cfg = CardNetConfig::new(12, 5);
        cfg.encoder = encoder;
        cfg.phi_hidden = vec![16, 8];
        cfg.z_dim = 8;
        if !with_vae {
            cfg = cfg.without_vae();
        } else {
            cfg.vae_hidden = vec![16];
            cfg.vae_latent = 4;
        }
        let model = CardNetModel::new(&mut store, &mut r, cfg);
        (model, store)
    }

    fn toy_x(n: usize) -> Matrix {
        Matrix::from_fn(n, 12, |r, c| f32::from(u8::from((r + c) % 3 == 0)))
    }

    #[test]
    fn forward_shapes_shared() {
        let (model, store) = toy_model(EncoderKind::Shared, true);
        let mut tape = Tape::new();
        let mut nrng = rng::seeded(1);
        let fwd = model.forward_train(&mut tape, &store, toy_x(4), &mut nrng, 0.1);
        assert_eq!(tape.value(fwd.dist).shape(), (4, 5));
        assert_eq!(tape.value(fwd.cum).shape(), (4, 5));
        assert!(fwd.vae_loss.is_some());
    }

    #[test]
    fn forward_shapes_accelerated() {
        let (model, store) = toy_model(EncoderKind::Accelerated, false);
        let mut tape = Tape::new();
        let mut nrng = rng::seeded(2);
        let fwd = model.forward_train(&mut tape, &store, toy_x(3), &mut nrng, 0.1);
        assert_eq!(tape.value(fwd.dist).shape(), (3, 5));
        assert!(fwd.vae_loss.is_none());
    }

    #[test]
    fn cumulative_is_prefix_sum_of_dist() {
        let (model, store) = toy_model(EncoderKind::Shared, false);
        let mut tape = Tape::new();
        let mut nrng = rng::seeded(3);
        let fwd = model.forward_train(&mut tape, &store, toy_x(4), &mut nrng, 0.1);
        let dist = tape.value(fwd.dist).clone();
        let cum = tape.value(fwd.cum).clone();
        for r in 0..4 {
            let mut acc = 0.0;
            for j in 0..5 {
                acc += dist.get(r, j);
                assert!((cum.get(r, j) - acc).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn per_distance_outputs_are_nonnegative() {
        for enc in [EncoderKind::Shared, EncoderKind::Accelerated] {
            let (model, store) = toy_model(enc, false);
            let x = toy_x(1);
            let d = model.infer_dist(&store, &x, 4);
            assert!(d.iter().all(|&v| v >= 0.0), "{enc:?}: {d:?}");
        }
    }

    #[test]
    fn inference_is_monotone_in_tau() {
        for enc in [EncoderKind::Shared, EncoderKind::Accelerated] {
            let (model, store) = toy_model(enc, true);
            let x = toy_x(1);
            let mut prev = 0.0;
            for tau in 0..5 {
                let est = model.infer_sum(&store, &x, tau);
                assert!(est >= prev - 1e-9, "{enc:?}: τ={tau}: {est} < {prev}");
                prev = est;
            }
        }
    }

    #[test]
    fn train_and_infer_paths_agree_without_vae() {
        // With the VAE disabled both paths are deterministic and identical.
        for enc in [EncoderKind::Shared, EncoderKind::Accelerated] {
            let (model, store) = toy_model(enc, false);
            let x = toy_x(2);
            let mut tape = Tape::new();
            let mut nrng = rng::seeded(4);
            let fwd = model.forward_train(&mut tape, &store, x.clone(), &mut nrng, 0.1);
            let train_dist = tape.value(fwd.dist).clone();
            let infer = model.infer_dist_batch(&store, &x);
            assert!(
                train_dist.max_abs_diff(&infer) < 1e-4,
                "{enc:?}: paths diverge by {}",
                train_dist.max_abs_diff(&infer)
            );
        }
    }

    #[test]
    fn encode_then_decode_matches_infer_dist_bitwise() {
        // The prepared-query fast path (encode once, decode per τ) must be
        // arithmetic-for-arithmetic the single-shot path.
        for enc in [EncoderKind::Shared, EncoderKind::Accelerated] {
            for with_vae in [false, true] {
                let (model, store) = toy_model(enc, with_vae);
                let x = toy_x(1);
                let z_all = model.encode_all(&store, &x);
                assert_eq!(z_all.shape(), (5, 8));
                for tau in 0..5 {
                    let direct = model.infer_dist(&store, &x, tau);
                    let cached = model.decode_prefix(&store, &z_all, tau);
                    assert_eq!(direct.len(), cached.len());
                    for (a, b) in direct.iter().zip(&cached) {
                        assert_eq!(a.to_bits(), b.to_bits(), "{enc:?} vae={with_vae} τ={tau}");
                    }
                }
            }
        }
    }

    #[test]
    fn infer_dist_truncates_at_tau() {
        let (model, store) = toy_model(EncoderKind::Shared, false);
        let x = toy_x(1);
        assert_eq!(model.infer_dist(&store, &x, 2).len(), 3);
        assert_eq!(model.infer_dist(&store, &x, 99).len(), 5); // clamped
    }

    #[test]
    fn batch_row_partition_is_bit_identical() {
        // The row-partitioned batch pipeline (and the per-distance encoder
        // fan-out) must reproduce the serial batch bit for bit, whatever the
        // worker count — including workers that don't divide the row count.
        for enc in [EncoderKind::Shared, EncoderKind::Accelerated] {
            for with_vae in [false, true] {
                let (model, store) = toy_model(enc, with_vae);
                let x = toy_x(9);
                let want = model.infer_dist_batch(&store, &x);
                for t in [2usize, 3, 4, 8] {
                    let got =
                        model.infer_dist_batch_with(&store, &x, Parallelism::exact_threads(t));
                    assert_eq!(want.shape(), got.shape());
                    for (a, b) in want.as_slice().iter().zip(got.as_slice()) {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{enc:?} vae={with_vae} threads={t}: {a} vs {b}"
                        );
                    }
                }
                let z_serial = model.encode_all(&store, &toy_x(1));
                for t in [2usize, 4] {
                    let z_par =
                        model.encode_all_with(&store, &toy_x(1), Parallelism::exact_threads(t));
                    for (a, b) in z_serial.as_slice().iter().zip(z_par.as_slice()) {
                        assert_eq!(a.to_bits(), b.to_bits(), "{enc:?} encode_all threads={t}");
                    }
                }
            }
        }
    }

    #[test]
    fn batch_inference_matches_single_query() {
        for enc in [EncoderKind::Shared, EncoderKind::Accelerated] {
            let (model, store) = toy_model(enc, true);
            let x = toy_x(3);
            let batch = model.infer_dist_batch(&store, &x);
            for r in 0..3 {
                let single = Matrix::from_vec(1, 12, x.row(r).to_vec());
                let d = model.infer_dist(&store, &single, 4);
                for (j, &v) in d.iter().enumerate() {
                    assert_eq!(
                        batch.get(r, j).to_bits(),
                        v.to_bits(),
                        "{enc:?} row {r} col {j}: {} vs {v}",
                        batch.get(r, j)
                    );
                }
            }
        }
    }
}
