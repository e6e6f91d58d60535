//! Set-up shared by every workload: exact labelling (`select`), feature
//! extraction (`fx`) and training (`train`), each timed so the traced run can
//! report it per layer.

use crate::inputs::{self, Corpus};
use crate::spans::Spans;
use crate::RunConfig;
use cardest_core::model::CardNetConfig;
use cardest_core::train::{train_cardnet, TrainReport, Trainer, TrainerOptions};
use cardest_data::Workload;
use cardest_fx::{build_extractor, FeatureExtractor};
use std::time::Instant;

/// Worker threads for labelling: the host's two cores.
pub const LABEL_THREADS: usize = 2;

/// The benchmark's training schedule: the quick experiment scale's shape
/// with early stopping off, so every run trains the same number of epochs.
/// Seeded by the corpus seed: the trained model is a fixture too.
pub fn trainer_options() -> TrainerOptions {
    TrainerOptions {
        epochs: 24,
        vae_epochs: 6,
        learning_rate: 3e-3,
        validate_every: 4,
        patience: 0,
        seed: inputs::mix(inputs::CORPUS_SEED, 0xCA4D),
        ..TrainerOptions::default()
    }
}

/// A corpus's query sets with their exact labels.
pub struct Labelled {
    pub train: Workload,
    pub valid: Workload,
    pub heldout: Workload,
}

/// Labels every query set of `corpus` exactly on its threshold grid.
pub fn label(corpus: &Corpus, spans: &mut Spans, parent: Option<usize>) -> Labelled {
    let started = Instant::now();
    let lab = |qs: &[cardest_data::Record]| {
        cardest_select::oracle::parallel_label(
            &corpus.dataset,
            qs.to_vec(),
            corpus.grid.clone(),
            LABEL_THREADS,
        )
    };
    let out = Labelled {
        train: lab(&corpus.train),
        valid: lab(&corpus.valid),
        heldout: lab(&corpus.heldout),
    };
    spans.record("select.label", started, Instant::now(), parent, None);
    out
}

/// A trained CardNet before it is wrapped for serving.
pub struct Trained {
    pub fx: Box<dyn FeatureExtractor>,
    pub trainer: Trainer,
    pub report: TrainReport,
}

/// The corpus's feature extractor; rebuilt identically for every
/// hot-swapped snapshot.
pub fn extractor(corpus: &Corpus) -> Box<dyn FeatureExtractor> {
    build_extractor(
        &corpus.dataset,
        inputs::TAU_MAX,
        inputs::mix(inputs::CORPUS_SEED, 0xF0),
    )
}

/// Trains CardNet (shared encoder, the paper's default) on a labelled corpus.
pub fn train(
    corpus: &Corpus,
    labels: &Labelled,
    spans: &mut Spans,
    parent: Option<usize>,
) -> Trained {
    let started = Instant::now();
    let fx = extractor(corpus);
    let cfg = CardNetConfig::new(fx.dim(), fx.tau_max() + 1);
    let (trainer, report) = train_cardnet(
        fx.as_ref(),
        &labels.train,
        &labels.valid,
        cfg,
        trainer_options(),
    );
    spans.record("train.fit", started, Instant::now(), parent, None);
    Trained {
        fx,
        trainer,
        report,
    }
}

/// Sets up `cfg.setups()` times with `build`, dropping (and so shutting
/// down) each earlier set-up before the next. Returns the last set-up, the
/// seconds each took, and the last one's spans under a `setup` root.
pub fn repeated<T>(
    cfg: &RunConfig,
    origin: Instant,
    mut build: impl FnMut(&mut Spans, Option<usize>) -> T,
) -> (T, Vec<f64>, Spans) {
    let (mut last, mut seconds, mut spans) = (None, Vec::new(), Spans::new(cfg.trace, origin));
    for _ in 0..cfg.setups() {
        drop(last.take());
        spans = Spans::new(cfg.trace, origin);
        let root = spans.open("setup", None);
        let t0 = Instant::now();
        last = Some(build(&mut spans, root));
        seconds.push(t0.elapsed().as_secs_f64());
        spans.close(root);
    }
    (last.expect("at least one set-up"), seconds, spans)
}
