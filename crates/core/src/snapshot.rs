//! Model persistence: serialize a trained CardNet (architecture + weights +
//! the extractor's configuration hash) to JSON and load it back.
//!
//! JSON keeps snapshots human-inspectable and diff-able; the weight payload
//! dominates either way and `bytes`-backed compaction is a one-liner on top
//! (`Snapshot::to_bytes`).
//!
//! Loading is *validated*: a snapshot records the `τ_max` of the extractor it
//! was trained behind, and [`Snapshot::validate`] rejects any payload whose
//! decoder count disagrees with it. A model that silently mis-decodes (e.g.
//! a truncated weight file, or a snapshot paired with the wrong extractor
//! configuration) would be poison for a hot-swapping service — the serving
//! layer only ever publishes snapshots that pass this check.

use crate::estimator::CardNetEstimator;
use crate::model::CardNetModel;
use crate::train::Trainer;
use cardest_fx::FeatureExtractor;
use cardest_nn::ParamStore;
use serde::{Deserialize, Serialize};

/// Compaction seam: the one place that turns a JSON payload into transport
/// bytes. Imported via `self::` so the path can't be mistaken for an
/// external crate; a later PR can swap the body for real compression
/// without touching `Snapshot`.
mod bytes_shim {
    pub fn to_compact(json: String) -> bytes::Bytes {
        bytes::Bytes::from(json.into_bytes())
    }
}

use self::bytes_shim::to_compact;

/// Why a snapshot failed to parse or validate.
#[derive(Debug)]
pub enum SnapshotError {
    /// The JSON payload did not parse into the snapshot schema.
    Serde(serde_json::Error),
    /// The payload parsed but is internally inconsistent or does not match
    /// the requesting configuration.
    Invalid(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Serde(e) => write!(f, "snapshot parse error: {e}"),
            SnapshotError::Invalid(msg) => write!(f, "invalid snapshot: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<serde_json::Error> for SnapshotError {
    fn from(e: serde_json::Error) -> Self {
        SnapshotError::Serde(e)
    }
}

/// A self-contained trained-model snapshot.
#[derive(Serialize, Deserialize)]
pub struct Snapshot {
    /// Format version for forward compatibility.
    pub version: u32,
    pub model: CardNetModel,
    pub params: ParamStore,
    /// Name of the feature extractor this model was trained behind.
    pub extractor: String,
    /// `τ_max` of that extractor; the model must carry `tau_max + 1`
    /// decoders. Recorded independently of `model.config` so corruption or
    /// a mismatched pairing is caught at load time instead of mis-decoding.
    pub tau_max: usize,
}

impl Snapshot {
    pub const VERSION: u32 = 2;

    pub fn from_trainer(trainer: &Trainer, extractor: &str, tau_max: usize) -> Snapshot {
        Snapshot {
            version: Self::VERSION,
            model: trainer.model.clone(),
            params: trainer.store.clone(),
            extractor: extractor.to_string(),
            tau_max,
        }
    }

    /// Internal-consistency check, run automatically by [`Snapshot::from_json`]
    /// and [`Snapshot::load`].
    pub fn validate(&self) -> Result<(), SnapshotError> {
        if self.version > Self::VERSION {
            return Err(SnapshotError::Invalid(format!(
                "snapshot version {} is newer than supported version {}",
                self.version,
                Self::VERSION
            )));
        }
        let n_out = self.model.config.n_out;
        if n_out == 0 {
            return Err(SnapshotError::Invalid(
                "model has zero decoders (n_out = 0)".to_string(),
            ));
        }
        if n_out != self.tau_max.saturating_add(1) {
            return Err(SnapshotError::Invalid(format!(
                "decoder count {} disagrees with recorded tau_max {} \
                 (expected {} decoders); refusing to mis-decode",
                n_out,
                self.tau_max,
                self.tau_max.saturating_add(1)
            )));
        }
        // Every weight must have the shape the config implies and a buffer
        // that fills it, or inference would index out of range.
        let shapes = self.model.param_shapes().map_err(SnapshotError::Invalid)?;
        self.params
            .check_shapes(&shapes)
            .map_err(SnapshotError::Invalid)?;
        // JSON `null` reads as NaN and `1e999` as ∞; the decoders' ReLU would
        // turn either into a silently wrong estimate instead of an error.
        let mut ids = self.params.ids();
        match ids.find(|&id| !self.params.value(id).all_finite()) {
            Some(id) => Err(SnapshotError::Invalid(format!(
                "parameter `{}` holds a non-finite value",
                self.params.name(id)
            ))),
            None => Ok(()),
        }
    }

    /// Checks this snapshot against the *requesting* configuration — the
    /// extractor a caller intends to pair it with. Used by the CLI and by
    /// the serving layer before a hot-swap publish.
    pub fn validate_for(&self, fx: &dyn FeatureExtractor) -> Result<(), SnapshotError> {
        self.validate()?;
        if fx.name() != self.extractor {
            return Err(SnapshotError::Invalid(format!(
                "snapshot was trained behind extractor `{}`, caller supplies `{}`",
                self.extractor,
                fx.name()
            )));
        }
        if fx.tau_max() != self.tau_max {
            return Err(SnapshotError::Invalid(format!(
                "snapshot records tau_max {} but the supplied extractor has tau_max {}",
                self.tau_max,
                fx.tau_max()
            )));
        }
        if fx.dim() != self.model.config.input_dim {
            return Err(SnapshotError::Invalid(format!(
                "model expects {}-dimensional inputs, extractor produces {}",
                self.model.config.input_dim,
                fx.dim()
            )));
        }
        Ok(())
    }

    /// Consumes the snapshot into a ready-to-serve estimator, validating it
    /// against the supplied extractor first.
    pub fn into_estimator(
        self,
        fx: Box<dyn FeatureExtractor>,
    ) -> Result<CardNetEstimator, SnapshotError> {
        self.validate_for(fx.as_ref())?;
        let trainer = Trainer::from_parts(self.model, self.params);
        Ok(CardNetEstimator::from_trainer(fx, trainer))
    }

    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }

    pub fn from_json(json: &str) -> Result<Snapshot, SnapshotError> {
        let snap: Snapshot = serde_json::from_str(json)?;
        snap.validate()?;
        Ok(snap)
    }

    /// Compact binary form (JSON bytes in a `bytes::Bytes`, ready for
    /// transport or mmap-style sharing).
    pub fn to_bytes(&self) -> serde_json::Result<bytes::Bytes> {
        Ok(to_compact(self.to_json()?))
    }

    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        let json = self.to_json().map_err(std::io::Error::other)?;
        std::fs::write(path, json)
    }

    pub fn load(path: &std::path::Path) -> std::io::Result<Snapshot> {
        let json = std::fs::read_to_string(path)?;
        Snapshot::from_json(&json).map_err(std::io::Error::other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CardNetConfig;
    use crate::train::{train_cardnet, TrainerOptions};
    use cardest_data::synth::{hm_imagenet, SynthConfig};
    use cardest_data::Workload;
    use cardest_fx::build_extractor;
    use cardest_nn::Matrix;

    fn tiny_snapshot(seed: u64) -> (Snapshot, Trainer, Box<dyn cardest_fx::FeatureExtractor>) {
        let ds = hm_imagenet(SynthConfig::new(120, seed));
        let fx = build_extractor(&ds, 8, 1);
        let split = Workload::sample_from(&ds, 0.3, 6, 2).split(3);
        let mut cfg = CardNetConfig::new(fx.dim(), fx.tau_max() + 1);
        cfg.phi_hidden = vec![16];
        cfg.z_dim = 8;
        cfg = cfg.without_vae();
        let opts = TrainerOptions {
            epochs: 2,
            vae_epochs: 0,
            ..TrainerOptions::quick()
        };
        let (trainer, _) = train_cardnet(fx.as_ref(), &split.train, &split.valid, cfg, opts);
        let snap = Snapshot::from_trainer(&trainer, fx.name(), fx.tau_max());
        (snap, trainer, fx)
    }

    #[test]
    fn snapshot_roundtrip_preserves_predictions() {
        let ds = hm_imagenet(SynthConfig::new(200, 61));
        let fx = build_extractor(&ds, 12, 1);
        let split = Workload::sample_from(&ds, 0.3, 8, 2).split(3);
        let mut cfg = CardNetConfig::new(fx.dim(), fx.tau_max() + 1);
        cfg.phi_hidden = vec![24, 16];
        cfg.z_dim = 12;
        cfg.vae_hidden = vec![24];
        cfg.vae_latent = 6;
        let opts = TrainerOptions {
            epochs: 4,
            vae_epochs: 2,
            ..TrainerOptions::quick()
        };
        let (trainer, _) = train_cardnet(fx.as_ref(), &split.train, &split.valid, cfg, opts);

        let snap = Snapshot::from_trainer(&trainer, fx.name(), fx.tau_max());
        let json = snap.to_json().expect("serialize");
        let back = Snapshot::from_json(&json).expect("deserialize");
        assert_eq!(back.version, Snapshot::VERSION);
        assert_eq!(back.extractor, fx.name());
        assert_eq!(back.tau_max, fx.tau_max());

        // Predictions through the restored weights must match exactly.
        let bits = fx.extract(&ds.records[0]);
        let x = Matrix::from_vec(1, bits.len(), bits.to_f32());
        for tau in [0usize, 4, 8] {
            let a = trainer.model.infer_sum(&trainer.store, &x, tau);
            let b = back.model.infer_sum(&back.params, &x, tau);
            assert!((a - b).abs() < 1e-9, "τ={tau}: {a} vs {b}");
        }
        // The compact byte form carries the same JSON payload: a snapshot
        // restored from it matches the direct round trip.
        let bytes = snap.to_bytes().expect("bytes");
        assert!(bytes.len() > 100);
        let from_bytes =
            Snapshot::from_json(std::str::from_utf8(&bytes).expect("utf-8")).expect("from bytes");
        assert_eq!(from_bytes.params.num_scalars(), back.params.num_scalars());
    }

    #[test]
    fn snapshot_file_roundtrip() {
        let (snap, trainer, _fx) = tiny_snapshot(62);
        let dir = std::env::temp_dir().join("cardest_snapshot_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("model.json");
        snap.save(&path).expect("save");
        let loaded = Snapshot::load(&path).expect("load");
        assert_eq!(loaded.params.num_scalars(), trainer.store.num_scalars());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tampered_tau_max_is_rejected_with_descriptive_error() {
        let (snap, _, _) = tiny_snapshot(63);
        let json = snap.to_json().expect("serialize");
        // Corrupt the recorded tau_max so it disagrees with the decoder
        // count (8 + 1 = 9 decoders recorded, tau_max rewritten to 5).
        let tampered = json.replace("\"tau_max\":8", "\"tau_max\":5");
        assert_ne!(json, tampered, "tamper target not found");
        let err = Snapshot::from_json(&tampered).err().expect("must reject");
        let msg = err.to_string();
        assert!(
            msg.contains("decoder count") && msg.contains("tau_max 5"),
            "error not descriptive: {msg}"
        );
    }

    #[test]
    fn malformed_weights_are_rejected_as_invalid() {
        let (snap, _, _) = tiny_snapshot(66);
        let json = snap.to_json().expect("serialize");
        // A weight buffer one value short, `cardnet.E` (9 decoders x 5 dims)
        // transposed, and the last parameter dropped: each used to panic in
        // a kernel instead of failing validation.
        // `first_value(v)` rewrites the first weight value (and its comma).
        let first_value = |v: &str| {
            let at = json.find("\"data\":[").expect("a buffer") + "\"data\":[".len();
            let end = at + json[at..].find(',').expect(",") + 1;
            format!("{}{v}{}", &json[..at], &json[end..])
        };
        let truncated = first_value("");
        let swapped = json.replacen("\"rows\":9,\"cols\":5", "\"rows\":5,\"cols\":9", 1);
        let mut dropped = json.clone();
        let start = dropped.rfind(",{\"name\":").expect("several params");
        dropped.replace_range(
            start..start + dropped[start..].find("}}]").expect("end") + 2,
            "",
        );
        // A weight value read as NaN (`null`) or ∞ (`1e999`) parses but
        // must not load: the ReLU decoders would hide it in the estimate.
        for bad in [
            truncated,
            swapped,
            dropped,
            first_value("null,"),
            first_value("1e999,"),
        ] {
            assert_ne!(bad, json, "corruption target not found");
            match Snapshot::from_json(&bad) {
                Err(SnapshotError::Invalid(msg)) => assert!(msg.contains("parameter"), "{msg}"),
                other => panic!("expected Invalid, got {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn mismatched_requesting_extractor_is_rejected() {
        let (snap, _, _) = tiny_snapshot(64);
        // An extractor with a different tau_max (and hence decoder count)
        // must be refused even though the snapshot itself is consistent.
        let ds = hm_imagenet(SynthConfig::new(120, 64));
        let wrong_fx = build_extractor(&ds, 12, 1);
        let err = snap
            .validate_for(wrong_fx.as_ref())
            .expect_err("must reject");
        assert!(
            err.to_string().contains("tau_max"),
            "error not descriptive: {err}"
        );
    }

    #[test]
    fn into_estimator_validates_then_serves() {
        let (snap, trainer, fx) = tiny_snapshot(65);
        let ds = hm_imagenet(SynthConfig::new(120, 65));
        let bits = fx.extract(&ds.records[0]);
        let x = Matrix::from_vec(1, bits.len(), bits.to_f32());
        let expect = trainer.model.infer_sum(&trainer.store, &x, 4);
        let est = snap.into_estimator(fx).expect("valid snapshot");
        use crate::estimator::CardinalityEstimator;
        let got = est.estimate(&ds.records[0], ds.theta_max * 0.5);
        assert!(got.is_finite());
        // Same model, same weights: a τ=4 probe through the raw model path
        // must agree with itself after the round trip.
        let got_raw = est.model().infer_sum(est.store(), &x, 4);
        assert_eq!(expect, got_raw);
    }
}
