//! Everything a run feeds the program, generated from the workload seed and
//! nothing else: corpora, query sets, key streams, arrival schedules and the
//! update stream. The program under test only ever sees these values.

use cardest_data::synth::{self, SynthConfig};
use cardest_data::zipf::Zipf;
use cardest_data::{Dataset, Record};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Records per corpus (the repository's quick experiment scale).
pub const N_RECORDS: usize = 1500;
/// Decoder ceiling handed to feature extraction: 17 τ steps.
pub const TAU_MAX: usize = 16;
/// Threshold-grid resolution: 13 grid points including θ = 0.
pub const N_THRESHOLDS: usize = 12;
/// Training and validation queries per corpus (the quick scale's 80% and
/// 10% of a 12% workload sample).
pub const N_TRAIN: usize = 144;
pub const N_VALID: usize = 18;
/// Held-out queries per corpus for q-error and monotonicity: every record
/// the training and validation queries did not use, far more than the
/// quick scale's 18-query test split. The workload seed orders them, and
/// `estimate-offline` times the single-query path on the first
/// [`N_TIMED`].
#[cfg(test)]
pub const N_HELDOUT: usize = N_RECORDS - N_TRAIN - N_VALID;
pub const N_TIMED: usize = 64;

/// Seed of the corpora and of the training queries: the quick experiment
/// scale's. Corpora and trained models are fixtures shared by every run, so
/// accuracy differences between runs come from the held-out draw alone;
/// the workload seed drives held-out queries, keys, arrivals and updates.
pub const CORPUS_SEED: u64 = 0xBEEF;

/// Derives an independent stream seed from the workload seed (splitmix64).
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One corpus and the queries drawn from it.
#[derive(Clone, Debug)]
pub struct Corpus {
    pub dataset: Dataset,
    /// Ascending threshold grid `0 … θ_max`.
    pub grid: Vec<f64>,
    pub train: Vec<Record>,
    pub valid: Vec<Record>,
    pub heldout: Vec<Record>,
}

impl PartialEq for Corpus {
    fn eq(&self, other: &Corpus) -> bool {
        let (a, b) = (&self.dataset, &other.dataset);
        a.name == b.name
            && a.kind == b.kind
            && a.theta_max == b.theta_max
            && a.records == b.records
            && (&self.grid, &self.train, &self.valid, &self.heldout)
                == (&other.grid, &other.train, &other.valid, &other.heldout)
    }
}

/// Splits the training queries (fixed by the corpus seed) and the held-out
/// queries (the remaining records, ordered by the workload seed) out of
/// `dataset`.
fn corpus(dataset: Dataset, corpus_seed: u64, seed: u64) -> Corpus {
    let mut idx: Vec<usize> = (0..dataset.len()).collect();
    idx.shuffle(&mut StdRng::seed_from_u64(corpus_seed));
    let rest = &mut idx[N_TRAIN + N_VALID..];
    rest.shuffle(&mut StdRng::seed_from_u64(seed));
    let take = |range: std::ops::Range<usize>| -> Vec<Record> {
        idx[range]
            .iter()
            .map(|&i| dataset.records[i].clone())
            .collect()
    };
    let train = take(0..N_TRAIN);
    let valid = take(N_TRAIN..N_TRAIN + N_VALID);
    let heldout = take(N_TRAIN + N_VALID..dataset.len());
    let grid = cardest_data::Workload::uniform_grid(dataset.theta_max, N_THRESHOLDS);
    Corpus {
        dataset,
        grid,
        train,
        valid,
        heldout,
    }
}

/// The four default corpora, one per distance domain: HM, ED, JC, EU.
pub fn four_corpora(seed: u64) -> Vec<Corpus> {
    synth::default_four(N_RECORDS, CORPUS_SEED)
        .into_iter()
        .enumerate()
        .map(|(i, ds)| {
            corpus(
                ds,
                mix(CORPUS_SEED, 10 + i as u64),
                mix(seed, 10 + i as u64),
            )
        })
        .collect()
}

/// The HM (Hamming) corpus alone, as the serving workloads use it.
pub fn hm_corpus(seed: u64) -> Corpus {
    corpus(
        synth::hm_imagenet(SynthConfig::new(N_RECORDS, CORPUS_SEED)),
        mix(CORPUS_SEED, 10),
        mix(seed, 10),
    )
}

/// θ that lands on τ step `step` of a proportional extractor: the middle of
/// the step's θ interval, and θ_max itself for the last step.
pub fn theta_of_step(theta_max: f64, step: usize) -> f64 {
    theta_max * ((step as f64 + 0.5) / TAU_MAX as f64).min(1.0)
}

/// A served key: a corpus record and a τ step.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key {
    pub record: usize,
    pub step: usize,
}

/// Zipf-skewed keys over every `(record, τ step)` pair of a corpus. Ranks
/// map to keys through a seeded permutation, so hot keys are spread over
/// records and thresholds rather than clustered on low indices.
pub struct KeySpace {
    keys: Vec<Key>,
    zipf: Zipf,
}

/// Zipf exponent of key popularity.
pub const ZIPF_EXPONENT: f64 = 1.0;

impl KeySpace {
    pub fn new(n_records: usize, seed: u64) -> KeySpace {
        let mut keys: Vec<Key> = (0..n_records)
            .flat_map(|record| (0..=TAU_MAX).map(move |step| Key { record, step }))
            .collect();
        keys.shuffle(&mut StdRng::seed_from_u64(seed));
        let zipf = Zipf::new(keys.len(), ZIPF_EXPONENT);
        KeySpace { keys, zipf }
    }

    /// `n` keys drawn from `rng`.
    pub fn draw(&self, rng: &mut StdRng, n: usize) -> Vec<Key> {
        (0..n).map(|_| self.keys[self.zipf.sample(rng)]).collect()
    }
}

/// Offsets from the start of a phase at which requests are due: Poisson
/// arrivals at `rate` per second over `seconds`.
pub fn poisson_schedule(rate: f64, seconds: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut at = 0.0f64;
    let mut due = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    loop {
        at += -(1.0 - rng.gen::<f64>()).ln() / rate;
        if at >= seconds {
            return due;
        }
        due.push(at);
    }
}

/// One Fig. 8-style update: insert or delete five records.
#[derive(Clone, Debug, PartialEq)]
pub enum UpdateOp {
    /// New records, each a near-duplicate of an existing one.
    Insert(Vec<Record>),
    /// Positions removed one after another with `Vec::swap_remove`.
    Delete(Vec<usize>),
}

/// Records touched by one update.
pub const UPDATE_RECORDS: usize = 5;

/// A stream of `n` updates against `dataset`, applied to a copy as it is
/// drawn so delete positions stay valid as the corpus changes.
pub fn update_stream(dataset: &Dataset, n: usize, seed: u64) -> Vec<UpdateOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sim = dataset.clone();
    (0..n)
        .map(|_| {
            let len = sim.len();
            let op = if rng.gen_bool(0.5) {
                UpdateOp::Insert(
                    (0..UPDATE_RECORDS)
                        .map(|_| {
                            let mut bits = sim.records[rng.gen_range(0..len)].as_bits().clone();
                            for _ in 0..2 {
                                bits.flip(rng.gen_range(0..bits.len()));
                            }
                            Record::Bits(bits)
                        })
                        .collect(),
                )
            } else {
                UpdateOp::Delete(
                    (0..UPDATE_RECORDS)
                        .map(|k| rng.gen_range(0..len - k))
                        .collect(),
                )
            };
            apply(&mut sim, &op);
            op
        })
        .collect()
}

/// Applies one update to the live corpus.
pub fn apply(dataset: &mut Dataset, op: &UpdateOp) {
    match op {
        UpdateOp::Insert(added) => dataset.records.extend(added.iter().cloned()),
        UpdateOp::Delete(positions) => {
            for &p in positions {
                dataset.records.swap_remove(p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_inputs() {
        assert_eq!(four_corpora(7), four_corpora(7));
        assert_eq!(hm_corpus(7), hm_corpus(7));
        assert_eq!(
            poisson_schedule(500.0, 1.0, 7),
            poisson_schedule(500.0, 1.0, 7)
        );
        let ks = KeySpace::new(300, 7);
        let draw = |seed| ks.draw(&mut StdRng::seed_from_u64(seed), 200);
        assert_eq!(draw(3), draw(3));
        let ds = hm_corpus(7).dataset;
        assert_eq!(update_stream(&ds, 20, 7), update_stream(&ds, 20, 7));
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        let (a, b) = (hm_corpus(7), hm_corpus(8));
        assert_eq!(
            a.dataset.records, b.dataset.records,
            "the corpus is a fixture"
        );
        assert_eq!(a.train, b.train, "so are the training queries");
        assert_ne!(a.heldout, b.heldout);
        assert_ne!(
            poisson_schedule(500.0, 1.0, 7),
            poisson_schedule(500.0, 1.0, 8)
        );
    }

    #[test]
    fn query_sets_split_the_corpus() {
        for c in four_corpora(3).into_iter().chain([hm_corpus(3)]) {
            assert_eq!(c.train.len(), N_TRAIN);
            assert_eq!(c.valid.len(), N_VALID);
            assert_eq!(c.heldout.len(), N_HELDOUT);
            assert_eq!(N_TRAIN + N_VALID + N_HELDOUT, c.dataset.len());
            assert!(c.heldout.iter().all(|q| c.dataset.records.contains(q)));
            assert_eq!(c.grid.len(), N_THRESHOLDS + 1);
            let last = *c.grid.last().expect("grid");
            assert!((last - c.dataset.theta_max).abs() <= 1e-12 * c.dataset.theta_max);
        }
    }

    #[test]
    fn update_stream_replays_onto_the_corpus() {
        let mut ds = hm_corpus(5).dataset;
        let ops = update_stream(&ds, 40, 5);
        let before = ds.len();
        for op in &ops {
            apply(&mut ds, op);
        }
        let inserts = ops
            .iter()
            .filter(|op| matches!(op, UpdateOp::Insert(_)))
            .count();
        assert_eq!(
            ds.len() + (ops.len() - inserts) * UPDATE_RECORDS,
            before + inserts * UPDATE_RECORDS
        );
    }

    #[test]
    fn schedule_rate_and_keys_are_plausible() {
        let due = poisson_schedule(2000.0, 2.0, 1);
        assert!((3600..4400).contains(&due.len()), "{}", due.len());
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        let ks = KeySpace::new(N_RECORDS, 1);
        assert_eq!(ks.keys.len(), N_RECORDS * (TAU_MAX + 1));
        let keys = ks.draw(&mut StdRng::seed_from_u64(2), 1000);
        assert!(keys
            .iter()
            .all(|k| k.record < N_RECORDS && k.step <= TAU_MAX));
    }
}
