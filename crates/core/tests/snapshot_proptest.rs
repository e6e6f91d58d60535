//! Property tests for snapshot loading (`cardest_core::snapshot`).
//!
//! A model file is untrusted input: it may be truncated, bit-rotted, edited
//! by hand or written by an attacker. Whatever bytes arrive,
//! [`Snapshot::from_json`] must return `Ok` or a typed [`SnapshotError`] —
//! never panic, overflow the stack or allocate without bound. Each property
//! starts from a valid snapshot and mutates it one way: truncation, byte
//! flips, hostile number literals (`null`, `1e999`, `NaN`, integers past
//! `usize`), deep nesting, and malformed `\u` escapes.

use cardest_core::{CardNetConfig, Snapshot, SnapshotError, Trainer, TrainerOptions};
use proptest::prelude::*;

/// A small untrained model (VAE included, so every parameter kind is in the
/// file) serialized the way `cardest_cli train` writes it.
fn valid_json() -> String {
    let (input_dim, n_out) = (12, 5);
    let mut cfg = CardNetConfig::new(input_dim, n_out);
    cfg.phi_hidden = vec![8];
    cfg.z_dim = 4;
    cfg.vae_hidden = vec![6];
    cfg.vae_latent = 2;
    let trainer = Trainer::new(cfg, TrainerOptions::quick(), vec![0.2; n_out]);
    let json = Snapshot::from_trainer(&trainer, "hm", n_out - 1)
        .to_json()
        .expect("serialize");
    Snapshot::from_json(&json).expect("the unmutated snapshot loads");
    json
}

/// The property: a typed outcome, and an accepted snapshot is one that
/// re-serializes and loads again.
fn check(mutated: &str) {
    match Snapshot::from_json(mutated) {
        Ok(snap) => {
            let again = snap.to_json().expect("re-serialize");
            assert!(
                Snapshot::from_json(&again).is_ok(),
                "accepted once, not twice"
            );
        }
        Err(SnapshotError::Serde(_) | SnapshotError::Invalid(_)) => {}
    }
}

/// Byte ranges of the number literals in `json` (values, not key text).
fn number_spans(json: &str) -> Vec<(usize, usize)> {
    let b = json.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let starts_value = i > 0 && matches!(b[i - 1], b':' | b',' | b'[');
        if starts_value && (b[i] == b'-' || b[i].is_ascii_digit()) {
            let end = i + json[i..].find([',', ']', '}']).unwrap_or(json.len() - i);
            spans.push((i, end));
            i = end;
        } else {
            i += 1;
        }
    }
    spans
}

fn splice(json: &str, (start, end): (usize, usize), with: &str) -> String {
    format!("{}{with}{}", &json[..start], &json[end..])
}

const HOSTILE_NUMBERS: [&str; 13] = [
    "null",
    "1e999",
    "-1e999",
    "NaN",
    "-1",
    "-0",
    "0",
    "1e18",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "\"7\"",
    "{}",
];

const BAD_ESCAPES: [&str; 8] = [
    r"\uD800\u0041",
    r"\uD800A",
    r"\uDBFF",
    r"\uDC00",
    r"\uD800",
    r"\u+041",
    r"\u12",
    r"\uZZZZ",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn truncated_snapshots_are_typed_errors(cut in any::<prop::sample::Index>()) {
        let json = valid_json();
        let cut = cut.index(json.len());
        match Snapshot::from_json(&json[..cut]) {
            Err(SnapshotError::Serde(_) | SnapshotError::Invalid(_)) => {}
            Ok(_) => panic!("a snapshot cut at byte {cut} of {} loaded", json.len()),
        }
    }

    #[test]
    fn byte_flips_never_panic(
        at in prop::collection::vec(any::<prop::sample::Index>(), 1..8),
        bytes in prop::collection::vec(32u8..127, 8..9),
    ) {
        let mut json = valid_json().into_bytes();
        for (i, b) in at.iter().zip(&bytes) {
            let i = i.index(json.len());
            json[i] = *b;
        }
        // Printable ASCII in, so the mutant is still a `&str`.
        check(std::str::from_utf8(&json).expect("ascii"));
    }

    #[test]
    fn hostile_numbers_are_typed_errors_or_valid(
        at in any::<prop::sample::Index>(),
        pick in 0usize..HOSTILE_NUMBERS.len(),
    ) {
        let json = valid_json();
        let spans = number_spans(&json);
        check(&splice(&json, spans[at.index(spans.len())], HOSTILE_NUMBERS[pick]));
    }

    #[test]
    fn deep_nesting_is_a_typed_error(
        at in any::<prop::sample::Index>(),
        depth in 1usize..60_000,
    ) {
        let json = valid_json();
        let spans = number_spans(&json);
        let nested = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        check(&splice(&json, spans[at.index(spans.len())], &nested));
        // Unclosed, too: the parser must stop at its depth cap either way.
        let open = "[".repeat(depth);
        check(&splice(&json, spans[at.index(spans.len())], &open));
    }

    #[test]
    fn bad_unicode_escapes_are_typed_errors(
        pick in 0usize..BAD_ESCAPES.len(),
        in_param_name: bool,
    ) {
        let json = valid_json();
        let key = if in_param_name { "\"name\":\"" } else { "\"extractor\":\"" };
        let start = json.find(key).expect("string field") + key.len();
        let end = start + json[start..].find('"').expect("closing quote");
        match Snapshot::from_json(&splice(&json, (start, end), BAD_ESCAPES[pick])) {
            Err(SnapshotError::Serde(_)) => {}
            other => panic!("{} accepted: {:?}", BAD_ESCAPES[pick], other.map(|_| ())),
        }
    }
}
