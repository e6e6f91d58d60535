//! Dataset persistence: JSON-lines import/export so users can bring their
//! own records instead of the synthetic corpora.
//!
//! Format: a one-line JSON header (`DatasetHeader`), then one record per
//! line. Line-oriented JSON keeps files streamable and diff-friendly, and
//! needs no schema tooling.

use crate::dataset::Dataset;
use crate::dist::DistanceKind;
use crate::record::Record;
use serde::{Deserialize, Serialize};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// First line of a dataset file.
#[derive(Serialize, Deserialize, Debug, Clone, PartialEq)]
pub struct DatasetHeader {
    pub name: String,
    pub kind: DistanceKind,
    pub theta_max: f64,
    pub n_records: usize,
}

/// Writes a dataset as header + one JSON record per line.
pub fn save_jsonl(dataset: &Dataset, path: &Path) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut out = BufWriter::new(file);
    let header = DatasetHeader {
        name: dataset.name.clone(),
        kind: dataset.kind,
        theta_max: dataset.theta_max,
        n_records: dataset.len(),
    };
    writeln!(
        out,
        "{}",
        serde_json::to_string(&header).map_err(std::io::Error::other)?
    )?;
    for r in &dataset.records {
        writeln!(
            out,
            "{}",
            serde_json::to_string(r).map_err(std::io::Error::other)?
        )?;
    }
    out.flush()
}

/// Loads a dataset written by [`save_jsonl`]. Validates the record count and
/// that every record matches the header's distance kind.
pub fn load_jsonl(path: &Path) -> std::io::Result<Dataset> {
    let file = std::fs::File::open(path)?;
    let mut lines = BufReader::new(file).lines();
    let header_line = lines
        .next()
        .ok_or_else(|| std::io::Error::other("empty dataset file"))??;
    let header: DatasetHeader =
        serde_json::from_str(&header_line).map_err(std::io::Error::other)?;
    // Not pre-sized from the header: `n_records` is untrusted (u64::MAX
    // would panic, 1e11 abort on a terabyte allocation); the count check
    // below validates it once the records are in.
    let mut records = Vec::new();
    for line in lines {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let record: Record = serde_json::from_str(&line).map_err(std::io::Error::other)?;
        let matches_kind = matches!(
            (&record, header.kind),
            (Record::Bits(_), DistanceKind::Hamming)
                | (Record::Str(_), DistanceKind::Edit)
                | (Record::Set(_), DistanceKind::Jaccard)
                | (Record::Vec(_), DistanceKind::Euclidean)
        );
        if !matches_kind {
            return Err(std::io::Error::other(format!(
                "record type {} does not fit distance {:?}",
                record.kind_name(),
                header.kind
            )));
        }
        records.push(record);
    }
    if records.len() != header.n_records {
        return Err(std::io::Error::other(format!(
            "header promises {} records, file has {}",
            header.n_records,
            records.len()
        )));
    }
    Ok(Dataset::new(
        header.name,
        header.kind,
        records,
        header.theta_max,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{jc_bms, SynthConfig};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("cardest_io_tests");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir.join(name)
    }

    #[test]
    fn jsonl_roundtrip_preserves_dataset() {
        let ds = jc_bms(SynthConfig::new(40, 3));
        let path = tmp("roundtrip.jsonl");
        save_jsonl(&ds, &path).expect("save");
        let back = load_jsonl(&path).expect("load");
        assert_eq!(back.name, ds.name);
        assert_eq!(back.kind, ds.kind);
        assert_eq!(back.theta_max, ds.theta_max);
        assert_eq!(back.records, ds.records);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn kind_mismatch_is_rejected() {
        let ds = jc_bms(SynthConfig::new(5, 4));
        let path = tmp("mismatch.jsonl");
        save_jsonl(&ds, &path).expect("save");
        // Corrupt the header to claim Hamming.
        let content = std::fs::read_to_string(&path).expect("read");
        let corrupted = content.replacen("Jaccard", "Hamming", 1);
        std::fs::write(&path, corrupted).expect("write");
        assert!(load_jsonl(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_is_rejected() {
        let ds = jc_bms(SynthConfig::new(10, 5));
        let path = tmp("truncated.jsonl");
        save_jsonl(&ds, &path).expect("save");
        let content = std::fs::read_to_string(&path).expect("read");
        let lines: Vec<&str> = content.lines().collect();
        std::fs::write(&path, lines[..lines.len() - 2].join("\n")).expect("write");
        assert!(load_jsonl(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hostile_record_count_is_an_error_not_an_allocation() {
        let ds = jc_bms(SynthConfig::new(3, 6));
        let path = tmp("hostile_count.jsonl");
        save_jsonl(&ds, &path).expect("save");
        let content = std::fs::read_to_string(&path).expect("read");
        for count in [u64::MAX, 100_000_000_000] {
            let hostile = content.replacen("\"n_records\":3", &format!("\"n_records\":{count}"), 1);
            assert_ne!(hostile, content, "header field not found");
            std::fs::write(&path, hostile).expect("write");
            let err = load_jsonl(&path).expect_err("count disagrees with the file");
            assert!(err.to_string().contains("header promises"), "{err}");
        }
        std::fs::remove_file(&path).ok();
    }
}
