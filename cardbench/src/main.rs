//! `cardbench`: the repository's benchmark. One run measures one workload
//! for one seed and prints every metric with its unit and sample count,
//! then, as the last line of standard output, one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//!
//! ```text
//! cargo run --release --manifest-path cardbench/Cargo.toml -- \
//!     --workload estimate-offline --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` is a separate run
//! that records spans around every call into a layer, writes them to
//! `cardbench/out/`, and reports the per-layer metrics. Any failed output
//! check makes the exit code non-zero. See `cardbench/BENCHMARK.md`.

mod inputs;
mod loadgen;
mod offline;
mod probes;
mod report;
mod serve;
mod setup;
mod spans;
mod stats;
mod update;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics, reported by every workload with `--trace 0`.
/// `latency_p50_us` and `latency_p99_us` are printed by every timed run
/// too, but stay out of the result line: on the shared 2-core host the
/// benchmark was tuned on, their spread over ten runs reached 0.3 and 1.2
/// on the serving workloads, beyond any bound a regression gate can use.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("qerror_mean", "ratio"),
    ("qerror_p95", "ratio"),
];

/// Per-layer metrics, reported with `--trace 1`. A layer a workload does not
/// run reads 0 there.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("fx.extract_us.hm", "us"),
    ("fx.extract_us.ed", "us"),
    ("fx.extract_us.jc", "us"),
    ("fx.extract_us.eu", "us"),
    ("nn.matmul_gflops.single", "GFLOP/s"),
    ("nn.matmul_gflops.batch", "GFLOP/s"),
    ("nn.matmul_gflops.train", "GFLOP/s"),
    ("model.encode_us", "us"),
    ("model.decode_us", "us"),
    ("estimator.features_us_per_row", "us"),
    ("model.infer_batch_us_per_row", "us"),
    ("core.extractions_per_estimate", "count"),
    ("core.encoder_passes_per_estimate", "count"),
    ("select.label_ms", "ms"),
    ("train.fit_s", "s"),
    ("train.epochs_run", "count"),
    ("train.epoch_ms", "ms"),
    ("train.val_msle", "ratio"),
    ("incremental.on_update_ms.p50", "ms"),
    ("incremental.on_update_ms.tail", "ms"),
    ("incremental.retrain_count", "count"),
    ("registry.publish_ms", "ms"),
    ("update.p50_ms", "ms"),
    ("update.tail_ms", "ms"),
    ("service.queue_wait_us.p50", "us"),
    ("service.queue_wait_us.tail", "us"),
    ("service.batch_window_us.p50", "us"),
    ("service.batch_window_us.tail", "us"),
    ("service.model_us.p50", "us"),
    ("service.model_us.tail", "us"),
    ("service.batch_mean", "count"),
    ("cache.exact_hit_frac", "ratio"),
    ("cache.bound_hit_frac", "ratio"),
    ("service.coalesced_frac", "ratio"),
    ("service.computed_frac", "ratio"),
    ("service.shed_frac", "ratio"),
    ("net.overhead_us", "us"),
    ("loadgen.lag_p99_us", "us"),
    ("trace.explained_frac", "ratio"),
    ("obs.trace_overhead_frac", "ratio"),
];

const WORKLOADS: [&str; 3] = ["estimate-offline", "serve-zipf", "update-mixed"];

/// Set-ups per timed run; `setup_s` is their median. Four corpora take
/// seconds to set up, one takes well under a second.
const SETUP_REPEATS_OFFLINE: usize = 3;
const SETUP_REPEATS_HM: usize = 7;

/// One run's parameters.
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl RunConfig {
    /// Timed runs set up several times for a steady `setup_s`; the traced
    /// run sets up once.
    pub fn setups(&self) -> usize {
        match (self.trace, self.workload.as_str()) {
            (true, _) => 1,
            (false, "estimate-offline") => SETUP_REPEATS_OFFLINE,
            _ => SETUP_REPEATS_HM,
        }
    }

    /// Where the traced run writes its spans, inside the checkout.
    pub fn spans_path(&self) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.jsonl", self.workload, self.seed))
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!(
        "cardbench: {msg}\nusage: cardbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut cfg = RunConfig {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => cfg.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!("unknown workload `{}`", cfg.workload));
    }
    if !(cfg.seconds.is_finite() && cfg.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(msg) => return usage(&msg),
    };
    let mut rep = Report::default();
    rep.note(format!(
        "cardbench workload={} seconds={} trace={}",
        cfg.workload, cfg.seconds, cfg.trace as u8
    ));
    for f in report::fingerprint(cfg.seed) {
        rep.note(f);
    }
    match cfg.workload.as_str() {
        "estimate-offline" => offline::run(&cfg, &mut rep),
        "serve-zipf" => serve::run(&cfg, &mut rep),
        _ => update::run(&cfg, &mut rep),
    }
    rep.metric(
        "peak_rss_mb",
        report::peak_rss_mb(),
        "MB",
        1,
        "VmHWM at run end",
    );
    let names: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    print!("{}", rep.human());
    let line = rep.json_line(names, !cfg.trace);
    println!("{line}");
    if rep.failed() == 0 && line.starts_with("{\"correct\": true") {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn benchmark_json_names_every_metric_with_its_unit() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = json.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(compact.contains(&format!("\"name\":\"{w}\"")), "{w}");
        }
        let listed = compact.matches("\"name\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len());
    }

    #[test]
    fn arguments_parse_and_reject() {
        let cfg = parse(&args(
            "--workload serve-zipf --seed 7 --seconds 3 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (cfg.workload.as_str(), cfg.seed, cfg.seconds, cfg.trace),
            ("serve-zipf", 7, 3.0, true)
        );
        assert_eq!(cfg.setups(), 1);
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload serve-zipf --seed x --seconds 1 --trace 0",
            "--workload serve-zipf --seed 1 --seconds 0 --trace 0",
            "--workload serve-zipf --seed 1 --seconds 1 --trace 2",
            "--workload serve-zipf --seed",
            "--bogus 1",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }

    /// A shortened pass of `workload`: every output check runs and passes,
    /// and every metric the result line names is produced.
    fn short_pass(workload: &str, trace: bool) {
        let cfg = RunConfig {
            workload: workload.to_string(),
            seed: 3,
            seconds: 1.0,
            trace,
        };
        let mut rep = Report::default();
        match workload {
            "estimate-offline" => offline::run(&cfg, &mut rep),
            "serve-zipf" => serve::run(&cfg, &mut rep),
            _ => update::run(&cfg, &mut rep),
        }
        assert!(rep.attempted > 0);
        assert!(!rep.checks.is_empty());
        for c in &rep.checks {
            assert_eq!(c.failed, 0, "{workload}: check {} failed", c.name);
        }
        assert_eq!(rep.failed(), 0, "{workload}: {}", rep.human());
        if trace {
            assert!(rep
                .get("trace.explained_frac")
                .is_some_and(|m| m.value > 0.9));
        } else {
            let printed = [("latency_p50_us", "us"), ("latency_p99_us", "us")];
            for (name, _) in END_TO_END
                .iter()
                .chain(&printed)
                .filter(|(n, _)| *n != "peak_rss_mb")
            {
                let m = rep
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload}: no {name}"));
                assert!(m.value > 0.0, "{workload}: {name} = {}", m.value);
            }
        }
    }

    #[test]
    fn short_offline_pass_checks_its_outputs() {
        short_pass("estimate-offline", true);
    }

    #[test]
    fn short_serve_passes_check_their_outputs() {
        short_pass("serve-zipf", false);
        short_pass("serve-zipf", true);
    }

    #[test]
    fn short_update_passes_check_their_outputs() {
        short_pass("update-mixed", false);
        short_pass("update-mixed", true);
    }
}
