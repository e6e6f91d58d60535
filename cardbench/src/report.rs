//! A run's result: named metrics with unit and sample count, output-check
//! tallies, and the host fingerprint. Printed as readable lines followed by
//! the one-line JSON object that ends standard output.

use crate::stats::{Latency, Percentile};
use std::fmt::Write as _;

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (repeats, requests, rows, …).
    pub n: usize,
    /// How the value was taken, e.g. `p99` or `median of 3`.
    pub how: String,
}

/// What one output check saw.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: &'static str,
    pub checked: u64,
    pub failed: u64,
}

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub checks: Vec<Check>,
    /// Operations the run issued against the program.
    pub attempted: u64,
    /// Free-form `key=value` notes printed with the result (never parsed).
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, n: usize, how: &str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            n,
            how: how.to_string(),
        });
    }

    /// A percentile under the name `name`, labelled with which one it is.
    pub fn percentile(&mut self, name: &str, p: Percentile, unit: &'static str) {
        self.metric(name, p.value, unit, p.n, &p.label());
    }

    /// `<prefix>.p50` and `<prefix>.tail` of a latency sample, or zeros with
    /// `n = 0` when the sample cannot support a median.
    pub fn latency_pair(&mut self, prefix: &str, l: Option<Latency>, unit: &'static str) {
        match l {
            Some(l) => {
                self.percentile(&format!("{prefix}.p50"), l.p50, unit);
                self.percentile(&format!("{prefix}.tail"), l.tail, unit);
            }
            None => {
                self.metric(&format!("{prefix}.p50"), 0.0, unit, 0, "no sample");
                self.metric(&format!("{prefix}.tail"), 0.0, unit, 0, "no sample");
            }
        }
    }

    pub fn check(&mut self, name: &'static str, checked: u64, failed: u64) {
        self.checks.push(Check {
            name,
            checked,
            failed,
        });
    }

    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn failed(&self) -> u64 {
        let non_finite = self.metrics.iter().filter(|m| !m.value.is_finite()).count() as u64;
        self.checks.iter().map(|c| c.failed).sum::<u64>() + non_finite
    }

    /// Readable lines: notes, every metric with unit and sample count, and
    /// every check.
    pub fn human(&self) -> String {
        let mut s = String::new();
        for n in &self.notes {
            let _ = writeln!(s, "# {n}");
        }
        for m in &self.metrics {
            let _ = writeln!(
                s,
                "metric {:<34} {:>14.4} {:<8} ({}, n={})",
                m.name, m.value, m.unit, m.how, m.n
            );
        }
        for c in &self.checks {
            let verdict = if c.failed == 0 { "ok" } else { "FAILED" };
            let _ = writeln!(
                s,
                "check  {:<34} {verdict}: {} failed of {}",
                c.name, c.failed, c.checked
            );
        }
        s
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and the
    /// metrics named in `names` with their units, in that order. A metric
    /// that is not finite counts as a failure; so does a missing one when
    /// `missing_fails`, and otherwise it reads 0 (a layer the workload does
    /// not run).
    pub fn json_line(&self, names: &[(&str, &str)], missing_fails: bool) -> String {
        let mut failed = self.failed();
        let mut body = Vec::new();
        for &(name, unit) in names {
            let value = match self.get(name) {
                Some(m) if m.value.is_finite() => m.value,
                Some(_) => 0.0,
                None => {
                    failed += u64::from(missing_fails);
                    0.0
                }
            };
            body.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0,
            self.attempted.max(1),
            body.join(", ")
        )
    }
}

/// Shortest round-trip decimal form of `v` (all its digits), always with a
/// fraction or exponent so it reads as a JSON number.
fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Resident-set high-water mark of this process, MB (Linux `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The host and build a result was measured on.
pub fn fingerprint(seed: u64) -> Vec<String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cmd = |prog: &str, args: &[&str]| {
        std::process::Command::new(prog)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
    };
    vec![
        format!("nproc={nproc}"),
        format!("simd={}", cardest_nn::KernelBackend::simd_support()),
        format!(
            "kernel_backend={}",
            cardest_nn::KernelBackend::default_backend().label()
        ),
        // Only a repository rooted in the working directory is asked, so
        // git never searches the directories above it.
        format!(
            "git_rev={}",
            std::path::Path::new(".git")
                .exists()
                .then(|| cmd("git", &["rev-parse", "HEAD"]))
                .flatten()
                .unwrap_or_else(|| "none".into())
        ),
        format!(
            "rustc={}",
            cmd("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())
        ),
        "scale=quick".to_string(),
        format!("seed={seed}"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            attempted: 12,
            ..Report::default()
        };
        r.metric("a_ms", 1.25, "ms", 3, "median of 3");
        r.metric("b", 2.0, "count", 1, "exact");
        r.check("bits", 10, 0);
        let line = r.json_line(&[("a_ms", "ms"), ("b", "count")], true);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn failures_and_missing_metrics_make_the_run_incorrect() {
        let mut r = Report::default();
        r.check("monotone", 5, 2);
        let line = r.json_line(&[("absent", "us")], true);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 3,"));
        assert!(r
            .json_line(&[("absent", "us")], false)
            .contains("\"failed\": 2,"));
        let mut r = Report::default();
        r.metric("x", f64::NAN, "us", 0, "");
        assert!(r.json_line(&[("x", "us")], true).contains("\"failed\": 1"));
    }
}
