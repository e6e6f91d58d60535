//! Order statistics under the benchmark's reporting rule: a timing is a
//! median plus the highest percentile that still has at least
//! [`MIN_BEYOND`] samples beyond it, always printed with its sample count.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles tried, highest first, when looking for a reportable tail.
const TAIL_LADDER: [f64; 7] = [0.99, 0.98, 0.95, 0.90, 0.75, 0.60, 0.50];

/// One reported percentile: which one, its value, and the sample behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The quantile in `(0, 1)`, e.g. `0.99`.
    pub q: f64,
    pub value: f64,
    /// Samples the percentile was taken over.
    pub n: usize,
}

impl Percentile {
    /// `p99`, `p95`, … — the label printed beside the value.
    pub fn label(&self) -> String {
        format!("p{}", (self.q * 100.0).round() as u32)
    }
}

/// Nearest-rank index of quantile `q` in a sample of `n`: the smallest rank
/// whose cumulative share reaches `q`.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank position of `q`.
fn beyond(n: usize, q: f64) -> usize {
    n - 1 - rank(n, q)
}

/// The nearest-rank `q`-quantile of `sorted` (ascending), or `None` when the
/// sample leaves fewer than [`MIN_BEYOND`] values beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<Percentile> {
    let n = sorted.len();
    if n == 0 || beyond(n, q) < MIN_BEYOND {
        return None;
    }
    Some(Percentile {
        q,
        value: sorted[rank(n, q)],
        n,
    })
}

/// The highest percentile, at most `max_q`, that has at least
/// [`MIN_BEYOND`] samples beyond it.
pub fn tail(sorted: &[f64], max_q: f64) -> Option<Percentile> {
    TAIL_LADDER
        .iter()
        .filter(|&&q| q <= max_q)
        .find_map(|&q| percentile(sorted, q))
}

/// Median of a sample; the mean of the two middle values for even sizes.
/// Used for repeated measurements (set-up times, throughput windows), where
/// the percentile rule does not apply.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A latency sample summarised as median and tail.
#[derive(Clone, Copy, Debug)]
pub struct Latency {
    pub p50: Percentile,
    pub tail: Percentile,
}

/// Sorts `samples` and summarises it; `None` when even the median lacks
/// [`MIN_BEYOND`] samples beyond it.
pub fn latency(mut samples: Vec<f64>) -> Option<Latency> {
    samples.sort_by(f64::total_cmp);
    Some(Latency {
        p50: percentile(&samples, 0.50)?,
        tail: tail(&samples, 0.99)?,
    })
}

/// Samples per window of [`windowed_tail`]: the fewest that still leave
/// [`MIN_BEYOND`] samples beyond a p99.
pub const WINDOW: usize = 1000;

/// A percentile of a time-ordered sample taken per window: consecutive
/// windows of [`WINDOW`] samples each report `pick` of their sorted values,
/// and the median window value is returned. A host stall of a few
/// milliseconds then moves the windows it falls in rather than the whole
/// run, while a queue that grows for most of the sample still shows. A
/// sample shorter than one window falls back to `pick` over all of it. `n`
/// counts every sample.
fn windowed(in_order: &[f64], pick: impl Fn(&[f64]) -> Option<Percentile>) -> Option<Percentile> {
    let sorted = |w: &[f64]| {
        let mut w = w.to_vec();
        w.sort_by(f64::total_cmp);
        w
    };
    if in_order.len() < WINDOW {
        return pick(&sorted(in_order));
    }
    let picks: Vec<Percentile> = in_order
        .chunks_exact(WINDOW)
        .map(|w| pick(&sorted(w)))
        .collect::<Option<Vec<_>>>()?;
    let values: Vec<f64> = picks.iter().map(|p| p.value).collect();
    Some(Percentile {
        q: picks[0].q,
        value: median(&values),
        n: in_order.len(),
    })
}

/// [`windowed`] p99 (or the highest percentile up to `max_q` that a window
/// supports).
pub fn windowed_tail(in_order: &[f64], max_q: f64) -> Option<Percentile> {
    windowed(in_order, |w| tail(w, max_q))
}

/// [`windowed`] median.
pub fn windowed_median(in_order: &[f64]) -> Option<Percentile> {
    windowed(in_order, |w| percentile(w, 0.5))
}

/// Symmetric q-error `max(c/ĉ, ĉ/c)`, both sides clamped to at least 1 so
/// empty selections and zero estimates stay finite (the paper's §9.2
/// convention).
pub fn q_error(actual: f64, estimate: f64) -> f64 {
    let c = actual.max(1.0);
    let e = estimate.max(1.0);
    (c / e).max(e / c)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn p99_of_a_thousand_has_exactly_ten_beyond() {
        let s = one_to(1000);
        let p = percentile(&s, 0.99).expect("1000 samples support p99");
        assert_eq!(p.value, 990.0);
        assert_eq!(p.n, 1000);
        assert_eq!(s.iter().filter(|&&v| v > p.value).count(), 10);
        assert_eq!(p.label(), "p99");
    }

    #[test]
    fn p99_is_refused_below_ten_samples_beyond() {
        assert!(percentile(&one_to(999), 0.99).is_none());
        assert!(percentile(&one_to(500), 0.99).is_none());
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn tail_falls_back_to_the_highest_supported_percentile() {
        let p = tail(&one_to(500), 0.99).expect("500 samples support p98");
        assert_eq!((p.q, p.value, p.n), (0.98, 490.0, 500));
        let p = tail(&one_to(40), 0.99).expect("40 samples support p75");
        assert_eq!((p.q, p.value), (0.75, 30.0));
        assert_eq!(tail(&one_to(21), 0.99).map(|p| p.q), Some(0.5));
        assert!(tail(&one_to(20), 0.99).is_some());
        assert!(tail(&one_to(19), 0.99).is_none());
    }

    #[test]
    fn every_reported_tail_keeps_ten_beyond() {
        for n in 21..600 {
            let s = one_to(n);
            let p = tail(&s, 0.99).expect("n > 20 supports the median");
            assert!(s.iter().filter(|&&v| v > p.value).count() >= MIN_BEYOND);
        }
    }

    #[test]
    fn latency_needs_a_supported_median() {
        assert!(latency(one_to(19)).is_none());
        let l = latency((0..100).rev().map(f64::from).collect()).expect("100 samples");
        assert_eq!(l.p50.value, 49.0);
        assert_eq!(l.tail.label(), "p90");
        assert_eq!(l.tail.value, 89.0);
    }

    #[test]
    fn windowed_tail_takes_the_median_window() {
        // Four windows of 1000 plus a partial one; one holds a stall far
        // above the others.
        let mut v: Vec<f64> = (0..4).flat_map(|_| one_to(WINDOW)).collect();
        v.extend(one_to(10));
        for x in &mut v[1000..1100] {
            *x = 1e6;
        }
        let p = windowed_tail(&v, 0.99).expect("each window supports p99");
        assert_eq!((p.q, p.value, p.n), (0.99, 990.0, 4010));
        assert_eq!(windowed_tail(&one_to(500), 0.99).map(|p| p.q), Some(0.98));
        assert!(windowed_tail(&one_to(19), 0.99).is_none());
        let p = windowed_median(&v).expect("each window supports p50");
        assert_eq!((p.q, p.value), (0.5, 500.0));
    }

    #[test]
    fn median_and_q_error_on_known_inputs() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(q_error(10.0, 5.0), 2.0);
        assert_eq!(q_error(5.0, 10.0), 2.0);
        assert_eq!(q_error(0.0, 0.2), 1.0);
    }
}
