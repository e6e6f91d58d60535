//! Open-loop load: requests go out at due times fixed in advance (Poisson
//! arrivals at an absolute rate), never paced by answers, and every latency
//! is timed from the due time, so a stall also charges the requests queued
//! behind it. One sender thread and one receiver thread per phase.

use crate::inputs::Key;
use crate::offline;
use crate::report::Report;
use crate::spans::Spans;
use crate::stats;
use cardest_core::{CardinalityEstimator, PreparedQuery};
use cardest_data::Record;
use cardest_serve::{
    Decoder, EstimateSource, Frame, Request, RequestFrame, ServeModel, ServiceClient, WireQuery,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{self, RecvTimeoutError, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every n-th socket request carries its record inline as `Bits` instead of
/// a dataset index, as `exp_serve` does.
const INLINE_EVERY: usize = 7;

/// A served answer, from either transport.
#[derive(Clone, Copy, Debug)]
pub struct Answer {
    pub estimate: f64,
    pub epoch: u64,
    pub degraded: bool,
    pub lo: f64,
    pub hi: f64,
}

/// One request of a phase and what became of it.
#[derive(Clone, Debug)]
pub struct Sample {
    pub key: Key,
    pub due: Instant,
    pub sent: Option<Instant>,
    pub done: Option<Instant>,
    /// `Err` holds why the request failed: refused, error frame, protocol
    /// violation, or no answer.
    pub answer: Result<Answer, String>,
}

impl Sample {
    fn new(key: Key, due: Instant) -> Sample {
        Sample {
            key,
            due,
            sent: None,
            done: None,
            answer: Err("no answer".into()),
        }
    }
}

/// A phase's requests: keys and due offsets (seconds from the phase start).
pub struct Plan<'a> {
    pub keys: &'a [Key],
    pub due: &'a [f64],
    pub records: &'a [Arc<Record>],
    /// θ for each τ step of the served corpus.
    pub thetas: &'a [f64],
}

impl Plan<'_> {
    fn due_instants(&self, start: Instant) -> Vec<Instant> {
        self.due
            .iter()
            .map(|&s| start + Duration::from_secs_f64(s))
            .collect()
    }
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Received frames: request id, when it was read, and the answer.
type Received = Vec<(u64, Instant, Result<Answer, String>)>;

/// Request `i` of `plan` as a wire frame; every [`INLINE_EVERY`]-th ships
/// its record inline.
fn request_frame(plan: &Plan<'_>, i: usize) -> Frame {
    let key = plan.keys[i];
    let query = if i % INLINE_EVERY == 3 {
        WireQuery::Bits(plan.records[key.record].as_bits().clone())
    } else {
        WireQuery::Index(key.record as u64)
    };
    Frame::Request(RequestFrame {
        request_id: i as u64,
        client_id: 1,
        theta: plan.thetas[key.step],
        deadline_us: 0,
        model: String::new(),
        query,
    })
}

/// Decodes every whole frame in `dec` into `got`, stamped `now`. Returns
/// false on a decode error, after which the stream cannot be trusted.
fn drain(dec: &mut Decoder, now: Instant, got: &mut Received) -> bool {
    loop {
        match dec.next_frame() {
            Ok(Some(Frame::Response(r))) => got.push((
                r.request_id,
                now,
                Ok(Answer {
                    estimate: r.estimate,
                    epoch: r.epoch,
                    degraded: r.degraded,
                    lo: r.lo,
                    hi: r.hi,
                }),
            )),
            Ok(Some(Frame::Error(e))) => {
                got.push((e.request_id, now, Err(format!("error frame {:?}", e.code))))
            }
            Ok(Some(other)) => {
                got.push((u64::MAX, now, Err(format!("unexpected frame {other:?}"))))
            }
            Ok(None) => return true,
            Err(e) => {
                got.push((u64::MAX, now, Err(format!("decode: {e}"))));
                return false;
            }
        }
    }
}

/// Connects to `addr` for a phase of `samples`, or marks every sample
/// failed.
fn connect(addr: SocketAddr, samples: &mut [Sample]) -> Option<TcpStream> {
    match TcpStream::connect(addr) {
        Ok(stream) => {
            let _ = stream.set_nodelay(true);
            // A server that stops answering ends the phase instead of
            // hanging it; the unanswered requests count as failed.
            let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
            Some(stream)
        }
        Err(e) => {
            for s in samples {
                s.answer = Err(format!("connect: {e}"));
            }
            None
        }
    }
}

/// Joins send stamps and received answers onto `samples`, dropping the
/// requests that were never sent.
fn settle(mut samples: Vec<Sample>, sent: Vec<Instant>, received: Received) -> Vec<Sample> {
    samples.truncate(sent.len());
    for (s, at) in samples.iter_mut().zip(sent) {
        s.sent = Some(at);
    }
    let mut protocol_errors = 0usize;
    for (id, at, answer) in received {
        match samples.get_mut(id as usize) {
            Some(s) if s.done.is_none() => {
                s.done = Some(at);
                s.answer = answer;
            }
            _ => protocol_errors += 1,
        }
    }
    // A stray or duplicate frame is charged to the first answered request,
    // so the failure shows in the tallies without inventing a request.
    if protocol_errors > 0 {
        if let Some(s) = samples.first_mut() {
            s.answer = Err(format!("{protocol_errors} stray or duplicate frames"));
        }
    }
    samples
}

/// Runs an open-loop phase over one socket connection to a `NetServer`:
/// each request goes out at its due time. Returns the requests that were
/// sent.
pub fn socket_phase(addr: SocketAddr, plan: &Plan<'_>) -> Vec<Sample> {
    let start = Instant::now() + Duration::from_millis(5);
    let due = plan.due_instants(start);
    let n = due.len().min(plan.keys.len());
    let mut samples: Vec<Sample> = (0..n).map(|i| Sample::new(plan.keys[i], due[i])).collect();
    let Some(stream) = connect(addr, &mut samples) else {
        return samples;
    };
    let mut reader = match stream.try_clone() {
        Ok(r) => r,
        Err(e) => {
            for s in &mut samples {
                s.answer = Err(format!("clone socket: {e}"));
            }
            return samples;
        }
    };
    let mut writer = stream;
    let (sent, received) = std::thread::scope(|scope| {
        let recv = scope.spawn(move || {
            let mut got = Received::with_capacity(n);
            let mut dec = Decoder::new();
            let mut buf = vec![0u8; 1 << 16];
            while got.len() < n {
                let read = match reader.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(k) => k,
                };
                dec.extend(&buf[..read]);
                if !drain(&mut dec, Instant::now(), &mut got) {
                    break;
                }
            }
            got
        });
        let mut sent = Vec::with_capacity(n);
        for (i, &at) in due.iter().enumerate().take(n) {
            sleep_until(at);
            let frame = request_frame(plan, i);
            let stamp = Instant::now();
            if writer.write_all(&frame.encode()).is_err() {
                break;
            }
            sent.push(stamp);
        }
        // Half-close: the server answers what it has and closes, which ends
        // the receiver.
        let _ = writer.shutdown(std::net::Shutdown::Write);
        (sent, recv.join().unwrap_or_default())
    });
    settle(samples, sent, received)
}

/// Runs a closed-loop phase over one socket connection from one thread:
/// whenever fewer than `in_flight` requests are unanswered, the missing
/// ones go out in a single write, then the thread reads answers. The server
/// runs at its capacity and the client adds one thread and a write per
/// burst. Due times are the send times.
///
/// At most `in_flight` answers are ever unread, which the socket buffers
/// hold, so the server never blocks writing while this thread writes.
pub fn saturate(addr: SocketAddr, plan: &Plan<'_>, in_flight: usize) -> Vec<Sample> {
    let n = plan.keys.len();
    let now = Instant::now();
    let mut samples: Vec<Sample> = plan.keys.iter().map(|&k| Sample::new(k, now)).collect();
    let Some(mut stream) = connect(addr, &mut samples) else {
        return samples;
    };
    let mut sent = Vec::with_capacity(n);
    let mut got = Received::with_capacity(n);
    let (mut dec, mut buf, mut out) = (Decoder::new(), vec![0u8; 1 << 16], Vec::new());
    while got.len() < n {
        out.clear();
        let from = sent.len();
        while sent.len() < n && sent.len().saturating_sub(got.len()) < in_flight {
            out.extend_from_slice(&request_frame(plan, sent.len()).encode());
            sent.push(now);
        }
        if !out.is_empty() {
            let stamp = Instant::now();
            if stream.write_all(&out).is_err() {
                sent.truncate(from);
                break;
            }
            sent[from..].fill(stamp);
        }
        let read = match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(k) => k,
        };
        dec.extend(&buf[..read]);
        if !drain(&mut dec, Instant::now(), &mut got) {
            break;
        }
    }
    let mut samples = settle(samples, sent, got);
    for s in &mut samples {
        s.due = s.sent.unwrap_or(s.due);
    }
    samples
}

/// Answers per second of a closed-loop phase, taken after the first
/// `in_flight` answers, while the pipeline fills; `None` when too few
/// requests were answered.
pub fn saturation_rate(samples: &[Sample], in_flight: usize) -> Option<f64> {
    let mut done: Vec<Instant> = samples
        .iter()
        .filter(|s| s.answer.is_ok())
        .filter_map(|s| s.done)
        .collect();
    done.sort();
    let first = *done.get(in_flight)?;
    let last = *done.last()?;
    let span = (last - first).as_secs_f64();
    (span > 0.0).then(|| (done.len() - 1 - in_flight) as f64 / span)
}

/// Interval at which the in-process receiver sweeps requests that finished
/// out of order while it waited on the oldest one.
const SWEEP: Duration = Duration::from_micros(100);

/// Runs a phase in process through a `ServiceClient`.
pub fn service_phase(client: &ServiceClient, model: &str, plan: &Plan<'_>) -> Vec<Sample> {
    let start = Instant::now() + Duration::from_millis(5);
    let due = plan.due_instants(start);
    let n = due.len().min(plan.keys.len());
    let mut samples: Vec<Sample> = (0..n).map(|i| Sample::new(plan.keys[i], due[i])).collect();
    type Rx = mpsc::Receiver<Result<cardest_serve::Response, cardest_serve::ServeError>>;
    // capacity: one message per request of this phase, drained as answers
    // arrive; bounded by the phase's request count.
    let (tx, incoming) = mpsc::channel::<(usize, Rx)>();
    let (sent, received) = std::thread::scope(|scope| {
        let recv = scope.spawn(move || {
            let mut got: Vec<(usize, Instant, Result<Answer, String>)> = Vec::with_capacity(n);
            let mut pending: VecDeque<(usize, Rx)> = VecDeque::new();
            let mut open = true;
            let convert = |r: Result<cardest_serve::Response, cardest_serve::ServeError>| match r {
                Ok(r) => {
                    let (lo, hi) = match r.source {
                        EstimateSource::ShedBracket { lo, hi }
                        | EstimateSource::CacheBounds { lo, hi } => (lo, hi),
                        _ => (r.estimate, r.estimate),
                    };
                    Ok(Answer {
                        estimate: r.estimate,
                        epoch: r.epoch,
                        degraded: r.source.is_degraded(),
                        lo,
                        hi,
                    })
                }
                Err(e) => Err(format!("serve error: {e}")),
            };
            while open || !pending.is_empty() {
                loop {
                    match incoming.try_recv() {
                        Ok(p) => pending.push_back(p),
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => {
                            open = false;
                            break;
                        }
                    }
                }
                let waited = pending
                    .front()
                    .map(|(id, rx)| (*id, rx.recv_timeout(SWEEP)));
                match waited {
                    None => match incoming.recv() {
                        Ok(p) => pending.push_back(p),
                        Err(_) => open = false,
                    },
                    Some((_, Err(RecvTimeoutError::Timeout))) => {}
                    Some((id, Ok(r))) => {
                        got.push((id, Instant::now(), convert(r)));
                        pending.pop_front();
                    }
                    Some((id, Err(RecvTimeoutError::Disconnected))) => {
                        got.push((id, Instant::now(), Err("dropped".into())));
                        pending.pop_front();
                    }
                }
                pending.retain(|(id, rx)| match rx.try_recv() {
                    Ok(r) => {
                        got.push((*id, Instant::now(), convert(r)));
                        false
                    }
                    Err(TryRecvError::Empty) => true,
                    Err(TryRecvError::Disconnected) => {
                        got.push((*id, Instant::now(), Err("dropped".into())));
                        false
                    }
                });
            }
            got
        });
        let mut sent = Vec::with_capacity(n);
        for (i, (key, &at)) in plan.keys.iter().zip(&due).enumerate().take(n) {
            sleep_until(at);
            let stamp = Instant::now();
            let rx = client.submit(Request {
                model: model.to_string(),
                query: Arc::clone(&plan.records[key.record]),
                theta: plan.thetas[key.step],
            });
            sent.push(stamp);
            if tx.send((i, rx)).is_err() {
                break;
            }
        }
        drop(tx);
        (sent, recv.join().unwrap_or_default())
    });
    for (s, at) in samples.iter_mut().zip(sent) {
        s.sent = Some(at);
    }
    for (id, at, answer) in received {
        if let Some(s) = samples.get_mut(id) {
            s.done = Some(at);
            s.answer = answer;
        }
    }
    samples
}

/// Latency from due time to answer, µs, of every answered request.
pub fn latencies_us(samples: &[Sample]) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.answer.is_ok())
        .filter_map(|s| s.done.map(|d| (d - s.due).as_nanos() as f64 / 1e3))
        .collect()
}

/// `latency_p50_us` and `latency_p99_us` of open-loop latencies in send
/// order, timed from the due times: each the median over windows of
/// [`stats::WINDOW`] requests.
pub fn report_latency(lat: &[f64], rep: &mut Report) {
    let how =
        |p: &stats::Percentile| format!("{}, median over windows of {}", p.label(), stats::WINDOW);
    if let (Some(p50), Some(tail)) = (stats::windowed_median(lat), stats::windowed_tail(lat, 0.99))
    {
        rep.metric("latency_p50_us", p50.value, "us", p50.n, &how(&p50));
        rep.metric("latency_p99_us", tail.value, "us", tail.n, &how(&tail));
    }
}

/// How late the generator sent each request, µs.
pub fn lag_us(samples: &[Sample]) -> Vec<f64> {
    samples
        .iter()
        .filter_map(|s| {
            s.sent
                .map(|t| t.saturating_duration_since(s.due).as_nanos() as f64 / 1e3)
        })
        .collect()
}

/// Send-to-answer round trips, µs.
pub fn round_trip_us(samples: &[Sample]) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.answer.is_ok())
        .filter_map(|s| match (s.sent, s.done) {
            (Some(a), Some(b)) => Some((b - a).as_nanos() as f64 / 1e3),
            _ => None,
        })
        .collect()
}

/// Records one span per request: `request` from due to answer, with the
/// generator's lag and the round trip as its children.
pub fn record_spans(samples: &[Sample], spans: &mut Spans, parent: Option<usize>) {
    for (i, s) in samples.iter().enumerate() {
        let (Some(sent), Some(done)) = (s.sent, s.done) else {
            continue;
        };
        let req = spans.record("request", s.due, done, parent, Some(i as u64));
        spans.record("loadgen.lag", s.due, sent.max(s.due), req, Some(i as u64));
        spans.record("round_trip", sent.max(s.due), done, req, Some(i as u64));
    }
}

/// The output checks on served answers, accumulated phase by phase: every
/// full answer is bit-identical to the offline answer of the model epoch
/// that answered (`prepare` + `estimate_batch`, computed once per
/// `(epoch, key)`), answers never decrease as θ grows within one
/// `(query, epoch)`, degraded answers are valid brackets around the offline
/// value, and every request is answered.
pub struct Checker {
    models: BTreeMap<u64, Arc<ServeModel>>,
    offline: BTreeMap<(u64, Key), f64>,
    pub attempted: u64,
    errors: u64,
    full: u64,
    full_bad: u64,
    degraded: u64,
    degraded_bad: u64,
    /// Full answers per `(record, epoch)`, by τ step.
    by_query: BTreeMap<(usize, u64), BTreeMap<usize, f64>>,
}

impl Checker {
    /// A checker for answers from the given epochs' models.
    pub fn new(models: BTreeMap<u64, Arc<ServeModel>>) -> Checker {
        Checker {
            models,
            offline: BTreeMap::new(),
            attempted: 0,
            errors: 0,
            full: 0,
            full_bad: 0,
            degraded: 0,
            degraded_bad: 0,
            by_query: BTreeMap::new(),
        }
    }

    /// Offline answers for the `(epoch, key)` pairs not seen before.
    fn fill_offline(&mut self, samples: &[Sample], records: &[Arc<Record>], thetas: &[f64]) {
        let wanted: BTreeSet<(u64, Key)> = samples
            .iter()
            .filter_map(|s| s.answer.as_ref().ok().map(|a| (a.epoch, s.key)))
            .filter(|k| !self.offline.contains_key(k))
            .collect();
        let wanted: Vec<(u64, Key)> = wanted.into_iter().collect();
        for chunk in wanted.chunk_by(|a, b| a.0 == b.0) {
            let Some(model) = self.models.get(&chunk[0].0) else {
                continue;
            };
            for part in chunk.chunks(offline::BATCH_ROWS) {
                let prepared: Vec<PreparedQuery> = part
                    .iter()
                    .map(|(_, k)| model.estimator.prepare(&records[k.record]))
                    .collect();
                let refs: Vec<&PreparedQuery> = prepared.iter().collect();
                let th: Vec<f64> = part.iter().map(|(_, k)| thetas[k.step]).collect();
                for (&key, v) in part.iter().zip(model.estimator.estimate_batch(&refs, &th)) {
                    self.offline.insert(key, v.value);
                }
            }
        }
    }

    /// Checks one phase's answers.
    pub fn add(&mut self, samples: &[Sample], records: &[Arc<Record>], thetas: &[f64]) {
        self.fill_offline(samples, records, thetas);
        self.attempted += samples.len() as u64;
        for s in samples {
            let a = match &s.answer {
                Ok(a) => a,
                Err(_) => {
                    self.errors += 1;
                    continue;
                }
            };
            let want = self.offline.get(&(a.epoch, s.key)).copied();
            if a.degraded {
                self.degraded += 1;
                let ok = want.is_some_and(|w| a.lo <= w && w <= a.hi)
                    && a.lo <= a.estimate
                    && a.estimate <= a.hi
                    && a.lo.is_finite()
                    && a.hi.is_finite();
                self.degraded_bad += u64::from(!ok);
            } else {
                self.full += 1;
                self.full_bad += u64::from(want.map(f64::to_bits) != Some(a.estimate.to_bits()));
                self.by_query
                    .entry((s.key.record, a.epoch))
                    .or_default()
                    .insert(s.key.step, a.estimate);
            }
        }
    }

    /// Adds one check line per property; returns the failure count.
    pub fn report(&self, rep: &mut Report) -> u64 {
        let mono_bad = self
            .by_query
            .values()
            .filter(|steps| {
                steps
                    .values()
                    .zip(steps.values().skip(1))
                    .any(|(a, b)| b < a)
            })
            .count() as u64;
        rep.check("answered", self.attempted, self.errors);
        rep.check("served_bit_identical_to_offline", self.full, self.full_bad);
        rep.check(
            "monotone_per_query_epoch",
            self.by_query.len() as u64,
            mono_bad,
        );
        rep.check(
            "degraded_answers_are_valid_brackets",
            self.degraded,
            self.degraded_bad,
        );
        self.errors + self.full_bad + mono_bad + self.degraded_bad
    }
}

/// `loadgen.lag_p99_us` over every phase's requests.
pub fn report_lag(lag: Vec<f64>, rep: &mut Report) {
    let mut lag = lag;
    lag.sort_by(f64::total_cmp);
    match stats::tail(&lag, 0.99) {
        Some(p) => rep.percentile("loadgen.lag_p99_us", p, "us"),
        None => rep.metric("loadgen.lag_p99_us", 0.0, "us", lag.len(), "no sample"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturation_rate_skips_the_pipeline_fill_and_failures() {
        let t0 = Instant::now();
        let key = Key { record: 0, step: 0 };
        let answered = |ms: u64| {
            let mut s = Sample::new(key, t0);
            s.done = Some(t0 + Duration::from_millis(ms));
            s.answer = Ok(Answer {
                estimate: 1.0,
                epoch: 1,
                degraded: false,
                lo: 1.0,
                hi: 1.0,
            });
            s
        };
        // Two answers fill the pipeline at 0 ms, then one every 10 ms.
        let mut samples: Vec<Sample> = [0, 0].into_iter().map(answered).collect();
        samples.extend((1..=10).map(|i| answered(i * 10)));
        samples.push(Sample::new(key, t0));
        // Answers 2..=11 are 9 intervals over 90 ms.
        let rate = saturation_rate(&samples, 2).expect("enough answers");
        assert!((rate - 100.0).abs() < 1e-9, "{rate}");
        assert_eq!(saturation_rate(&samples[..2], 2), None);
    }
}
