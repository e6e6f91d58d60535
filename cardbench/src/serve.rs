//! `serve-zipf`: load over a self-hosted `NetServer` on loopback, one
//! connection per phase. Keys are Zipf-skewed over the HM corpus (1,500
//! records × 17 τ steps) against the default 4,096-entry cache; every 7th
//! request ships its record inline as `Bits`.
//! A fixed-rate phase gives the latency; closed-loop phases with a fixed
//! number of requests in flight give the rate the server sustains.

use crate::inputs::{self, Corpus, KeySpace};
use crate::loadgen::{self, Plan, Sample};
use crate::offline;
use crate::probes;
use crate::report::Report;
use crate::setup::{self, Labelled};
use crate::spans::Spans;
use crate::stats;
use crate::RunConfig;
use cardest_core::metrics::ApiCounters;
use cardest_core::train::TrainReport;
use cardest_core::CardNetEstimator;
use cardest_data::Record;
use cardest_obs::{Observer, Stage, Trace};
use cardest_serve::StatsSnapshot;
use cardest_serve::{ModelRegistry, NetConfig, NetServer, ServeConfig, Service};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const MODEL: &str = "default";

/// Offered rate of the latency phase, requests per second.
pub const RATE_REF: f64 = 16000.0;
/// Requests kept unanswered in a saturation phase: four of the shipped
/// 64-row micro-batches per worker on two workers.
const IN_FLIGHT: usize = 512;
/// Requests per saturation phase; each phase gives one rate.
const SATURATION_REQUESTS: usize = 20_000;
/// Saturation phases run at least, however short `--seconds` is.
const MIN_SATURATION_PHASES: usize = 3;

/// Shares of `--seconds` spent warming the cache and in the latency phase;
/// the saturation phases take the rest.
const WARMUP_SHARE: f64 = 0.10;
const REF_SHARE: f64 = 0.40;

/// The HM corpus with its labels and its trained, published model.
pub struct Hm {
    pub corpus: Corpus,
    pub labels: Labelled,
    pub registry: Arc<ModelRegistry>,
    pub train: TrainReport,
    pub records: Vec<Arc<Record>>,
    /// θ for each τ step.
    pub thetas: Vec<f64>,
}

/// Generates, labels and trains HM, and publishes the model.
pub fn setup_model(seed: u64, spans: &mut Spans, parent: Option<usize>) -> (Hm, setup::Trained) {
    let corpus = spans.time("data.generate", parent, || inputs::hm_corpus(seed));
    let labels = setup::label(&corpus, spans, parent);
    let trained = setup::train(&corpus, &labels, spans, parent);
    let records = corpus
        .dataset
        .records
        .iter()
        .cloned()
        .map(Arc::new)
        .collect();
    let thetas = (0..=inputs::TAU_MAX)
        .map(|s| inputs::theta_of_step(corpus.dataset.theta_max, s))
        .collect();
    let hm = Hm {
        corpus,
        labels,
        registry: Arc::new(ModelRegistry::new()),
        train: trained.report.clone(),
        records,
        thetas,
    };
    (hm, trained)
}

/// The shipped service configuration, with every request traced when
/// `all_traces` (the traced run's second half).
pub fn serve_config(all_traces: bool) -> ServeConfig {
    let mut cfg = ServeConfig::default();
    if all_traces {
        cfg.trace_sample = 1;
    }
    cfg
}

fn start_server(hm: &Hm, cfg: ServeConfig) -> NetServer {
    let service = Service::start(Arc::clone(&hm.registry), cfg);
    // No admission bound: a saturation phase keeps its requests queued at
    // the server, and every one must be answered, not refused.
    let net = NetConfig {
        queue_limit: 0,
        ..NetConfig::default()
    };
    NetServer::bind("127.0.0.1:0", service, hm.records.clone(), net)
        .expect("binding a loopback port for the benchmark server")
}

/// One open-loop phase against `server` at `rate` for `seconds`.
fn phase(
    server: &NetServer,
    hm: &Hm,
    ks: &KeySpace,
    rate: f64,
    seconds: f64,
    seed: u64,
) -> Vec<Sample> {
    let due = inputs::poisson_schedule(rate, seconds, seed);
    let keys = ks.draw(&mut StdRng::seed_from_u64(inputs::mix(seed, 1)), due.len());
    let plan = Plan {
        keys: &keys,
        due: &due,
        records: &hm.records,
        thetas: &hm.thetas,
    };
    loadgen::socket_phase(server.addr(), &plan)
}

/// One closed-loop phase of [`SATURATION_REQUESTS`] with [`IN_FLIGHT`]
/// requests unanswered at a time.
fn saturation_phase(server: &NetServer, hm: &Hm, ks: &KeySpace, seed: u64) -> Vec<Sample> {
    let keys = ks.draw(
        &mut StdRng::seed_from_u64(inputs::mix(seed, 1)),
        SATURATION_REQUESTS,
    );
    let plan = Plan {
        keys: &keys,
        due: &[],
        records: &hm.records,
        thetas: &hm.thetas,
    };
    loadgen::saturate(server.addr(), &plan, IN_FLIGHT)
}

pub fn run(cfg: &RunConfig, rep: &mut Report) {
    let origin = Instant::now();
    let s = cfg.seconds;

    let ((hm, mut server), setup_s, mut spans) = setup::repeated(cfg, origin, |spans, root| {
        let (hm, trained) = setup_model(cfg.seed, spans, root);
        let est = CardNetEstimator::from_trainer(trained.fx, trained.trainer);
        hm.registry.publish(MODEL, est);
        let server = spans.time("net.start", root, || start_server(&hm, serve_config(false)));
        (hm, server)
    });
    let live = hm.registry.get(MODEL).expect("model published at set-up");
    let ks = KeySpace::new(hm.records.len(), inputs::mix(cfg.seed, 20));
    // Each phase is checked as soon as it ends and then dropped, so memory
    // does not grow with the number of saturation phases.
    let mut checker = loadgen::Checker::new(BTreeMap::from([(live.epoch, Arc::clone(&live))]));
    let mut lag = Vec::new();
    let mut done = |samples: &[Sample]| {
        checker.add(samples, &hm.records, &hm.thetas);
        if cfg.trace {
            lag.extend(loadgen::lag_us(samples));
        }
    };

    let warmup_seed = inputs::mix(cfg.seed, 21);
    done(&phase(
        &server,
        &hm,
        &ks,
        RATE_REF,
        s * WARMUP_SHARE,
        warmup_seed,
    ));
    if cfg.trace {
        // Untraced latency under the shipped settings, then the same phase
        // against a server that exports every request's stage times.
        let plain = phase(
            &server,
            &hm,
            &ks,
            RATE_REF,
            s * REF_SHARE,
            inputs::mix(cfg.seed, 22),
        );
        let p50_plain = stats::median(&loadgen::latencies_us(&plain));
        done(&plain);
        server.shutdown();
        server = start_server(&hm, serve_config(true));
        done(&phase(
            &server,
            &hm,
            &ks,
            RATE_REF,
            s * WARMUP_SHARE,
            warmup_seed,
        ));
        let traced = traced_phase(&server, &hm, &ks, s * REF_SHARE, cfg.seed, &mut spans, rep);
        rep.metric(
            "obs.trace_overhead_frac",
            stats::median(&loadgen::latencies_us(&traced)) / p50_plain - 1.0,
            "ratio",
            traced.len(),
            "p50 traced / p50 untraced - 1",
        );
        done(&traced);
    } else {
        let reference = phase(
            &server,
            &hm,
            &ks,
            RATE_REF,
            s * REF_SHARE,
            inputs::mix(cfg.seed, 22),
        );
        loadgen::report_latency(&loadgen::latencies_us(&reference), rep);
        done(&reference);
        // Saturation phases fill the rest of the run; each gives one rate
        // and the median is reported, so a host stall moves one phase only.
        let end = Instant::now() + Duration::from_secs_f64(s * (1.0 - WARMUP_SHARE - REF_SHARE));
        let mut rates = Vec::new();
        let mut i = 0;
        while i < MIN_SATURATION_PHASES || Instant::now() < end {
            let part = saturation_phase(&server, &hm, &ks, inputs::mix(cfg.seed, 30 + i as u64));
            if let Some(rate) = loadgen::saturation_rate(&part, IN_FLIGHT) {
                rep.note(format!("saturation phase {i}: {rate:.0} req/s"));
                rates.push(rate);
            }
            done(&part);
            i += 1;
        }
        rep.metric(
            "throughput_per_s",
            stats::median(&rates),
            "1/s",
            rates.len(),
            &format!("saturation_rps, {IN_FLIGHT} in flight, median of phases"),
        );
    }
    server.shutdown();

    rep.attempted += checker.attempted;
    let failed = checker.report(rep);
    setup_and_accuracy(rep, &setup_s, &hm.labels.heldout, &live.estimator, failed);
    if cfg.trace {
        loadgen::report_lag(lag, rep);
        hm_layers(&hm, &live.estimator, &spans, rep);
        finish_spans(cfg, &spans, rep);
    }
}

/// The traced latency phase: polls the server's trace ring while requests
/// flow, then reports the service, cache and net layers.
fn traced_phase(
    server: &NetServer,
    hm: &Hm,
    ks: &KeySpace,
    seconds: f64,
    seed: u64,
    spans: &mut Spans,
    rep: &mut Report,
) -> Vec<Sample> {
    let svc = server.service();
    let (stats0, api0) = (svc.stats(), ApiCounters::process_totals());
    let root = spans.open("serve.measure", None);
    let (samples, traces) = std::thread::scope(|scope| {
        let load = scope.spawn(|| phase(server, hm, ks, RATE_REF, seconds, inputs::mix(seed, 22)));
        let traces = collect_traces(svc.observer(), || load.is_finished());
        (load.join().unwrap_or_default(), traces)
    });
    spans.close(root);
    loadgen::record_spans(&samples, spans, root);
    let api = ApiCounters::process_totals().delta_since(&api0);
    service_layers(&stats0, &svc.stats(), &traces, api, rep);
    let mut rtt = loadgen::round_trip_us(&samples);
    rtt.sort_by(f64::total_cmp);
    let server_total: Vec<f64> = traces.iter().map(|t| t.total_ns as f64 / 1e3).collect();
    rep.metric(
        "net.overhead_us",
        stats::median(&rtt) - stats::median(&server_total),
        "us",
        rtt.len().min(server_total.len()),
        "client round trip p50 - server total p50",
    );
    samples
}

/// Drains the observer's sampled-trace ring every few milliseconds until
/// `done`, keeping each trace once.
pub fn collect_traces(obs: &Observer, done: impl Fn() -> bool) -> Vec<Trace> {
    let mut seen = BTreeMap::new();
    loop {
        let finished = done();
        for t in obs.recent_traces(usize::MAX) {
            seen.entry(t.id).or_insert(t);
        }
        if finished {
            return seen.into_values().collect();
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

/// `service.*`, `cache.*` and `core.*` per-answer numbers from the stats
/// delta, the exact per-request stage times of the traces, and the
/// process-wide API counters.
pub fn service_layers(
    before: &StatsSnapshot,
    after: &StatsSnapshot,
    traces: &[Trace],
    api: ApiCounters,
    rep: &mut Report,
) {
    let stage_us = |stage: Stage, computed_only: bool| -> Vec<f64> {
        traces
            .iter()
            .filter(|t| !computed_only || t.source == 0)
            .map(|t| t.stages_ns[stage as usize] as f64 / 1e3)
            .collect()
    };
    rep.latency_pair(
        "service.queue_wait_us",
        stats::latency(stage_us(Stage::QueueWait, false)),
        "us",
    );
    rep.latency_pair(
        "service.batch_window_us",
        stats::latency(stage_us(Stage::BatchWindow, false)),
        "us",
    );
    rep.latency_pair(
        "service.model_us",
        stats::latency(stage_us(Stage::Model, true)),
        "us",
    );
    let d = |f: fn(&StatsSnapshot) -> u64| f(after).saturating_sub(f(before));
    let answered = d(StatsSnapshot::answered).max(1) as f64;
    let n = answered as usize;
    let frac = |rep: &mut Report, name: &str, v: u64| {
        rep.metric(name, v as f64 / answered, "ratio", n, "of answers")
    };
    frac(rep, "cache.exact_hit_frac", d(|s| s.exact_hits));
    frac(rep, "cache.bound_hit_frac", d(|s| s.bound_hits));
    frac(rep, "service.coalesced_frac", d(|s| s.coalesced));
    frac(rep, "service.computed_frac", d(|s| s.computed));
    let requests = d(|s| s.requests).max(1);
    rep.metric(
        "service.shed_frac",
        d(|s| s.shed_bracket + s.shed_rejected) as f64 / requests as f64,
        "ratio",
        requests as usize,
        "of requests",
    );
    let batches = d(|s| s.batches).max(1);
    rep.metric(
        "service.batch_mean",
        d(|s| s.batch_size_sum) as f64 / batches as f64,
        "count",
        batches as usize,
        "rows per micro-batch",
    );
    rep.metric(
        "core.extractions_per_estimate",
        api.extractions as f64 / answered,
        "count",
        n,
        "per answer",
    );
    rep.metric(
        "core.encoder_passes_per_estimate",
        api.encoder_passes as f64 / answered,
        "count",
        n,
        "per answer",
    );
    rep.note(format!(
        "server_traces={} requests={}",
        traces.len(),
        requests
    ));
}

/// Layer probes on the HM model and the set-up numbers.
pub fn hm_layers(hm: &Hm, est: &CardNetEstimator, spans: &Spans, rep: &mut Report) {
    let (us, n) = probes::extract_us(est.extractor(), &hm.corpus.dataset.records);
    rep.metric("fx.extract_us.hm", us, "us", n, "median per record");
    probes::model_layers(std::iter::once((est, &hm.corpus.dataset.records[..])), rep);
    probes::matmul(est, &hm.corpus.dataset.records, rep);
    probes::setup_layers(spans, &[&hm.train], rep);
}

/// Writes the spans and reports how much of each parent its children explain.
pub fn finish_spans(cfg: &RunConfig, spans: &Spans, rep: &mut Report) {
    let path = cfg.spans_path();
    match spans.write_jsonl(&path) {
        Ok(()) => rep.note(format!(
            "spans={} written={}",
            spans.all().len(),
            path.display()
        )),
        Err(e) => rep.note(format!("cannot write spans to {}: {e}", path.display())),
    }
    rep.metric(
        "trace.explained_frac",
        spans.explained_frac(),
        "ratio",
        spans.all().len(),
        "child span time / parent span time",
    );
}

/// `setup_s` (median of the set-ups) plus q-error and the held-out checks
/// of `est` on `heldout`.
pub fn setup_and_accuracy(
    rep: &mut Report,
    setup_s: &[f64],
    heldout: &cardest_data::Workload,
    est: &CardNetEstimator,
    failed: u64,
) {
    rep.metric(
        "setup_s",
        stats::median(setup_s),
        "s",
        setup_s.len(),
        &format!("median of {}", setup_s.len()),
    );
    let mut qerr = Vec::new();
    let mut acc = offline::Accuracy::default();
    acc.add(est, heldout, inputs::N_TIMED, &mut qerr);
    let failed = failed + acc.report(rep);
    offline::score(&mut qerr, rep);
    rep.note(format!(
        "monotone_violations={} failed_frac={}",
        acc.mono_bad,
        failed as f64 / rep.attempted.max(1) as f64
    ));
}
