//! `update-mixed`: writes beside reads, in process, no socket. A reader
//! submits Zipf-keyed HM requests through `ServiceClient` at a fixed
//! open-loop rate while a writer applies Fig. 8-style updates (insert or
//! delete five records) on a fixed schedule. Each update runs
//! `IncrementalLearner::on_update`, `Snapshot::from_trainer` and
//! `ModelRegistry::publish_snapshot`; every publish bumps the epoch, so
//! cached answers stop hitting while relabelling and retraining compete
//! with reads for the cores.

use crate::inputs::{self, KeySpace};
use crate::loadgen::{self, Plan, Sample};
use crate::report::Report;
use crate::serve::{self, Hm, MODEL};
use crate::setup;
use crate::spans::Spans;
use crate::stats;
use crate::RunConfig;
use cardest_core::metrics::ApiCounters;
use cardest_core::{IncrementalLearner, Snapshot};
use cardest_data::Dataset;
use cardest_fx::FeatureExtractor;
use cardest_serve::{ServeModel, Service};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reader rate, requests per second.
const READ_RATE: f64 = 8000.0;
/// Updates per run, spread evenly over the mixed phase. The update stream
/// is a fixture like the corpus (drawn from the corpus seed): which updates
/// retrain then repeats exactly, so read tails and accuracy do not swing
/// with how many retrains a seed happens to trigger. The workload seed
/// drives the reads.
const N_UPDATES: usize = 40;
/// Relative validation-error increase that triggers retraining. The
/// learner's default (5%) never fires within 40 five-record updates, so the
/// stream would not exercise the retrain path at all.
const RETRAIN_TOLERANCE: f64 = 0.0;
/// Share of `--seconds` spent warming the cache before the mixed phase.
const WARMUP_SHARE: f64 = 0.10;

/// Everything the mixed phase needs.
struct World {
    hm: Hm,
    fx: Box<dyn FeatureExtractor>,
    learner: IncrementalLearner,
    service: Service,
}

fn setup_world(seed: u64, spans: &mut Spans, parent: Option<usize>) -> World {
    let (hm, trained) = serve::setup_model(seed, spans, parent);
    let mut learner = IncrementalLearner::new(
        trained.trainer,
        hm.labels.train.clone(),
        hm.labels.valid.clone(),
        trained.fx.as_ref(),
    );
    learner.tolerance = RETRAIN_TOLERANCE;
    publish(&hm, &learner, trained.fx.as_ref()).expect("initial snapshot is valid");
    let service = Service::start(Arc::clone(&hm.registry), serve::serve_config(false));
    World {
        hm,
        fx: trained.fx,
        learner,
        service,
    }
}

/// Snapshots the learner's model and publishes it; returns the new epoch.
fn publish(
    hm: &Hm,
    learner: &IncrementalLearner,
    fx: &dyn FeatureExtractor,
) -> Result<u64, String> {
    let snap = Snapshot::from_trainer(&learner.trainer, fx.name(), fx.tau_max());
    hm.registry
        .publish_snapshot(MODEL, snap, setup::extractor(&hm.corpus))
        .map_err(|e| e.to_string())
}

/// One applied update.
struct Applied {
    /// From due time until `registry.epoch()` showed the new model, ms.
    latency_ms: f64,
    /// `on_update` alone, ms.
    on_update_ms: f64,
    /// Snapshot build plus `publish_snapshot`, ms.
    publish_ms: f64,
    /// The whole update path, from starting the update to visibility, s.
    busy_s: f64,
    retrained: bool,
}

/// The writer: applies the update stream on its schedule.
#[allow(clippy::too_many_arguments)]
fn write_stream(
    hm: &Hm,
    learner: &mut IncrementalLearner,
    fx: &dyn FeatureExtractor,
    ds: &mut Dataset,
    ops: &[inputs::UpdateOp],
    start: Instant,
    period: Duration,
    models: &mut BTreeMap<u64, Arc<ServeModel>>,
    spans: &mut Spans,
) -> Result<Vec<Applied>, String> {
    let mut out = Vec::with_capacity(ops.len());
    for (k, op) in ops.iter().enumerate() {
        let due = start + period * (k as u32 + 1);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let t0 = Instant::now();
        inputs::apply(ds, op);
        let outcome = learner.on_update(ds, fx);
        let t1 = Instant::now();
        let epoch = publish(hm, learner, fx)?;
        let t2 = Instant::now();
        if hm.registry.epoch() < epoch {
            return Err(format!("epoch {epoch} published but not visible"));
        }
        let visible = Instant::now();
        let model = hm
            .registry
            .get(MODEL)
            .ok_or("model vanished after publish")?;
        models.insert(model.epoch, model);
        let parent = spans.record("update", t0, visible, None, Some(k as u64));
        spans.record("incremental.on_update", t0, t1, parent, None);
        spans.record("registry.publish", t1, t2, parent, None);
        out.push(Applied {
            latency_ms: (visible - due).as_secs_f64() * 1e3,
            on_update_ms: (t1 - t0).as_secs_f64() * 1e3,
            publish_ms: (t2 - t1).as_secs_f64() * 1e3,
            busy_s: (visible - t0).as_secs_f64(),
            retrained: outcome.retrained,
        });
    }
    Ok(out)
}

fn read_phase(service: &Service, hm: &Hm, ks: &KeySpace, seconds: f64, seed: u64) -> Vec<Sample> {
    let due = inputs::poisson_schedule(READ_RATE, seconds, seed);
    let keys = ks.draw(&mut StdRng::seed_from_u64(inputs::mix(seed, 1)), due.len());
    loadgen::service_phase(
        &service.client(),
        MODEL,
        &Plan {
            keys: &keys,
            due: &due,
            records: &hm.records,
            thetas: &hm.thetas,
        },
    )
}

pub fn run(cfg: &RunConfig, rep: &mut Report) {
    let origin = Instant::now();
    let s = cfg.seconds;

    let (mut world, setup_s, mut spans) = setup::repeated(cfg, origin, |spans, root| {
        setup_world(cfg.seed, spans, root)
    });
    let ks = KeySpace::new(world.hm.records.len(), inputs::mix(cfg.seed, 20));
    let mut models = BTreeMap::new();
    let first = world.hm.registry.get(MODEL).expect("published at set-up");
    models.insert(first.epoch, first);
    let mut all = read_phase(
        &world.service,
        &world.hm,
        &ks,
        s * WARMUP_SHARE,
        inputs::mix(cfg.seed, 21),
    );

    let mixed_s = if cfg.trace {
        // Read-only halves under the shipped settings and with every request
        // traced give the tracing overhead; the mixed phase then runs traced.
        let plain = read_phase(
            &world.service,
            &world.hm,
            &ks,
            s * 0.2,
            inputs::mix(cfg.seed, 22),
        );
        let p50_plain = stats::median(&loadgen::latencies_us(&plain));
        all.extend(plain);
        let traced_service =
            Service::start(Arc::clone(&world.hm.registry), serve::serve_config(true));
        std::mem::replace(&mut world.service, traced_service).shutdown();
        all.extend(read_phase(
            &world.service,
            &world.hm,
            &ks,
            s * WARMUP_SHARE,
            inputs::mix(cfg.seed, 21),
        ));
        let traced = read_phase(
            &world.service,
            &world.hm,
            &ks,
            s * 0.2,
            inputs::mix(cfg.seed, 22),
        );
        rep.metric(
            "obs.trace_overhead_frac",
            stats::median(&loadgen::latencies_us(&traced)) / p50_plain - 1.0,
            "ratio",
            traced.len(),
            "p50 traced / p50 untraced - 1 (read-only)",
        );
        all.extend(traced);
        s * 0.4
    } else {
        s * (1.0 - WARMUP_SHARE)
    };

    let mut ds = world.hm.corpus.dataset.clone();
    let ops = inputs::update_stream(&ds, N_UPDATES, inputs::mix(inputs::CORPUS_SEED, 50));
    let period = Duration::from_secs_f64(mixed_s / (N_UPDATES + 1) as f64);
    let (stats0, api0) = (world.service.stats(), ApiCounters::process_totals());
    let done = AtomicBool::new(false);
    let start = Instant::now();
    let mut wspans = Spans::new(cfg.trace, origin);
    let World {
        hm,
        fx,
        learner,
        service,
    } = &mut world;
    let (hm, service) = (&*hm, &*service);
    let (reads, applied, traces) = std::thread::scope(|scope| {
        let reader =
            scope.spawn(|| read_phase(service, hm, &ks, mixed_s, inputs::mix(cfg.seed, 23)));
        let poller = scope.spawn(|| {
            if cfg.trace {
                serve::collect_traces(service.observer(), || done.load(Ordering::Acquire))
            } else {
                Vec::new()
            }
        });
        let applied = write_stream(
            hm,
            learner,
            fx.as_ref(),
            &mut ds,
            &ops,
            start,
            period,
            &mut models,
            &mut wspans,
        );
        let reads = reader.join().unwrap_or_default();
        done.store(true, Ordering::Release);
        (reads, applied, poller.join().unwrap_or_default())
    });
    let api = ApiCounters::process_totals().delta_since(&api0);
    let stats1 = world.service.stats();
    spans.absorb(wspans, None);
    loadgen::record_spans(&reads, &mut spans, None);

    let applied = applied.unwrap_or_else(|e| {
        rep.note(format!("update stream failed: {e}"));
        Vec::new()
    });
    rep.check(
        "updates_published",
        N_UPDATES as u64,
        (N_UPDATES - applied.len()) as u64,
    );
    if !cfg.trace {
        loadgen::report_latency(&loadgen::latencies_us(&reads), rep);
    }
    all.extend(reads);
    update_metrics(&applied, cfg.trace, rep);

    let mut checker = loadgen::Checker::new(models);
    checker.add(&all, &world.hm.records, &world.hm.thetas);
    rep.attempted += checker.attempted + applied.len() as u64;
    let failed = checker.report(rep);
    let heldout = cardest_select::oracle::parallel_label(
        &ds,
        world.hm.corpus.heldout.clone(),
        world.hm.corpus.grid.clone(),
        setup::LABEL_THREADS,
    );
    let last = world.hm.registry.get(MODEL).expect("published");
    serve::setup_and_accuracy(rep, &setup_s, &heldout, &last.estimator, failed);
    if cfg.trace {
        serve::service_layers(&stats0, &stats1, &traces, api, rep);
        loadgen::report_lag(loadgen::lag_us(&all), rep);
        serve::hm_layers(&world.hm, &last.estimator, &spans, rep);
        serve::finish_spans(cfg, &spans, rep);
    }
    world.service.shutdown();
}

/// The update path's numbers. Timed runs report its throughput as the
/// end-to-end `throughput_per_s`; both runs print the latencies.
fn update_metrics(applied: &[Applied], trace: bool, rep: &mut Report) {
    let lat = stats::latency(applied.iter().map(|a| a.latency_ms).collect());
    if let Some(l) = lat {
        rep.percentile("update.p50_ms", l.p50, "ms");
        rep.percentile("update.tail_ms", l.tail, "ms");
    }
    let retrains = applied.iter().filter(|a| a.retrained).count();
    rep.metric(
        "incremental.retrain_count",
        retrains as f64,
        "count",
        applied.len(),
        "exact",
    );
    if trace {
        let on_update = stats::latency(applied.iter().map(|a| a.on_update_ms).collect());
        rep.latency_pair("incremental.on_update_ms", on_update, "ms");
        let publish: Vec<f64> = applied.iter().map(|a| a.publish_ms).collect();
        rep.metric(
            "registry.publish_ms",
            stats::median(&publish),
            "ms",
            publish.len(),
            "median, snapshot + publish_snapshot",
        );
    } else {
        // The median, not the mean: how many updates retrain varies with the
        // stream, and each retrain costs a hundred plain updates.
        let busy: Vec<f64> = applied.iter().map(|a| a.busy_s).collect();
        rep.metric(
            "throughput_per_s",
            1.0 / stats::median(&busy),
            "1/s",
            busy.len(),
            "update batches per second, 1 / median update-path time",
        );
    }
}
