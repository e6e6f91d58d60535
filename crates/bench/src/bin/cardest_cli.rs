//! `cardest` command line: generate datasets, train estimators, estimate
//! cardinalities, and serve estimates from the shell — the downstream-user
//! workflow.
//!
//! ```text
//! cardest_cli gen      --kind hm --n 2000 --seed 7 --out data.jsonl
//! cardest_cli train    --data data.jsonl --model model.json [--accelerated]
//! cardest_cli estimate --data data.jsonl --model model.json --query 42 --theta 8
//! cardest_cli estimate --data data.jsonl --model model.json --queries batch.txt
//! cardest_cli serve    --data data.jsonl --model model.json [--workers 4]
//! cardest_cli stats    --data data.jsonl
//! ```
//!
//! `serve` answers `<record-index> <theta>` request lines from stdin with one
//! estimate line each on stdout (a summary of the service counters goes to
//! stderr at EOF); `estimate --queries` runs the same request format from a
//! file through the serving layer's micro-batching path. With `--listen
//! [ADDR]`, `serve` instead opens the framed TCP ingress (`cardest-serve`'s
//! wire protocol, see the README's Serving section) with admission control
//! and load shedding; it prints the bound address, runs until stdin closes,
//! then drains gracefully.
//!
//! (Argument parsing is hand-rolled: the workspace's dependency policy has no
//! CLI-parser crate, and a handful of subcommands does not justify one.)

use cardest_core::estimator::CardinalityEstimator;
use cardest_core::model::CardNetConfig;
use cardest_core::snapshot::Snapshot;
use cardest_core::train::{train_cardnet, TrainerOptions};
use cardest_core::CardNetEstimator;
use cardest_core::Parallelism;
use cardest_data::synth::{self, SynthConfig};
use cardest_data::Record;
use cardest_data::{io as dio, Dataset, Workload};
use cardest_fx::build_extractor;
use cardest_serve::{
    Frame, MetricsServer, ModelRegistry, NetClient, NetConfig, NetServer, Request, RequestFrame,
    ServeConfig, Service, WireQuery,
};
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, flags)) = parse(&args) else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "gen" => cmd_gen(&flags),
        "train" => cmd_train(&flags),
        "estimate" => cmd_estimate(&flags),
        "serve" => cmd_serve(&flags),
        "stats" => cmd_stats(&flags),
        _ => {
            eprintln!("unknown command `{cmd}`\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  cardest_cli gen      --kind <hm|ed|jc|eu> --n <records> [--seed <u64>] --out <file>
  cardest_cli train    --data <file> --model <file> [--accelerated] [--epochs <n>] [--tau-max <n>]
                       [--threads <n kernel workers; 0 = all cores>]
  cardest_cli estimate --data <file> --model <file> --query <record-index> --theta <f64> [--curve]
                       [--threads <n kernel workers; 0 = all cores>]
  cardest_cli estimate --data <file> --model <file> --queries <file with `<index> <theta>` lines>
                       [--threads <n>] [serve's batching, cache and tracing flags]
  cardest_cli serve    --data <file> --model <file> [--workers <n>] [--batch-max <n>]
                       [--threads <n kernel workers per micro-batch; 0 = all cores>]
                       [--batch-window-us <n>] [--cache <entries>] [--bound-tolerance <f64>]
                       [--cache-curve-points <n>] [--pipeline <n outstanding>]
                       [--listen [ADDR]] [--max-conns <n; 0 = unlimited>]
                       [--queue-limit <in-flight requests; 0 = unbounded>]
                       [--deadline-ms <per-request default; 0 = none>]
                       [--client-quota <outstanding per client id; 0 = unlimited>]
                       [--frame-timeout-ms <slow-loris cutoff>]
                       [--idle-timeout-ms <idle-connection cutoff; 0 = none>]
                       [--metrics-addr <ADDR for HTTP /metrics + /stats.json + /traces.json>]
                       [--no-tracing] [--trace-sample <capture every nth trace>]
                       [--slow-threshold-ms <slow-query log cutoff>]
  cardest_cli stats    --data <file>
  cardest_cli stats    --connect <ADDR> [--loadgen <n requests first>]
                       [--index-range <loadgen query indices, default 1>]
                       [--theta <loadgen threshold, default 4>]

Thread counts only change wall clock: every thread count and every kernel
tier (scalar, blocked, explicit SIMD) is bit-identical, so estimates and
trained weights never depend on them. The tier is picked once per process:
the CARDEST_KERNEL_BACKEND env var (scalar|blocked|simd|auto) if set, else
the best the CPU supports (AVX-512 → AVX2 → blocked). A flag the subcommand
does not read is an error.";

type Flags = HashMap<String, String>;

fn parse(args: &[String]) -> Option<(String, Flags)> {
    let mut it = args.iter();
    let cmd = it.next()?.clone();
    let mut flags = HashMap::new();
    let mut key: Option<String> = None;
    for a in it {
        if let Some(stripped) = a.strip_prefix("--") {
            // Bare flags (e.g. --accelerated) read as "true".
            if let Some(k) = key.take() {
                flags.insert(k, "true".to_string());
            }
            key = Some(stripped.to_string());
        } else if let Some(k) = key.take() {
            flags.insert(k, a.clone());
        } else {
            return None; // positional arguments are not part of the grammar
        }
    }
    if let Some(k) = key.take() {
        flags.insert(k, "true".to_string());
    }
    Some((cmd, flags))
}

/// Flags read by `train` and by every subcommand that restores a snapshot
/// through [`load_estimator`].
const LOAD_FLAGS: &[&str] = &["data", "model", "threads"];
/// Flags [`serve_config_from_flags`] reads.
const SERVE_FLAGS: &[&str] = &[
    "workers",
    "batch-max",
    "batch-window-us",
    "cache",
    "bound-tolerance",
    "cache-curve-points",
    "no-tracing",
    "trace-sample",
    "slow-threshold-ms",
];
/// Flags [`net_config_from_flags`] reads.
const NET_FLAGS: &[&str] = &[
    "max-conns",
    "queue-limit",
    "deadline-ms",
    "client-quota",
    "frame-timeout-ms",
    "idle-timeout-ms",
];

/// Rejects the first flag (in name order) outside `known`: `parse` accepts
/// any `--name`, so a typo or another subcommand's flag would otherwise be
/// silently ignored.
fn check_flags(flags: &Flags, known: &[&[&str]]) -> Result<(), String> {
    let unknown = flags
        .keys()
        .filter(|k| !known.iter().any(|set| set.contains(&k.as_str())))
        .min();
    match unknown {
        None => Ok(()),
        Some(k) => Err(format!("unknown flag --{k} for this subcommand\n{USAGE}")),
    }
}

fn required<'a>(flags: &'a Flags, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("missing --{name}\n{USAGE}"))
}

fn parsed<T: std::str::FromStr>(flags: &Flags, name: &str, default: T) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name}: cannot parse `{v}`")),
    }
}

fn cmd_gen(flags: &Flags) -> Result<(), String> {
    check_flags(flags, &[&["kind", "n", "seed", "out"]])?;
    let kind = required(flags, "kind")?;
    let n: usize = parsed(flags, "n", 2000)?;
    let seed: u64 = parsed(flags, "seed", 42)?;
    let out = PathBuf::from(required(flags, "out")?);
    let cfg = SynthConfig::new(n, seed);
    let ds = match kind {
        "hm" => synth::hm_imagenet(cfg),
        "ed" => synth::ed_aminer(cfg),
        "jc" => synth::jc_bms(cfg),
        "eu" => synth::eu_glove(cfg, 48),
        other => return Err(format!("unknown --kind `{other}` (hm|ed|jc|eu)")),
    };
    dio::save_jsonl(&ds, &out).map_err(|e| e.to_string())?;
    println!(
        "wrote {} ({} records, {}) to {}",
        ds.name,
        ds.len(),
        ds.kind.name(),
        out.display()
    );
    Ok(())
}

fn cmd_train(flags: &Flags) -> Result<(), String> {
    check_flags(flags, &[LOAD_FLAGS, &["accelerated", "epochs", "tau-max"]])?;
    let ds = dio::load_jsonl(Path::new(required(flags, "data")?)).map_err(|e| e.to_string())?;
    let model_path = PathBuf::from(required(flags, "model")?);
    let accelerated = flags.contains_key("accelerated");
    let epochs: usize = parsed(flags, "epochs", 56)?;
    let tau_max: usize = parsed(flags, "tau-max", 16)?;
    let threads = threads_flag(flags)?;

    let wl = Workload::sample_from(&ds, 0.10, 12, 7);
    let split = wl.split(13);
    let fx = build_extractor(&ds, tau_max, 1);
    let mut cfg = CardNetConfig::new(fx.dim(), fx.tau_max() + 1);
    if accelerated {
        cfg = cfg.accelerated();
    }
    let opts = TrainerOptions {
        epochs,
        threads,
        ..TrainerOptions::default()
    };
    let (trainer, report) = train_cardnet(fx.as_ref(), &split.train, &split.valid, cfg, opts);
    println!(
        "trained {} in {:.1}s ({} epochs, val MSLE {:.3})",
        if accelerated { "CardNet-A" } else { "CardNet" },
        report.train_seconds,
        report.epochs_run,
        report.best_val_msle
    );
    Snapshot::from_trainer(&trainer, fx.name(), fx.tau_max())
        .save(&model_path)
        .map_err(|e| e.to_string())?;
    println!("snapshot saved to {}", model_path.display());
    Ok(())
}

/// Loads the dataset and snapshot named by `--data`/`--model` and restores a
/// *validated* estimator (decoder count, extractor name, and dimensionality
/// are all checked before a single estimate is produced).
fn load_estimator(flags: &Flags) -> Result<(Dataset, CardNetEstimator), String> {
    let ds = dio::load_jsonl(Path::new(required(flags, "data")?)).map_err(|e| e.to_string())?;
    let snap = Snapshot::load(Path::new(required(flags, "model")?)).map_err(|e| e.to_string())?;
    // Rebuild the extractor the snapshot was trained behind; seeds are
    // deterministic, and `into_estimator` rejects any mismatch.
    let fx = build_extractor(&ds, snap.tau_max, 1);
    let mut est = snap.into_estimator(fx).map_err(|e| e.to_string())?;
    est.set_parallelism(Parallelism::threads(threads_flag(flags)?));
    Ok((ds, est))
}

/// Reads `--threads`; `0` means "one per hardware thread".
fn threads_flag(flags: &Flags) -> Result<usize, String> {
    let n: usize = parsed(flags, "threads", 1)?;
    Ok(if n == 0 {
        Parallelism::auto().thread_count()
    } else {
        n
    })
}

/// Parses one `<record-index> <theta>` request line.
fn parse_request_line(line: &str, n_records: usize) -> Result<(usize, f64), String> {
    let mut parts = line.split_whitespace();
    let idx: usize = parts
        .next()
        .ok_or("empty request line")?
        .parse()
        .map_err(|_| format!("bad record index in `{line}`"))?;
    let theta: f64 = parts
        .next()
        .ok_or_else(|| format!("missing theta in `{line}`"))?
        .parse()
        .map_err(|_| format!("bad theta in `{line}`"))?;
    if parts.next().is_some() {
        return Err(format!("trailing tokens in `{line}`"));
    }
    if idx >= n_records {
        return Err(format!(
            "record index {idx} out of range (dataset has {n_records})"
        ));
    }
    Ok((idx, theta))
}

fn serve_config_from_flags(flags: &Flags) -> Result<ServeConfig, String> {
    let defaults = ServeConfig::default();
    Ok(ServeConfig {
        workers: parsed(flags, "workers", defaults.workers)?,
        batch_max: parsed(flags, "batch-max", defaults.batch_max)?,
        batch_window: Duration::from_micros(parsed(flags, "batch-window-us", 200u64)?),
        cache_capacity: parsed(flags, "cache", defaults.cache_capacity)?,
        bound_tolerance: parsed(flags, "bound-tolerance", 0.0)?,
        cache_curve_points: parsed(flags, "cache-curve-points", 0usize)?,
        tracing: !flags.contains_key("no-tracing"),
        trace_sample: parsed(flags, "trace-sample", defaults.trace_sample)?,
        slow_threshold: Duration::from_millis(parsed(
            flags,
            "slow-threshold-ms",
            defaults.slow_threshold.as_millis() as u64,
        )?),
    })
}

fn cmd_estimate(flags: &Flags) -> Result<(), String> {
    if let Some(queries_path) = flags.get("queries") {
        return cmd_estimate_batch(flags, Path::new(queries_path));
    }
    check_flags(flags, &[LOAD_FLAGS, &["query", "theta", "curve"]])?;
    let (ds, est) = load_estimator(flags)?;
    let query_idx: usize = parsed(flags, "query", 0)?;
    let theta: f64 = required(flags, "theta")?
        .parse()
        .map_err(|_| "--theta: not a number")?;
    if query_idx >= ds.len() {
        return Err(format!(
            "--query {query_idx} out of range (dataset has {})",
            ds.len()
        ));
    }
    let query = &ds.records[query_idx];
    let estimate = if flags.contains_key("curve") {
        // The whole threshold curve from one prepare + one curve call; its
        // final point *is* the scalar estimate (bit-identical), so no second
        // model run is needed.
        let prepared = est.prepare(query);
        let curve = est.curve(&prepared, theta);
        for (step, value) in curve.values().iter().enumerate() {
            println!("τ={step}: {value:.1}");
        }
        curve.last()
    } else {
        est.estimate(query, theta)
    };
    let actual = ds.cardinality_scan(query, theta);
    println!("query #{query_idx}, θ = {theta}: estimated {estimate:.1}, actual {actual}");
    Ok(())
}

/// Batch mode: every `<index> <theta>` line of the file goes through the
/// serving layer (micro-batched, cached), one estimate printed per line in
/// input order.
fn cmd_estimate_batch(flags: &Flags, queries_path: &Path) -> Result<(), String> {
    check_flags(flags, &[LOAD_FLAGS, SERVE_FLAGS, &["queries"]])?;
    let (ds, est) = load_estimator(flags)?;
    let text = std::fs::read_to_string(queries_path).map_err(|e| e.to_string())?;
    let requests: Vec<(usize, f64)> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| parse_request_line(l, ds.len()))
        .collect::<Result<_, _>>()?;

    let registry = Arc::new(ModelRegistry::new());
    registry.publish("default", est);
    let service = Service::start(registry, serve_config_from_flags(flags)?);
    // Fully pipelined: submit everything, then drain in input order — this
    // is what lets the workers form real micro-batches.
    let receivers: Vec<_> = requests
        .iter()
        .map(|&(idx, theta)| {
            service.submit(Request {
                model: "default".into(),
                query: Arc::new(ds.records[idx].clone()),
                theta,
            })
        })
        .collect();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for rx in receivers {
        let resp = rx
            .recv()
            .map_err(|_| "service stopped".to_string())?
            .map_err(|e| e.to_string())?;
        writeln!(out, "{}", resp.estimate).map_err(|e| e.to_string())?;
    }
    drop(out);
    let snap = service.stats();
    eprintln!(
        "{} requests, {} model batches (mean size {:.1}), cache hits {:.1}% (bound hits {:.1}%)",
        snap.requests,
        snap.batches,
        snap.mean_batch_size(),
        snap.hit_rate() * 100.0,
        snap.bound_hit_rate() * 100.0
    );
    service.shutdown();
    Ok(())
}

fn net_config_from_flags(flags: &Flags) -> Result<NetConfig, String> {
    let defaults = NetConfig::default();
    let deadline_ms: u64 = parsed(flags, "deadline-ms", 0u64)?;
    Ok(NetConfig {
        max_connections: parsed(flags, "max-conns", defaults.max_connections)?,
        queue_limit: parsed(flags, "queue-limit", defaults.queue_limit)?,
        default_deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
        client_quota: parsed(flags, "client-quota", defaults.client_quota)?,
        frame_timeout: Duration::from_millis(parsed(
            flags,
            "frame-timeout-ms",
            defaults.frame_timeout.as_millis() as u64,
        )?),
        idle_timeout: {
            // 0 disables the idle guard.
            let default_ms = defaults.idle_timeout.map_or(0, |d| d.as_millis() as u64);
            let ms: u64 = parsed(flags, "idle-timeout-ms", default_ms)?;
            (ms > 0).then(|| Duration::from_millis(ms))
        },
        default_model: defaults.default_model,
    })
}

/// Socket serve mode (`--listen`): the framed TCP ingress with admission
/// control. Prints the bound address on stdout (so scripts can scrape an
/// ephemeral `:0` port), runs until stdin reaches EOF, then drains in-flight
/// work and exits.
fn cmd_serve_socket(flags: &Flags, ds: Dataset, est: CardNetEstimator) -> Result<(), String> {
    let addr_flag = required(flags, "listen")?;
    // A bare `--listen` parses as "true": serve on an ephemeral local port.
    let addr = if addr_flag == "true" {
        "127.0.0.1:0"
    } else {
        addr_flag
    };
    let monotone = est.is_monotonic();
    let registry = Arc::new(ModelRegistry::new());
    let epoch = registry.publish("default", est);
    let config = serve_config_from_flags(flags)?;
    let net = net_config_from_flags(flags)?;
    let service = Service::start(registry, config);
    let records: Vec<Arc<Record>> = ds.records.iter().cloned().map(Arc::new).collect();
    let server = NetServer::bind(addr, service, records, net)
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    println!("listening on {}", server.addr());
    // Optional HTTP observability endpoint: Prometheus text on /metrics,
    // JSON on /stats.json and /traces.json — same unified registry the wire
    // Stats frame reads.
    let metrics = match flags.get("metrics-addr") {
        Some(maddr) => {
            let m = MetricsServer::bind(
                maddr,
                Arc::clone(server.service().stats_handle()),
                Arc::clone(server.service().observer()),
            )
            .map_err(|e| format!("cannot bind metrics endpoint {maddr}: {e}"))?;
            println!("metrics on {}", m.local_addr());
            Some(m)
        }
        None => None,
    };
    std::io::stdout().flush().ok();
    eprintln!(
        "serving `{}` ({} records) over TCP (model epoch {epoch}, monotone: {monotone}); \
         close stdin to drain and exit",
        ds.name,
        ds.len(),
    );
    // Park until the controlling stdin closes; the accept loop and the
    // per-connection threads do all the work.
    for line in std::io::stdin().lock().lines() {
        if line.is_err() {
            break;
        }
    }
    let snap = server.service().stats();
    if let Some(m) = metrics {
        m.shutdown();
    }
    server.shutdown();
    eprintln!(
        "served {} requests ({} errors): cache hits {:.1}%, degraded sheds {}, \
         rejects {} overload + {} quota, p50 {:?}, p99 {:?}",
        snap.requests,
        snap.errors,
        snap.hit_rate() * 100.0,
        snap.shed_bracket,
        snap.shed_rejected,
        snap.quota_rejected,
        snap.latency_quantile(0.50),
        snap.latency_quantile(0.99),
    );
    Ok(())
}

/// Long-running serve mode: request lines on stdin, estimates on stdout.
fn cmd_serve(flags: &Flags) -> Result<(), String> {
    let listen = flags.contains_key("listen");
    if listen {
        check_flags(
            flags,
            &[
                LOAD_FLAGS,
                SERVE_FLAGS,
                NET_FLAGS,
                &["listen", "metrics-addr"],
            ],
        )?;
    } else {
        check_flags(flags, &[LOAD_FLAGS, SERVE_FLAGS, &["pipeline"]])?;
    }
    let (ds, est) = load_estimator(flags)?;
    if listen {
        return cmd_serve_socket(flags, ds, est);
    }
    let monotone = est.is_monotonic();
    let registry = Arc::new(ModelRegistry::new());
    let epoch = registry.publish("default", est);
    let config = serve_config_from_flags(flags)?;
    // How many requests may be in flight before we block on the oldest
    // response. 1 = strictly interactive; larger values let piped input form
    // micro-batches at the cost of response lag behind input.
    let pipeline: usize = parsed(flags, "pipeline", 1usize)?;
    eprintln!(
        "serving `{}` ({} records) with {} workers, batch window {:?}, cache {} entries \
         (model epoch {epoch}, monotone: {monotone}); send `<record-index> <theta>` lines",
        ds.name,
        ds.len(),
        config.workers,
        config.batch_window,
        config.cache_capacity,
    );
    let service = Service::start(registry, config);

    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    type PendingResponse =
        std::sync::mpsc::Receiver<Result<cardest_serve::Response, cardest_serve::ServeError>>;
    let mut in_flight: std::collections::VecDeque<PendingResponse> =
        std::collections::VecDeque::new();
    fn drain(
        in_flight: &mut std::collections::VecDeque<PendingResponse>,
        out: &mut dyn Write,
        until: usize,
    ) {
        while in_flight.len() > until {
            let rx = in_flight.pop_front().expect("non-empty queue");
            match rx.recv() {
                Ok(Ok(resp)) => {
                    let _ = writeln!(out, "{}", resp.estimate);
                }
                Ok(Err(e)) => {
                    let _ = writeln!(out, "ERR {e}");
                }
                Err(_) => {
                    let _ = writeln!(out, "ERR service stopped");
                }
            }
        }
        let _ = out.flush();
    }
    let mut parse_errors = 0usize;
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        if line.trim().is_empty() {
            continue;
        }
        match parse_request_line(&line, ds.len()) {
            Ok((idx, theta)) => {
                in_flight.push_back(service.submit(Request {
                    model: "default".into(),
                    query: Arc::new(ds.records[idx].clone()),
                    theta,
                }));
                drain(&mut in_flight, &mut out, pipeline.max(1) - 1);
            }
            Err(e) => {
                // Flush everything in flight first so response line i keeps
                // pairing with request line i even when pipelining.
                drain(&mut in_flight, &mut out, 0);
                parse_errors += 1;
                eprintln!("bad request: {e}");
                let _ = writeln!(out, "ERR {e}");
                let _ = out.flush();
            }
        }
    }
    drain(&mut in_flight, &mut out, 0);
    drop(out);
    let snap = service.stats();
    eprintln!(
        "served {} requests ({} errors, {parse_errors} malformed lines): \
         {} model batches (mean size {:.1}), \
         cache hits {:.1}% (bound {:.1}%), p50 {:?}, p99 {:?}",
        snap.requests,
        snap.errors,
        snap.batches,
        snap.mean_batch_size(),
        snap.hit_rate() * 100.0,
        snap.bound_hit_rate() * 100.0,
        snap.latency_quantile(0.50),
        snap.latency_quantile(0.99),
    );
    service.shutdown();
    Ok(())
}

fn cmd_stats(flags: &Flags) -> Result<(), String> {
    if flags.contains_key("connect") {
        check_flags(flags, &[&["connect", "loadgen", "theta", "index-range"]])?;
        return cmd_stats_remote(flags);
    }
    check_flags(flags, &[&["data"]])?;
    let ds = dio::load_jsonl(Path::new(required(flags, "data")?)).map_err(|e| e.to_string())?;
    println!("name:      {}", ds.name);
    println!("distance:  {}", ds.kind.name());
    println!("records:   {}", ds.len());
    println!("l_max:     {}", ds.max_width());
    println!("l_avg:     {:.2}", ds.avg_width());
    println!("theta_max: {}", ds.theta_max);
    Ok(())
}

/// `stats --connect`: pulls the unified counter snapshot from a running
/// socket server over the wire protocol's `Stats` frame. With `--loadgen N`
/// it first drives N index requests through the same connection and then
/// **reconciles**: the server-side counter deltas must account for every
/// frame this client sent and received, else the exit code is nonzero.
fn cmd_stats_remote(flags: &Flags) -> Result<(), String> {
    let addr = required(flags, "connect")?;
    let loadgen: u64 = parsed(flags, "loadgen", 0u64)?;
    let theta: f64 = parsed(flags, "theta", 4.0)?;
    let index_range: u64 = parsed::<u64>(flags, "index-range", 1)?.max(1);
    let sock = std::net::ToSocketAddrs::to_socket_addrs(addr)
        .map_err(|e| format!("cannot resolve {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("{addr} resolves to no address"))?;
    let mut client =
        NetClient::connect(sock).map_err(|e| format!("cannot connect to {addr}: {e}"))?;

    let before = client.stats(1).map_err(|e| e.to_string())?;
    let mut seen_responses = 0u64;
    let mut seen_errors = 0u64;
    for i in 0..loadgen {
        client
            .send(&Frame::Request(RequestFrame {
                request_id: i,
                client_id: 0xC11,
                theta,
                deadline_us: 0,
                model: String::new(),
                query: WireQuery::Index(i % index_range),
            }))
            .map_err(|e| e.to_string())?;
    }
    for _ in 0..loadgen {
        match client.recv().map_err(|e| e.to_string())? {
            Frame::Response(_) => seen_responses += 1,
            Frame::Error(_) => seen_errors += 1,
            other => return Err(format!("unexpected frame during loadgen: {other:?}")),
        }
    }
    let after = client.stats(2).map_err(|e| e.to_string())?;

    for (name, value) in &after.counters {
        println!("{name} {value}");
    }
    if loadgen == 0 {
        return Ok(());
    }
    eprintln!("loadgen: {loadgen} sent, {seen_responses} answered, {seen_errors} rejected");
    // Deltas, not absolutes: other clients may be hitting the same server,
    // which can only push the deltas *up* — so `>=` is the exact claim a
    // shared connection can make, and any shortfall means a lost count.
    let delta = |name: &str| {
        after
            .counter(name)
            .unwrap_or(0)
            .saturating_sub(before.counter(name).unwrap_or(0))
    };
    let checks: [(&str, u64, u64); 3] = [
        (
            "cardest_requests_total",
            delta("cardest_requests_total"),
            loadgen,
        ),
        (
            "cardest_answered_total",
            delta("cardest_answered_total"),
            seen_responses,
        ),
        (
            "rejects (errors+shed+quota)",
            delta("cardest_errors_total")
                + delta("cardest_shed_rejected_total")
                + delta("cardest_quota_rejected_total"),
            seen_errors,
        ),
    ];
    for (name, got, want) in checks {
        if got < want {
            return Err(format!(
                "counter reconciliation failed: {name} moved by {got}, \
                 but this client observed {want}"
            ));
        }
    }
    eprintln!("counters reconcile with client-side observations");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    type Cmd = fn(&Flags) -> Result<(), String>;

    fn flags(args: &[&str]) -> Flags {
        let args: Vec<String> = std::iter::once("cmd")
            .chain(args.iter().copied())
            .map(String::from)
            .collect();
        parse(&args).expect("well-formed arguments").1
    }

    #[test]
    fn subcommands_reject_flags_they_do_not_read() {
        let cases: [(Cmd, &[&str], &str); 6] = [
            (cmd_serve, &["--data", "d", "--backend", "simd"], "backend"),
            (cmd_train, &["--data", "d", "--thread", "4"], "thread"),
            (cmd_estimate, &["--query", "1", "--workers", "2"], "workers"),
            (cmd_serve, &["--listen", "--pipeline", "4"], "pipeline"),
            (cmd_gen, &["--kind", "hm", "--threads", "2"], "threads"),
            (
                cmd_stats,
                &["--connect", "127.0.0.1:1", "--data", "d"],
                "data",
            ),
        ];
        for (cmd, args, bad) in cases {
            let err = cmd(&flags(args)).expect_err("unknown flag accepted");
            assert!(
                err.starts_with(&format!("unknown flag --{bad} ")),
                "{args:?}: {err}"
            );
        }
        // Every flag serve reads passes the check; the missing files fail next.
        let known = [
            "--data",
            "d",
            "--threads",
            "2",
            "--listen",
            "--queue-limit",
            "8",
        ];
        let err = cmd_serve(&flags(&known)).expect_err("no such data file");
        assert!(!err.starts_with("unknown flag"), "{err}");
    }
}
