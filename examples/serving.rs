//! Serving: publish a trained estimator into the concurrent estimation
//! service, query it from several client threads, hot-swap a retrained model
//! mid-traffic, and read the service counters.
//!
//! ```text
//! cargo run --release -p cardest-integration --example serving
//! ```

use cardest_core::model::CardNetConfig;
use cardest_core::train::{train_cardnet, TrainerOptions};
use cardest_core::CardNetEstimator;
use cardest_data::synth::{hm_imagenet, SynthConfig};
use cardest_data::{Dataset, Workload};
use cardest_fx::build_extractor;
use cardest_serve::{ModelRegistry, ServeConfig, Service};
use std::sync::Arc;
use std::time::Duration;

fn train(dataset: &Dataset, epochs: usize) -> CardNetEstimator {
    let fx = build_extractor(dataset, 16, 1);
    let split = Workload::sample_from(dataset, 0.10, 10, 7).split(13);
    let cfg = CardNetConfig::new(fx.dim(), fx.tau_max() + 1);
    let opts = TrainerOptions {
        epochs,
        vae_epochs: 2,
        ..TrainerOptions::quick()
    };
    let (trainer, _) = train_cardnet(fx.as_ref(), &split.train, &split.valid, cfg, opts);
    CardNetEstimator::from_trainer(fx, trainer)
}

fn main() {
    // 1. Train and publish the first model generation.
    let dataset = Arc::new(hm_imagenet(SynthConfig::new(1200, 42)));
    let registry = Arc::new(ModelRegistry::new());
    let epoch = registry.publish("default", train(&dataset, 4));
    println!("published `default` at epoch {epoch}");

    // 2. Start the service: micro-batching workers + the monotone cache.
    let service = Service::start(Arc::clone(&registry), ServeConfig::default());

    // 3. Query it from four concurrent clients (each a pretend optimizer
    //    session estimating selection sizes before choosing a plan).
    std::thread::scope(|scope| {
        for c in 0..4u64 {
            let client = service.client();
            let dataset = Arc::clone(&dataset);
            scope.spawn(move || {
                for i in 0..200usize {
                    // Overlapping strides: different clients revisit the
                    // same (record, θ) pairs, as optimizer sessions do.
                    let idx = (c as usize * 50 + i * 13) % 300;
                    let theta = dataset.theta_max * ((i % 10) as f64 + 1.0) / 10.0;
                    let q = Arc::new(dataset.records[idx].clone());
                    let resp = client.estimate("default", q, theta).expect("served");
                    if i == 0 {
                        println!(
                            "client {c}: ĉ(record {idx}, θ={theta:.1}) = {:.1} (epoch {})",
                            resp.estimate, resp.epoch
                        );
                    }
                }
            });
        }
    });

    // 4. Hot-swap a better-trained generation; in-flight queries finish on
    //    the model they resolved, new queries see the replacement.
    let epoch = registry.publish("default", train(&dataset, 10));
    let q = Arc::new(dataset.records[0].clone());
    let resp = service
        .estimate("default", Arc::clone(&q), 8.0)
        .expect("served");
    println!(
        "after hot-swap: ĉ = {:.1} (epoch {})",
        resp.estimate, resp.epoch
    );
    assert_eq!(resp.epoch, epoch);

    // 5. What did the service do all along?
    let stats = service.stats();
    let latency = service.observer().total_histogram();
    println!(
        "served {} requests: {:.1}% cache hits, {} micro-batches (mean size {:.1}), \
         p50 {:?}, p99 {:?}",
        stats.requests,
        stats.hit_rate() * 100.0,
        stats.batches,
        stats.mean_batch_size(),
        Duration::from_nanos(latency.quantile_ns(0.50)),
        Duration::from_nanos(latency.quantile_ns(0.99)),
    );
    service.shutdown();
}
