//! Fleet scale-out: 100 000 device sessions over a 1-hour horizon against
//! a finite shared cloud.
//!
//! Demonstrates the three things the fleet subsystem adds over the
//! single-device Fig 8 simulator:
//!
//! 1. **Scale** — a 100k-device population (≈ 6M inference events) runs in
//!    seconds, sharded over `std::thread` workers.
//! 2. **Determinism** — the same seed and shard count produce bit-identical
//!    `FleetReport` aggregates (the run is repeated and digests compared).
//! 3. **Contention** — under a congested cloud, dynamic switching still
//!    beats every fixed deployment policy on aggregate edge energy, and
//!    the congestion-aware variant routes latency around the queue.
//!
//! ```sh
//! cargo run --release -p lens --example fleet_scaleout
//! ```

use lens::prelude::*;
use std::time::Instant;

/// The congested-cloud scenario: Table I regions, mixed radio technologies,
/// and deliberately scarce cloud capacity. Each slot at 12 ms/inference
/// serves 5 000 inferences per one-minute epoch, so `slots` is chosen per
/// section to sit *below* the fleet's offload demand — that is the
/// contention axis the single-device simulator cannot express.
fn scenario(
    population: usize,
    slots: usize,
    policy: FleetPolicy,
    metric: Metric,
    shards: usize,
) -> FleetScenario {
    FleetScenario::builder()
        .population(population)
        .horizon(Millis::new(3_600_000.0)) // 1 hour
        .trace_interval(Millis::new(60_000.0)) // 60 s samples = 60 epochs
        .arrival(ArrivalModel::Periodic {
            period: Millis::new(60_000.0),
        })
        .serving(CloudServing::single(slots, 12.0))
        .policy(policy)
        .metric(metric)
        .seed(2021)
        .shards(shards)
        .build()
        .expect("valid scenario")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let shards = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("== fleet scale-out ({shards} shard(s)) ==\n");

    // 1. Scale: 100k devices, 1 hour, dynamic switching on energy. The
    // USA region alone offloads ~47k inferences per epoch; 8 slots drain
    // only 40k per region, so its cloud queue builds real waits.
    let engine = FleetEngine::new(scenario(
        100_000,
        8,
        FleetPolicy::Dynamic,
        Metric::Energy,
        shards,
    ))?;
    let start = Instant::now();
    let report = engine.run()?;
    let elapsed = start.elapsed();
    println!(
        "100k devices x 1h ({} inferences) in {:.2?}",
        report.inferences(),
        elapsed
    );
    println!("{report}");
    let peak_wait = report
        .queue_wait_ms()
        .iter()
        .flat_map(|region| region.iter())
        .fold(0.0f64, |a, &b| a.max(b));
    println!("peak cloud-queue wait {:.1} s\n", peak_wait / 1000.0);

    // 2. Determinism: a second run must agree bit-for-bit.
    let again = engine.run()?;
    assert_eq!(report, again, "determinism contract violated");
    println!(
        "second run digest {:#018x} == first run digest {:#018x}\n",
        again.digest(),
        report.digest()
    );

    // 3a. Contention, energy view: dynamic vs every fixed policy (smaller
    // population so the whole sweep stays fast). One slot per region
    // drains 5k/epoch — below the USA's ~10k and S. Korea's ~6k offload
    // demand — so the cloud stays congested throughout.
    const SWEEP_POP: usize = 20_000;
    const SWEEP_SLOTS: usize = 1;
    println!("== policy sweep: {SWEEP_POP} devices, congested cloud, energy ==");
    let dynamic = FleetEngine::new(scenario(
        SWEEP_POP,
        SWEEP_SLOTS,
        FleetPolicy::Dynamic,
        Metric::Energy,
        shards,
    ))?
    .run()?;
    let kinds: Vec<DeploymentKind> = {
        let probe = FleetEngine::new(scenario(1, 1, FleetPolicy::Dynamic, Metric::Energy, 1))?;
        probe.cohorts()[0]
            .options
            .iter()
            .map(|o| o.kind().clone())
            .collect()
    };
    println!(
        "  {:<14} total {:>12.0} mJ   ({} switches)",
        "Dynamic",
        dynamic.total_energy_mj(),
        dynamic.switches()
    );
    for kind in kinds {
        let fixed = FleetEngine::new(scenario(
            SWEEP_POP,
            SWEEP_SLOTS,
            FleetPolicy::Fixed(kind.clone()),
            Metric::Energy,
            shards,
        ))?
        .run()?;
        let gain =
            100.0 * (fixed.total_energy_mj() - dynamic.total_energy_mj()) / fixed.total_energy_mj();
        println!(
            "  {:<14} total {:>12.0} mJ   dynamic saves {gain:.2}%",
            kind.to_string(),
            fixed.total_energy_mj(),
        );
        assert!(
            dynamic.total_energy_mj() < fixed.total_energy_mj(),
            "dynamic must beat fixed {kind} on aggregate energy"
        );
    }

    // 3b. Contention, latency view: a fixed All-Cloud fleet saturates the
    // queue; congestion-aware dynamic routes around it.
    println!("\n== latency under congestion: {SWEEP_POP} devices ==");
    for (label, policy) in [
        ("All-Cloud", FleetPolicy::Fixed(DeploymentKind::AllCloud)),
        ("Dynamic", FleetPolicy::Dynamic),
        ("Congestion-aware", FleetPolicy::DynamicCongestionAware),
    ] {
        let r = FleetEngine::new(scenario(
            SWEEP_POP,
            SWEEP_SLOTS,
            policy,
            Metric::Latency,
            shards,
        ))?
        .run()?;
        let peak_queue = r
            .queue_depth()
            .iter()
            .flat_map(|region| region.iter())
            .fold(0.0f64, |a, &b| a.max(b));
        println!(
            "  {label:<17} mean {:>8.1} ms  p99 {:>9.1} ms  peak queue {:>8.0} jobs",
            r.latency().mean(),
            r.latency().percentile(99.0),
            peak_queue
        );
    }

    println!("\ntotal example time {:.2?}", start.elapsed());
    Ok(())
}
