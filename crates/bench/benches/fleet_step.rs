//! Criterion bench: the fleet simulator's hot paths.
//!
//! Measures (a) a full small-fleet run — the number that bounds how many
//! scenario sweeps fit in a workflow — and (b) the per-event cost implied
//! by a larger run, plus the design-time engine construction (trace
//! synthesis dominates it).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lens::fleet::PhaseProbe;
use lens::prelude::*;
use lens_bench::workloads;
use std::hint::black_box;

fn bench_fleet(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet");

    for population in [1_000usize, 10_000] {
        let engine =
            FleetEngine::new(workloads::fleet_scenario(population, 1)).expect("engine builds");
        group.bench_with_input(BenchmarkId::new("run", population), &engine, |b, engine| {
            b.iter(|| black_box(engine.run().expect("run").inferences()))
        });
    }

    // The same plain run with the flight recorder attached: every event
    // and barrier also feeds the telemetry layer (ring buffer, metrics
    // timelines, phase counters) — the price of observability when it is
    // switched on. `run` above is the disabled-sink side of the pair: its
    // telemetry hooks const-fold away.
    let engine = FleetEngine::new(workloads::fleet_scenario(10_000, 1)).expect("engine builds");
    group.bench_function("run_traced/10000", |b| {
        b.iter(|| black_box(engine.run_traced().expect("run").0.inferences()))
    });

    // The full run again, with the serving tier exercising batching,
    // water-fill dispatch, admission, and failover on every event/barrier.
    let engine = FleetEngine::new(workloads::batched_fleet_scenario(CloudSimFidelity::Fluid))
        .expect("engine builds");
    group.bench_function("run_batched/10000", |b| {
        b.iter(|| black_box(engine.run().expect("run").inferences()))
    });

    // The same batched serving tier at per-request fidelity: every
    // offloaded inference becomes a discrete arrival/batch/completion
    // event in the region microsims — the tail-latency price tag.
    let engine = FleetEngine::new(workloads::batched_fleet_scenario(
        CloudSimFidelity::PerRequest,
    ))
    .expect("engine builds");
    group.bench_function("per_request/10000", |b| {
        b.iter(|| black_box(engine.run().expect("run").inferences()))
    });

    // The closed tail-latency loop end to end: a flash-crowd workload
    // curve modulating offload intent, a tail-latency autoscaler stepping
    // at the barrier, and deadline-driven device retreats — the
    // per-request price of the measured-tail feedback path.
    let engine = FleetEngine::new(workloads::flash_crowd_fleet_scenario()).expect("engine builds");
    group.bench_function("run_flash_crowd/10000", |b| {
        b.iter(|| black_box(engine.run().expect("run").inferences()))
    });

    // The batched tier with a three-stage split-inference pipeline at
    // per-request fidelity: every offload replays as a chain of stage
    // requests with integer-priced inter-stage transfers — the deepest
    // per-offload barrier workload.
    let engine = FleetEngine::new(workloads::pipeline_fleet_scenario()).expect("engine builds");
    group.bench_function("pipeline/10000", |b| {
        b.iter(|| black_box(engine.run().expect("run").inferences()))
    });

    // The batched tier again with priced, autoscaled backends and
    // cost-aware dispatch — the per-barrier autoscaler + cost accounting
    // overhead on the fluid path.
    let engine = FleetEngine::new(workloads::autoscaled_fleet_scenario()).expect("engine builds");
    group.bench_function("run_autoscaled/10000", |b| {
        b.iter(|| black_box(engine.run().expect("run").inferences()))
    });

    // The barrier path in isolation: one region's admit → water-fill →
    // batch-close/drain → scale → publish cycle, at a fluid 5k
    // offloads/epoch.
    let serving = workloads::batched_serving();
    group.bench_function("batch_close", |b| {
        b.iter(|| {
            let mut region = RegionServing::new(&serving);
            for _ in 0..60 {
                region.admit(500, 4_500);
                region.drain(60_000.0, 0, 0, &mut PhaseProbe::disabled());
                region.scale(60_000.0, 0, 0, &mut PhaseProbe::disabled());
                black_box(region.publish());
            }
            black_box(region.depth())
        })
    });

    group.bench_function("engine_build_10k", |b| {
        b.iter(|| {
            FleetEngine::new(black_box(workloads::fleet_scenario(10_000, 1)))
                .expect("engine builds")
        })
    });

    group.finish();
}

criterion_group!(benches, bench_fleet);
criterion_main!(benches);
