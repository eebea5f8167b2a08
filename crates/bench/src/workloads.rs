//! The benchmark workloads shared by the criterion benches and the CI
//! bench-regression gate (`src/bin/bench_gate.rs`).
//!
//! A gate that re-measures a *copy* of a bench's workload can silently
//! drift from what the bench actually measures; defining each gated
//! workload exactly once here makes that drift impossible — the bench and
//! the gate call the same constructor.

use lens::gp::{MoboConfig, MultiObjectiveOptimizer};
use lens::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The plain fleet scenario behind `fleet/run/*` and
/// `fleet/engine_build_10k`: a single unbatched 16-slot / 10 ms cloud
/// backend per region, dynamic policy on energy.
pub fn fleet_scenario(population: usize, shards: usize) -> FleetScenario {
    FleetScenario::builder()
        .population(population)
        .horizon(Millis::new(600_000.0)) // 10 minutes, 60 s epochs
        .serving(CloudServing::single(16, 10.0))
        .policy(FleetPolicy::Dynamic)
        .metric(Metric::Energy)
        .seed(11)
        .shards(shards)
        .build()
        .expect("valid scenario")
}

/// A two-backend batched serving tier with admission control — the
/// heaviest per-epoch barrier configuration.
pub fn batched_serving() -> CloudServing {
    CloudServing::new(vec![
        BackendConfig::new("gpu", 2, 50.0, 0.25).with_batching(64, 100.0),
        BackendConfig::new("cpu", 8, 40.0, 40.0).with_batching(8, 100.0),
    ])
    .with_admission(AdmissionPolicy::Deadline {
        max_wait_ms: 2_000.0,
    })
    .with_failover(FailoverPolicy::SiblingRegion { penalty_ms: 60.0 })
}

/// The batched-tier fleet scenario behind `fleet/run_batched/10000` and
/// `fleet/per_request/10000` (the latter at
/// [`CloudSimFidelity::PerRequest`]).
pub fn batched_fleet_scenario(fidelity: CloudSimFidelity) -> FleetScenario {
    FleetScenario::builder()
        .population(10_000)
        .horizon(Millis::new(600_000.0))
        .serving(batched_serving())
        .policy(FleetPolicy::Dynamic)
        .metric(Metric::Energy)
        .seed(11)
        .fidelity(fidelity)
        .build()
        .expect("valid scenario")
}

/// The autoscaled, cost-aware variant behind `fleet/run_autoscaled/10000`:
/// the batched tier with priced autoscalers on both pools and cost-aware
/// dispatch.
pub fn autoscaled_fleet_scenario() -> FleetScenario {
    let mut serving = batched_serving().with_dispatch(DispatchPolicy::CostAware);
    serving.backends[0] = serving.backends[0]
        .clone()
        .with_price(4.0)
        .with_energy(2.0)
        .with_autoscaler(Autoscaler::new(ScalingSignal::Utilization, 0.7, 0.3, 1, 8).with_step(2));
    serving.backends[1] = serving.backends[1]
        .clone()
        .with_price(1.0)
        .with_energy(1.0)
        .with_autoscaler(Autoscaler::new(ScalingSignal::QueueDepth, 8.0, 0.5, 1, 16));
    FleetScenario::builder()
        .population(10_000)
        .horizon(Millis::new(600_000.0))
        .serving(serving)
        .policy(FleetPolicy::Dynamic)
        .metric(Metric::Energy)
        .seed(11)
        .build()
        .expect("valid scenario")
}

/// The closed-loop scenario behind `fleet/run_flash_crowd/10000`: a
/// flash-crowd [`WorkloadCurve`] modulating offload intent, a
/// tail-latency-targeting autoscaler stepping at the barrier, and a
/// device-side tail deadline driving retreats — every stage of the
/// measured-tail feedback loop on the per-request hot path.
pub fn flash_crowd_fleet_scenario() -> FleetScenario {
    let serving = CloudServing::new(vec![BackendConfig::new("gpu", 2, 100.0, 2.0)
        .with_batching(16, 50.0)
        .with_autoscaler(
            Autoscaler::new(
                ScalingSignal::TailLatency { target_us: 500_000 },
                1.0,
                0.25,
                1,
                8,
            )
            .with_alpha(0.6)
            .with_cooldown(1),
        )]);
    FleetScenario::builder()
        .population(10_000)
        .horizon(Millis::new(600_000.0))
        .serving(serving)
        .policy(FleetPolicy::Dynamic)
        .metric(Metric::Latency)
        .seed(11)
        .fidelity(CloudSimFidelity::PerRequest)
        .workload(WorkloadCurve::flash_crowd(
            Millis::new(180_000.0),
            Millis::new(120_000.0),
        ))
        .tail_deadline(Millis::new(2_000.0))
        .build()
        .expect("valid scenario")
}

/// The staged-pipeline scenario behind `fleet/pipeline/10000`: the
/// batched tier at per-request fidelity with a three-stage
/// device → edge → cloud pipeline, so every offload replays as a chain
/// of stage requests with integer-priced inter-stage transfers — the
/// deepest per-offload barrier workload the engine supports today.
pub fn pipeline_fleet_scenario() -> FleetScenario {
    FleetScenario::builder()
        .population(10_000)
        .horizon(Millis::new(600_000.0))
        .serving(batched_serving())
        .policy(FleetPolicy::Dynamic)
        .metric(Metric::Energy)
        .seed(11)
        .fidelity(CloudSimFidelity::PerRequest)
        // AlexNet-shaped staging: conv-tower activation to the edge
        // stage, pooled features to the cloud stage.
        .pipeline(PipelineSpec::new(vec![186_624, 43_264]))
        .build()
        .expect("valid scenario")
}

/// Deterministic pseudo-random GP training data in \[0,1\]^23 (the VGG-
/// space embedding dimension) behind `gp/fit/*` and the gate's
/// `gp/fit/300` — no RNG in the measured region.
pub fn gp_training_data(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let dim = 23;
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..dim)
                .map(|j| {
                    let v = ((i * 31 + j * 17) % 97) as f64 / 96.0;
                    (v * 1.3).fract()
                })
                .collect()
        })
        .collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| x.iter().map(|v| (v * 3.0).sin()).sum::<f64>())
        .collect();
    (xs, ys)
}

/// One refit period of the MOBO search loop behind `gp/suggest` and its
/// gate: a 3-objective optimizer that has seen 200 observations on
/// \[0,1\]^23 takes 25 suggest + tell steps, each over a fresh
/// 192-candidate pool (the search's `pool_random + pool_mutations`). The
/// first suggest runs the ML-II grid; the other 24 reuse its
/// hyperparameters, as between refits of a 20 + 200 search.
#[derive(Debug, Clone)]
pub struct SuggestWorkload {
    observations: Vec<Vec<f64>>,
    pools: Vec<Vec<Vec<f64>>>,
}

impl SuggestWorkload {
    const OBSERVATIONS: usize = 200;
    const STEPS: usize = 25;
    const POOL: usize = 192;

    pub fn new() -> Self {
        let mut state = 0x1e45_5eed;
        SuggestWorkload {
            observations: unit_points(&mut state, Self::OBSERVATIONS),
            pools: (0..Self::STEPS)
                .map(|_| unit_points(&mut state, Self::POOL))
                .collect(),
        }
    }

    /// Runs the period on a fresh optimizer; returns its picks.
    pub fn run(&self) -> Vec<usize> {
        let mut optimizer = MultiObjectiveOptimizer::new(3, MoboConfig::default());
        for x in &self.observations {
            optimizer
                .tell(x.clone(), suggest_objectives(x))
                .expect("finite observation");
        }
        let mut rng = StdRng::seed_from_u64(7);
        self.pools
            .iter()
            .map(|pool| {
                let pick = optimizer.suggest(pool, &mut rng).expect("suggest");
                optimizer
                    .tell(pool[pick].clone(), suggest_objectives(&pool[pick]))
                    .expect("finite observation");
                pick
            })
            .collect()
    }
}

impl Default for SuggestWorkload {
    fn default() -> Self {
        Self::new()
    }
}

/// Three smooth, conflicting objectives over the unit cube.
fn suggest_objectives(x: &[f64]) -> Vec<f64> {
    let wave: f64 = x.iter().map(|v| (v * 3.0).sin()).sum();
    let bowl: f64 = x.iter().map(|v| (v - 0.5) * (v - 0.5)).sum();
    let ramp: f64 = x.iter().enumerate().map(|(t, v)| v * (t + 1) as f64).sum();
    vec![wave, bowl, -ramp]
}

/// `n` points in \[0,1)^23 from a SplitMix64 stream.
fn unit_points(state: &mut u64, n: usize) -> Vec<Vec<f64>> {
    let mut next = || {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n).map(|_| (0..23).map(|_| next()).collect()).collect()
}

/// The deterministic 3-objective point stream behind the `pareto/*`
/// benches (`build_front`, `coverage`, `combined_composition`,
/// `hypervolume_3d`).
pub fn pareto_points(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            let a = ((i * 37) % 101) as f64 / 100.0;
            let b = ((i * 53) % 103) as f64 / 102.0;
            vec![a, b, (2.0 - a - b).max(0.0)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_build() {
        assert_eq!(fleet_scenario(100, 2).population(), 100);
        assert_eq!(
            batched_fleet_scenario(CloudSimFidelity::PerRequest).fidelity(),
            CloudSimFidelity::PerRequest
        );
        assert_eq!(batched_serving().backends.len(), 2);
        let autoscaled = autoscaled_fleet_scenario();
        assert!(autoscaled
            .serving()
            .backends
            .iter()
            .all(|b| b.autoscaler.is_some()));
        let flash = flash_crowd_fleet_scenario();
        assert!(flash.workload().is_some() && flash.tail_deadline().is_some());
        let pipelined = pipeline_fleet_scenario();
        assert!(pipelined.pipeline().is_some_and(|p| p.depth() == 3));
        assert_eq!(pareto_points(3).len(), 3);
        let suggest = SuggestWorkload::new();
        assert_eq!(suggest.observations.len(), 200);
        assert_eq!(suggest.pools.len(), 25);
        assert!(suggest.pools.iter().all(|pool| pool.len() == 192));
    }
}
