//! Cross-crate property tests: invariants that span the whole stack.

use lens::core::{PartitionPolicy, PerfEvaluator};
use lens::fleet::PhaseProbe;
use lens::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn perf(policy: PartitionPolicy, tu: f64) -> PerfEvaluator {
    PerfEvaluator::new(
        WirelessLink::new(WirelessTechnology::Wifi, Mbps::new(tu)),
        Arc::new(DeviceProfile::jetson_tx2_gpu()),
        policy,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any sampled architecture: decodes on both views, has finite strictly
    /// positive objectives, and the partition-aware evaluation never loses
    /// to the edge-only evaluation on either performance metric.
    #[test]
    fn prop_partition_within_never_worse(seed in 0u64..5000, tu in 0.5f64..40.0) {
        let deploy = VggSpace::for_deployment();
        let mut rng = StdRng::seed_from_u64(seed);
        let enc = deploy.sample(&mut rng);
        let analysis = deploy.decode(&enc).unwrap().analyze().unwrap();

        let lens = perf(PartitionPolicy::WithinOptimization, tu).evaluate(&analysis).unwrap();
        let edge = perf(PartitionPolicy::EdgeOnly, tu).evaluate(&analysis).unwrap();

        prop_assert!(lens.latency.get().is_finite() && lens.latency.get() > 0.0);
        prop_assert!(lens.energy.get().is_finite() && lens.energy.get() > 0.0);
        prop_assert!(lens.latency <= edge.latency);
        prop_assert!(lens.energy <= edge.energy);
    }

    /// The Algorithm 1 minimum equals the brute-force minimum over the
    /// enumerated options at the evaluation throughput.
    #[test]
    fn prop_alg1_min_is_true_min(seed in 0u64..5000, tu in 0.5f64..40.0) {
        let deploy = VggSpace::for_deployment();
        let mut rng = StdRng::seed_from_u64(seed);
        let enc = deploy.sample(&mut rng);
        let analysis = deploy.decode(&enc).unwrap().analyze().unwrap();
        let eval = perf(PartitionPolicy::WithinOptimization, tu).evaluate(&analysis).unwrap();

        let tu_m = Mbps::new(tu);
        for metric in [Metric::Latency, Metric::Energy] {
            let brute = eval.perf_min(metric, tu_m);
            let reported = match metric {
                Metric::Latency => eval.latency.get(),
                Metric::Energy => eval.energy.get(),
            };
            prop_assert!((brute - reported).abs() < 1e-9,
                "{metric}: brute {brute} vs reported {reported}");
        }
    }

    /// The dominance map over a sampled architecture's options agrees with
    /// pointwise minimization at arbitrary throughputs.
    #[test]
    fn prop_dominance_map_matches_best_at(seed in 0u64..2000, tu in 0.1f64..80.0) {
        let deploy = VggSpace::for_deployment();
        let mut rng = StdRng::seed_from_u64(seed);
        let enc = deploy.sample(&mut rng);
        let analysis = deploy.decode(&enc).unwrap().analyze().unwrap();
        let eval = perf(PartitionPolicy::WithinOptimization, 3.0).evaluate(&analysis).unwrap();

        let map = DominanceMap::build(&eval.options, Metric::Energy).unwrap();
        let tu_m = Mbps::new(tu);
        let by_map = eval.options[map.best_at(tu_m)].cost(Metric::Energy).at(tu_m);
        let (_, brute) =
            DeploymentPlanner::best_at(&eval.options, Metric::Energy, tu_m).unwrap();
        prop_assert!((by_map - brute).abs() < 1e-9);
    }

    /// Boundary behavior: looking up *exactly* at every pairwise threshold
    /// of a sampled architecture's dominance map still returns a pointwise
    /// argmin (at a crossover both sides cost the same; the lookup must not
    /// fall into a wrong segment).
    #[test]
    fn prop_threshold_exact_lookup_is_argmin(seed in 0u64..2000) {
        let deploy = VggSpace::for_deployment();
        let mut rng = StdRng::seed_from_u64(seed);
        let enc = deploy.sample(&mut rng);
        let analysis = deploy.decode(&enc).unwrap().analyze().unwrap();
        let eval = perf(PartitionPolicy::WithinOptimization, 3.0).evaluate(&analysis).unwrap();

        for metric in [Metric::Latency, Metric::Energy] {
            let map = DominanceMap::build(&eval.options, metric).unwrap();
            for threshold in map.thresholds() {
                let by_map = eval.options[map.best_at(threshold)].cost(metric).at(threshold);
                let (_, brute) =
                    DeploymentPlanner::best_at(&eval.options, metric, threshold).unwrap();
                prop_assert!((by_map - brute).abs() < 1e-9,
                    "{metric} at {threshold}: {by_map} vs {brute}");
            }
        }
    }

    /// A tracker fed a step-change trace converges toward the new level
    /// monotonically, from any alpha, and a single-option dominance map
    /// never switches whatever the tracker reports.
    #[test]
    fn prop_step_trace_tracker_and_degenerate_map(
        alpha in 0.05f64..1.0,
        low in 0.5f64..5.0,
        high in 10.0f64..50.0,
    ) {
        let mut tracker = ThroughputTracker::new(alpha);
        for _ in 0..30 {
            tracker.observe(Mbps::new(low));
        }
        let mut prev = tracker.estimate().unwrap().get();
        for _ in 0..30 {
            tracker.observe(Mbps::new(high));
            let est = tracker.estimate().unwrap().get();
            prop_assert!(est >= prev - 1e-12, "estimate regressed: {est} < {prev}");
            prop_assert!(est <= high + 1e-12);
            prev = est;
        }
        // Eventual convergence (30 steps at the smallest alpha ≈ 0.2 of
        // the gap remaining).
        prop_assert!(high - prev < (high - low) * (1.0 - alpha).powi(30) + 1e-9);

        let analysis = zoo::alexnet().analyze().unwrap();
        let perf_profile = profile_network(&analysis, &DeviceProfile::jetson_tx2_cpu());
        let planner = DeploymentPlanner::new(
            WirelessLink::new(WirelessTechnology::Lte, Mbps::new(3.0)));
        let options = planner.enumerate(&analysis, &perf_profile).unwrap();
        let solo = vec![options[0].clone()];
        let map = DominanceMap::build(&solo, Metric::Energy).unwrap();
        prop_assert_eq!(map.segments().len(), 1);
        prop_assert_eq!(map.best_at(Mbps::new(low)), 0);
        prop_assert_eq!(map.best_at(Mbps::new(high)), 0);
    }

    /// Trace CSV round-trip composed with the simulator: same trace, same
    /// totals.
    #[test]
    fn prop_trace_round_trip_stable_simulation(seed in 0u64..500, median in 1.0f64..30.0) {
        let analysis = zoo::alexnet().analyze().unwrap();
        let perf_profile = profile_network(&analysis, &DeviceProfile::jetson_tx2_cpu());
        let planner = DeploymentPlanner::new(
            WirelessLink::new(WirelessTechnology::Lte, Mbps::new(median)));
        let options = planner.enumerate(&analysis, &perf_profile).unwrap();
        let sim = RuntimeSimulator::new(options).unwrap();

        let trace = TraceGenerator::lte_like(Mbps::new(median)).generate(seed);
        let reparsed = ThroughputTrace::from_csv(&trace.to_csv()).unwrap();

        let a = sim.run(&trace, Metric::Energy, ThroughputTracker::last_sample()).unwrap();
        let b = sim.run(&reparsed, Metric::Energy, ThroughputTracker::last_sample()).unwrap();
        // CSV keeps 4 decimal places of Mbps; totals agree to ~0.1%.
        let rel = (a.dynamic().total() - b.dynamic().total()).abs() / a.dynamic().total();
        prop_assert!(rel < 1e-3, "relative deviation {rel}");
    }

    /// Per-request cloud microsim, single-slot FIFO backend: completion
    /// times are monotone in arrival order — one executor serves batches
    /// strictly in sequence and batches fill FIFO, so a later arrival can
    /// never complete before an earlier one.
    #[test]
    fn prop_per_request_fifo_completions_monotone_in_arrival_order(
        seed in 0u64..10_000,
        n in 1usize..80,
        base_ms in 1.0f64..200.0,
        per_item_ms in 0.0f64..20.0,
        max_batch in 1usize..16,
        linger_ms in 0.0f64..200.0,
    ) {
        let serving = CloudServing::new(vec![
            BackendConfig::new("gpu", 1, base_ms, per_item_ms).with_batching(max_batch, linger_ms),
        ]);
        let mut sim = RegionMicrosim::new(&serving);
        // Seeded pseudo-random arrival times (hash-spread, possibly
        // colliding on the same microsecond).
        let mut requests: Vec<OffloadRequest> = (0..n as u64)
            .map(|i| OffloadRequest {
                arrival_us: (seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % 1_000_000,
                device_id: i,
                stage: 1,
                high_priority: false,
                origin_region: 0,
                failed_over: false,
                base_latency_ms: 0.0,
                energy_mj: 0.0,
                switched: false,
            })
            .collect();
        requests.sort_unstable_by_key(|r| (r.arrival_us, r.device_id));
        let mut out = Vec::new();
        let mut collect = |c| out.push(c);
        sim.run_epoch(&[&requests], 1_000_000, &mut collect, 0, &mut PhaseProbe::disabled());
        sim.flush(&mut collect, 0, &mut PhaseProbe::disabled());
        prop_assert_eq!(out.len(), n, "every request must complete");
        let mut completions: Vec<(u64, u64, f64)> = out
            .iter()
            .map(|c| {
                let completion_ms = c.request.arrival_us as f64 / 1000.0 + c.sojourn_ms;
                (c.request.arrival_us, c.request.device_id, completion_ms)
            })
            .collect();
        completions.sort_unstable_by_key(|&(arrival, device, _)| (arrival, device));
        for pair in completions.windows(2) {
            prop_assert!(
                pair[0].2 <= pair[1].2 + 1e-9,
                "FIFO completion order violated: {pair:?}"
            );
        }
    }

    /// Report percentiles are quantiles of one distribution, so every
    /// tail summary a per-request run produces must be monotone
    /// (p50 ≤ p90 ≤ p95 ≤ p99) — for arbitrary seeded scenarios.
    #[test]
    fn prop_per_request_report_percentiles_monotone(
        seed in 0u64..10_000,
        slots in 1usize..4,
        service_ms in 5.0f64..400.0,
    ) {
        let scenario = FleetScenario::builder()
            .population(60)
            .horizon(Millis::new(300_000.0)) // 5 minutes
            .trace_interval(Millis::new(60_000.0))
            .serving(CloudServing::single(slots, service_ms))
            .policy(FleetPolicy::Fixed(DeploymentKind::AllCloud))
            .metric(Metric::Latency)
            .seed(seed)
            .shards(2)
            .fidelity(CloudSimFidelity::PerRequest)
            .build()
            .unwrap();
        let report = FleetEngine::new(scenario).unwrap().run().unwrap();
        prop_assert_eq!(report.inferences(), 300, "60 devices x 5 periods");
        prop_assert!(report.latency().tail_summary().is_monotone());
        prop_assert!(report.energy().tail_summary().is_monotone());
        for region in 0..report.regions().len() {
            prop_assert!(report.region_tail(region).is_monotone());
        }
        for backend in report.backends() {
            prop_assert!(backend.tail().is_monotone());
        }
        let sojourns: u64 = report.cloud_sojourn().iter().map(|h| h.count()).sum();
        prop_assert_eq!(sojourns, report.offloaded());
    }

    /// Autoscaler slot-count timelines are barrier-side functions of
    /// merged integer demand, so — like the rest of the report — they
    /// must be bit-identical across 1/2/4 shards in both fidelity modes,
    /// for arbitrary seeded autoscaler configurations.
    #[test]
    fn prop_autoscaled_slot_timelines_shard_invariant(
        seed in 0u64..10_000,
        signal_choice in 0u8..2,
        scale_up in 0.4f64..4.0,
        cooldown in 0u32..3,
        step in 1usize..4,
        service_ms in 50.0f64..800.0,
    ) {
        let auto = Autoscaler::new(
            if signal_choice == 0 { ScalingSignal::Utilization } else { ScalingSignal::QueueDepth },
            scale_up,
            scale_up / 4.0,
            1,
            10,
        )
        .with_cooldown(cooldown)
        .with_step(step);
        let scenario = |shards: usize, fidelity: CloudSimFidelity| {
            let serving = CloudServing::new(vec![BackendConfig::new("gpu", 1, service_ms, 1.0)
                .with_price(2.0)
                .with_energy(0.5)
                .with_autoscaler(auto)])
            .with_dispatch(DispatchPolicy::CostAware);
            FleetScenario::builder()
                .population(120)
                .horizon(Millis::new(300_000.0)) // 5 minutes
                .trace_interval(Millis::new(60_000.0))
                .serving(serving)
                .policy(FleetPolicy::Fixed(DeploymentKind::AllCloud))
                .metric(Metric::Latency)
                .seed(seed)
                .shards(shards)
                .fidelity(fidelity)
                .build()
                .unwrap()
        };
        for fidelity in [CloudSimFidelity::Fluid, CloudSimFidelity::PerRequest] {
            let one = FleetEngine::new(scenario(1, fidelity)).unwrap().run().unwrap();
            for shards in [2usize, 4] {
                let other = FleetEngine::new(scenario(shards, fidelity)).unwrap().run().unwrap();
                for (a, b) in one.backends().iter().zip(other.backends()) {
                    prop_assert_eq!(
                        &a.slot_timeline,
                        &b.slot_timeline,
                        "{:?} timeline differs at {} shards",
                        fidelity,
                        shards
                    );
                    prop_assert_eq!(a.scaling_events, b.scaling_events);
                    prop_assert_eq!(a.provision_cost(), b.provision_cost());
                }
                prop_assert_eq!(one.digest(), other.digest());
            }
            for b in one.backends() {
                prop_assert_eq!(b.slot_timeline.len(), 5, "one entry per epoch");
                prop_assert!(b.slot_timeline.iter().all(|&s| (1..=10).contains(&s)));
            }
        }
    }

    /// The tail-targeting autoscaler's state machine under arbitrary p99
    /// sequences: it never changes the slot count while a cooldown is
    /// pending, and the count it asks for never leaves
    /// `[min_slots, max_slots]`.
    #[test]
    fn prop_tail_scaler_honors_cooldown_and_bounds(
        p99s in proptest::collection::vec(0.0f64..50_000.0, 1..60),
        target_us in 1u64..5_000_000,
        scale_up in 0.5f64..4.0,
        cooldown in 0u32..4,
        step in 1usize..4,
        min_slots in 1usize..3,
        extra in 0usize..8,
        alpha in 0.05f64..1.0,
    ) {
        let max_slots = min_slots + extra;
        let auto = Autoscaler::new(
            ScalingSignal::TailLatency { target_us },
            scale_up,
            scale_up / 4.0,
            min_slots,
            max_slots,
        )
        .with_cooldown(cooldown)
        .with_step(step)
        .with_alpha(alpha);
        prop_assert!(auto.validate().is_ok());
        let mut state = ScalerState::default();
        let mut slots = min_slots;
        for p99_ms in p99s {
            // The observation both tiers feed the scaler: p99 as a
            // fraction of the tail budget.
            let observed = p99_ms / (target_us as f64 / 1000.0);
            let pending = state.cooldown > 0;
            let next = auto.step(&mut state, observed, slots);
            if pending {
                prop_assert_eq!(next, slots, "scaled during cooldown");
            }
            prop_assert!(
                (min_slots..=max_slots).contains(&next),
                "slot count {} left [{}, {}]", next, min_slots, max_slots
            );
            if next != slots {
                auto.arm(&mut state);
                slots = next;
            }
        }
    }

    /// Parallel barrier replay is a wall-clock knob, not a semantics
    /// knob: for arbitrary seeded multi-region scenarios, forcing the
    /// region replay onto scoped worker threads produces a report
    /// bit-identical to the forced-sequential sweep — in both cloud
    /// fidelities. This is the contract that lets `ReplayMode::Auto`
    /// pick per-host without perturbing any digest.
    #[test]
    fn prop_parallel_replay_bit_identical_to_sequential(
        seed in 0u64..10_000,
        population in 40usize..160,
        share in 0.2f64..0.8,
        slots in 1usize..4,
        service_ms in 50.0f64..800.0,
        max_batch in 1usize..16,
        shards in 1usize..4,
    ) {
        let scenario = |replay: ReplayMode, fidelity: CloudSimFidelity| {
            let serving = CloudServing::new(vec![BackendConfig::new(
                "gpu", slots, service_ms, 2.0,
            )
            .with_batching(max_batch, 100.0)])
            .with_admission(AdmissionPolicy::Deadline { max_wait_ms: 4_000.0 })
            .with_failover(FailoverPolicy::SiblingRegion { penalty_ms: 60.0 });
            FleetScenario::builder()
                .population(population)
                .horizon(Millis::new(300_000.0)) // 5 minutes
                .trace_interval(Millis::new(60_000.0))
                .regions(vec![
                    RegionShare::new(Region::new("USA", Mbps::new(7.5)), share),
                    RegionShare::new(Region::new("S. Korea", Mbps::new(16.1)), 1.0 - share),
                ])
                .serving(serving)
                .policy(FleetPolicy::Fixed(DeploymentKind::AllCloud))
                .metric(Metric::Latency)
                .seed(seed)
                .shards(shards)
                .fidelity(fidelity)
                .replay(replay)
                .build()
                .unwrap()
        };
        for fidelity in [CloudSimFidelity::Fluid, CloudSimFidelity::PerRequest] {
            let sequential = FleetEngine::new(scenario(ReplayMode::Sequential, fidelity))
                .unwrap()
                .run()
                .unwrap();
            let parallel = FleetEngine::new(scenario(ReplayMode::Parallel, fidelity))
                .unwrap()
                .run()
                .unwrap();
            prop_assert_eq!(
                sequential.digest(),
                parallel.digest(),
                "{:?}: parallel replay diverged from sequential",
                fidelity
            );
            prop_assert_eq!(sequential.inferences(), population as u64 * 5);
        }
    }

    /// Workload-curve evaluation is a pure function of (curve, sim time,
    /// region): the binary-search lookup agrees with a linear reference
    /// scan at arbitrary times, a structurally identical curve agrees
    /// everywhere, and slicing time into epochs of any length cannot
    /// change what a given boundary evaluates to — the property that
    /// makes curve draws shard- and epoch-length-invariant.
    #[test]
    fn prop_workload_curve_evaluation_is_phase_consistent(
        raw in proptest::collection::vec((0u64..10_000_000, 0i64..=1_000_000), 1..8),
        times in proptest::collection::vec(0u64..20_000_000, 1..32),
        offset_ms in 0u64..5_000,
        region in 0usize..4,
        epoch_us in 1u64..1_000_000,
    ) {
        let mut phases: Vec<(u64, i64)> = raw;
        phases.sort_unstable_by_key(|&(start, _)| start);
        phases.dedup_by_key(|&mut (start, _)| start);
        phases[0].0 = 0;
        let curve = WorkloadCurve::from_phases_fp(phases.clone())
            .with_region_offset(Millis::new(offset_ms as f64));
        let offset_us = offset_ms * 1000;
        let reference = |t: u64| {
            let local = t.saturating_sub(region as u64 * offset_us);
            phases.iter().rev().find(|&&(start, _)| start <= local).unwrap().1
        };
        for &t in &times {
            let expected = reference(t);
            prop_assert_eq!(curve.multiplier_fp(t, region), expected);
            prop_assert_eq!(curve.phases()[curve.phase_index(t, region)].1, expected);
            // A clone built from the same phases agrees at every time…
            let clone = WorkloadCurve::from_phases_fp(phases.clone())
                .with_region_offset(Millis::new(offset_ms as f64));
            prop_assert_eq!(clone.multiplier_fp(t, region), expected);
            // …and the epoch boundary at/below t evaluates by the same
            // rule, whatever the epoch length.
            let epoch_start = (t / epoch_us) * epoch_us;
            prop_assert_eq!(curve.multiplier_fp(epoch_start, region), reference(epoch_start));
        }
    }
}

/// Helper trait used by `prop_alg1_min_is_true_min`: brute-force minimum
/// over the enumerated options.
trait PerfMin {
    fn perf_min(&self, metric: Metric, tu: Mbps) -> f64;
}

impl PerfMin for lens::core::PerfEvaluation {
    fn perf_min(&self, metric: Metric, tu: Mbps) -> f64 {
        self.options
            .iter()
            .map(|o| o.cost(metric).at(tu))
            .fold(f64::INFINITY, f64::min)
    }
}
