//! CI bench-regression gate.
//!
//! Re-measures the hot paths whose baselines are checked in under
//! `crates/bench/benches/BENCH_*.json` — the fluid fleet run
//! (`fleet/run/10000`), the per-request fleet run
//! (`fleet/per_request/10000`), the closed tail-latency loop
//! (`fleet/run_flash_crowd/10000`), the staged split-inference pipeline
//! (`fleet/pipeline/10000`), and the search-side paths that gate
//! fleet-in-the-loop NAS (`pareto/build_front/5000`, `gp/fit/300`,
//! `gp/suggest`, `pareto/hypervolume_3d`) — and fails (exit 1) if any of them
//! regresses beyond a generous noise tolerance.
//!
//! The gate measures **in-process** (min-of-N wall clock) instead of
//! parsing bench output, and it builds its workloads from the *same*
//! constructors the criterion benches use (`lens_bench::workloads`), so
//! gate and bench cannot drift apart silently. A first pass beyond the
//! limit earns exactly one re-measure before the gate fails — one
//! scheduler spike on a shared runner should not page anyone, while a
//! real regression fails both passes.
//!
//! Knobs (environment):
//! * `LENS_BENCH_MEASURE_MS` — wall-clock budget per benchmark
//!   (default 300; CI pins its own value in ci.yml — the 3× tolerance
//!   absorbs cross-machine and budget noise).
//! * `LENS_BENCH_GATE_TOLERANCE` — allowed slowdown factor over the
//!   checked-in baseline (default 3; CI machines differ from the
//!   recording machine, so this gates *gross* regressions only).

use lens::gp::kernel::Matern52;
use lens::gp::GpRegressor;
use lens::pareto::{hypervolume, ParetoFront};
use lens::prelude::*;
use lens_bench::workloads;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Allowed slowdown over the checked-in baseline before the gate fails.
const DEFAULT_TOLERANCE: f64 = 3.0;

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Warm up once, then measure until the budget elapses (at least 3
/// iterations) and return the minimum per-iteration time — the
/// noise-robust statistic for a gate.
fn measure<F: FnMut()>(mut f: F) -> Duration {
    f(); // warmup
    let budget = Duration::from_millis(env_f64("LENS_BENCH_MEASURE_MS", 300.0) as u64);
    let started = Instant::now();
    let mut min = Duration::MAX;
    let mut iters = 0u32;
    while iters < 3 || started.elapsed() < budget {
        let t = Instant::now();
        f();
        min = min.min(t.elapsed());
        iters += 1;
    }
    min
}

/// Pulls `number_key: <f64>` out of the JSON object that follows the
/// first occurrence of `section` — a deliberately minimal extractor for
/// the flat, checked-in `BENCH_*.json` baselines (no JSON dependency in
/// the offline build).
fn baseline(json: &str, section: &str, number_key: &str) -> f64 {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("baseline section {section:?} missing"));
    let scope = &json[start..];
    let scope = &scope[..scope.find('}').unwrap_or(scope.len())];
    let key = format!("\"{number_key}\":");
    let at = scope
        .find(&key)
        .unwrap_or_else(|| panic!("baseline key {number_key:?} missing in {section:?}"));
    let value = scope[at + key.len()..]
        .trim_start()
        .split([',', '\n', '}'])
        .next()
        .expect("value after key");
    value
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("unparsable baseline {section}/{number_key}: {e}"))
}

fn read(path: &str) -> String {
    let full = format!("{}/benches/{path}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("cannot read {full}: {e}"))
}

struct Gate {
    tolerance: f64,
    failures: u32,
}

impl Gate {
    /// Measures `workload` and compares against the tolerance-scaled
    /// baseline. A first pass over the limit triggers exactly one
    /// re-measure (keeping the better minimum) before the gate fails:
    /// shared CI runners throw one-off noise spikes a whole budget long,
    /// and a real regression is slow on both passes anyway.
    fn check<F: FnMut()>(&mut self, name: &str, mut workload: F, baseline_ns: f64) {
        let limit_ns = baseline_ns * self.tolerance;
        let mut measured = measure(&mut workload);
        let mut note = "";
        if measured.as_nanos() as f64 > limit_ns {
            measured = measured.min(measure(&mut workload));
            note = "  [re-measured]";
        }
        let measured_ns = measured.as_nanos() as f64;
        let verdict = if measured_ns <= limit_ns {
            "ok"
        } else {
            self.failures += 1;
            "REGRESSION"
        };
        println!(
            "gate {name:<28} min {measured_ns:>14.0} ns  baseline {baseline_ns:>14.0} ns  limit {limit_ns:>14.0} ns  {verdict}{note}"
        );
    }
}

fn main() {
    let tolerance = env_f64("LENS_BENCH_GATE_TOLERANCE", DEFAULT_TOLERANCE);
    let fleet_json = read("BENCH_fleet.json");
    let pareto_json = read("BENCH_pareto.json");
    let mut gate = Gate {
        tolerance,
        failures: 0,
    };
    println!("bench-regression gate (tolerance {tolerance}x)\n");

    // fleet/run/10000 — 100k fluid inference events per iteration, on
    // the bench's plain scenario.
    let engine = FleetEngine::new(workloads::fleet_scenario(10_000, 1)).expect("engine builds");
    let events = engine.scenario().expected_events() as f64;
    gate.check(
        "fleet/run/10000",
        || {
            black_box(engine.run().expect("run").inferences());
        },
        baseline(&fleet_json, "run/10000", "after_ns_per_inference_event") * events,
    );

    // fleet/run_traced/10000 — the same engine with the flight recorder
    // attached: the enabled-telemetry price on the identical workload.
    // The untraced `fleet/run/10000` above doubles as the disabled-sink
    // overhead check — its hooks const-fold away, so it must stay within
    // the pre-telemetry baseline's tolerance.
    gate.check(
        "fleet/run_traced/10000",
        || {
            black_box(engine.run_traced().expect("run").0.inferences());
        },
        baseline(
            &fleet_json,
            "run_traced/10000",
            "after_ns_per_inference_event",
        ) * events,
    );

    // fleet/per_request/10000 — the bench's batched two-backend tier at
    // per-request fidelity (the workload the baseline was recorded on).
    let engine = FleetEngine::new(workloads::batched_fleet_scenario(
        CloudSimFidelity::PerRequest,
    ))
    .expect("engine builds");
    // Event count recomputed from the engine under test — the batched
    // scenario may be retuned independently of the plain one.
    let per_request_events = engine.scenario().expected_events() as f64;
    gate.check(
        "fleet/per_request/10000",
        || {
            black_box(engine.run().expect("run").inferences());
        },
        baseline(
            &fleet_json,
            "per_request/10000",
            "after_ns_per_inference_event",
        ) * per_request_events,
    );

    // fleet/run_flash_crowd/10000 — the closed tail-latency loop
    // (workload curve + tail-targeting autoscaler + deadline-driven
    // device retreats) at per-request fidelity.
    let engine = FleetEngine::new(workloads::flash_crowd_fleet_scenario()).expect("engine builds");
    let flash_crowd_events = engine.scenario().expected_events() as f64;
    gate.check(
        "fleet/run_flash_crowd/10000",
        || {
            black_box(engine.run().expect("run").inferences());
        },
        baseline(
            &fleet_json,
            "run_flash_crowd/10000",
            "after_ns_per_inference_event",
        ) * flash_crowd_events,
    );

    // fleet/pipeline/10000 — the batched tier with a three-stage
    // split-inference pipeline at per-request fidelity: every offload
    // replays as a chain of stage requests with integer-priced
    // inter-stage transfers.
    let engine = FleetEngine::new(workloads::pipeline_fleet_scenario()).expect("engine builds");
    let pipeline_events = engine.scenario().expected_events() as f64;
    gate.check(
        "fleet/pipeline/10000",
        || {
            black_box(engine.run().expect("run").inferences());
        },
        baseline(
            &fleet_json,
            "pipeline/10000",
            "after_ns_per_inference_event",
        ) * pipeline_events,
    );

    // pareto/build_front/5000 — frontier maintenance over a full NAS
    // exploration history (the fleet-in-the-loop search's per-iteration
    // `Pareto_update` cost, amortized).
    let pts = workloads::pareto_points(5000);
    gate.check(
        "pareto/build_front/5000",
        || {
            let front: ParetoFront<usize> = pts.iter().cloned().enumerate().collect();
            black_box(front.len());
        },
        baseline(&pareto_json, "build_front/5000", "after_ms") * 1e6,
    );

    // gp/fit/300 — the O(n³) surrogate refit at the paper's full
    // iteration budget, the other search-side hot path gating
    // fleet-in-the-loop NAS.
    let (xs, ys) = workloads::gp_training_data(300);
    gate.check(
        "gp/fit/300",
        || {
            black_box(
                GpRegressor::fit(xs.clone(), ys.clone(), Matern52::new(0.8, 1.0), 1e-4)
                    .expect("fit succeeds"),
            );
        },
        baseline(&pareto_json, "gp/fit/300", "after_ms") * 1e6,
    );

    // gp/suggest — one refit period of the MOBO search loop at n = 200:
    // the ML-II grid, then 24 suggests that grow the factors by a row per
    // observation and solve the 192-candidate pool in blocks.
    let suggest = workloads::SuggestWorkload::new();
    gate.check(
        "gp/suggest",
        || {
            black_box(suggest.run());
        },
        baseline(&pareto_json, "gp/suggest", "after_ms") * 1e6,
    );

    // pareto/hypervolume_3d — the 2000-point sort-and-sweep.
    let front: ParetoFront<usize> = workloads::pareto_points(2000)
        .into_iter()
        .enumerate()
        .collect();
    let objectives = front.objectives();
    gate.check(
        "pareto/hypervolume_3d",
        || {
            black_box(hypervolume(black_box(&objectives), &[2.0, 2.0, 2.0]));
        },
        baseline(&pareto_json, "hypervolume_3d", "optimized_mean_us") * 1_000.0,
    );

    if gate.failures > 0 {
        eprintln!(
            "\n{} benchmark(s) regressed beyond {tolerance}x",
            gate.failures
        );
        std::process::exit(1);
    }
    println!("\nall gated benchmarks within {tolerance}x of their baselines");
}
