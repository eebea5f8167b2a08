//! A million devices, a full day, in minutes.
//!
//! The flagship scale run behind the parallel-barrier/SoA engine work:
//! a 24-hour horizon at one inference per device per minute — 1 440
//! inference events per device — replayed in both cloud fidelities on
//! the same scenario:
//!
//! 1. **Fluid** — the closed-form tier, the per-event cost floor.
//! 2. **Per-request** — every offload individually queued, batched, and
//!    drained through the region microsims, holding within a small
//!    multiple of the fluid cost per event.
//!
//! Both runs print wall-clock, per-event cost, and the report digest —
//! re-running with the same population and seed must reproduce the
//! digests bit-for-bit whatever the shard count, replay mode, or host.
//! On Linux each run also prints the process's peak resident memory so
//! far (`VmHWM`) and that peak divided by the population, so memory at
//! scale shows next to the per-event cost.
//!
//! The default population is 100 000 (the scale CI smoke-runs on every
//! push); set `LENS_MILLION_FLEET_POP=1000000` for the full million.
//!
//! ```sh
//! LENS_MILLION_FLEET_POP=1000000 \
//!     cargo run --release -p lens --example million_fleet
//! ```

use lens::prelude::*;
use std::time::Instant;

/// The day-long scenario: 600 s epochs (144 barriers), one inference
/// per device per minute, and a two-backend batched tier whose slot
/// counts scale with the population so the cloud stays loaded — but not
/// degenerate — at every scale.
fn scenario(population: usize, shards: usize, fidelity: CloudSimFidelity) -> FleetScenario {
    let scale = (population / 10_000).max(1);
    let serving = CloudServing::new(vec![
        BackendConfig::new("gpu", 2 * scale, 50.0, 0.25).with_batching(64, 100.0),
        BackendConfig::new("cpu", 8 * scale, 40.0, 40.0).with_batching(8, 100.0),
    ])
    .with_admission(AdmissionPolicy::Deadline {
        max_wait_ms: 2_000.0,
    })
    .with_failover(FailoverPolicy::SiblingRegion { penalty_ms: 60.0 });
    FleetScenario::builder()
        .population(population)
        .horizon(Millis::new(86_400_000.0)) // 24 hours
        .trace_interval(Millis::new(600_000.0)) // 144 epochs
        .arrival(ArrivalModel::Periodic {
            period: Millis::new(60_000.0),
        })
        .serving(serving)
        .policy(FleetPolicy::Dynamic)
        .metric(Metric::Energy)
        .seed(11)
        .shards(shards)
        .fidelity(fidelity)
        .replay(ReplayMode::Auto)
        .build()
        .expect("valid scenario")
}

/// The process's peak resident memory so far in bytes, read from the
/// `VmHWM` line of `/proc/self/status`; `None` where that file does not
/// exist (anywhere but Linux) or has no such line.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: u64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib * 1024)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let population: usize = std::env::var("LENS_MILLION_FLEET_POP")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000);
    let shards = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("== million-fleet day ({population} devices, {shards} shard(s)) ==\n");

    let mut fluid_ns_per_event = 0.0;
    for fidelity in [CloudSimFidelity::Fluid, CloudSimFidelity::PerRequest] {
        let engine = FleetEngine::new(scenario(population, shards, fidelity))?;
        let events = engine.scenario().expected_events() as f64;
        let profile = std::env::var("LENS_MILLION_FLEET_PROFILE").is_ok();
        let start = Instant::now();
        let report = if profile {
            let (report, telemetry) = engine.run_traced()?;
            let total = telemetry.profile.total();
            println!(
                "profile: {} timer pops, {} heap ops, {} records merged, {} batches",
                total.events_popped, total.heap_ops, total.records_merged, total.batches_closed
            );
            report
        } else {
            engine.run()?
        };
        let elapsed = start.elapsed();
        let ns_per_event = elapsed.as_nanos() as f64 / events;
        println!(
            "{fidelity:?}: {} inferences in {elapsed:.2?}  ({ns_per_event:.0} ns/event)",
            report.inferences()
        );
        println!(
            "  offloaded {}  shed-to-local {}  p99 latency {:.1} ms  digest {:#018x}",
            report.offloaded(),
            report.shed_to_local(),
            report.latency().percentile(99.0),
            report.digest()
        );
        if let Some(peak) = peak_rss_bytes() {
            println!(
                "  peak RSS so far {:.1} MB  ({} B/device)",
                peak as f64 / (1024.0 * 1024.0),
                peak / population as u64
            );
        }
        match fidelity {
            CloudSimFidelity::Fluid => fluid_ns_per_event = ns_per_event,
            CloudSimFidelity::PerRequest => {
                // The tentpole contract: exact per-request queueing stays
                // within a small constant of the closed-form tier.
                let ratio = ns_per_event / fluid_ns_per_event;
                println!("  per-request / fluid cost ratio {ratio:.2}x");
            }
        }
        println!();
    }
    Ok(())
}
