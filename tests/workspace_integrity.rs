//! Guards the build system itself: every crate under `crates/` must be a
//! workspace member, every repo-level test/example must be registered on the
//! facade, and the four criterion benches must be wired with
//! `harness = false`. A new crate or test file that is silently left out of
//! the workspace would otherwise never be compiled by CI.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    // This test is registered on the `lens` facade at crates/lens, so the
    // workspace root is two levels up from its manifest dir.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lens has a grandparent")
        .to_path_buf()
}

fn list_dir(dir: &Path) -> Vec<PathBuf> {
    fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|entry| entry.expect("dir entry").path())
        .collect()
}

#[test]
fn every_crate_dir_is_a_workspace_member() {
    let root = repo_root();
    let root_manifest =
        fs::read_to_string(root.join("Cargo.toml")).expect("root Cargo.toml exists");
    assert!(
        root_manifest.contains("\"crates/*\""),
        "root manifest must glob crates/* as workspace members"
    );
    assert!(
        root_manifest.contains("\"shims/*\""),
        "root manifest must glob shims/* (offline dependency shims)"
    );

    // The glob only picks up directories that contain a manifest; make sure
    // no crate directory is silently skipped for lacking one.
    for crate_dir in list_dir(&root.join("crates")) {
        if !crate_dir.is_dir() {
            continue;
        }
        let manifest = crate_dir.join("Cargo.toml");
        assert!(
            manifest.is_file(),
            "{} has no Cargo.toml — it would be silently excluded from the workspace",
            crate_dir.display()
        );
        let body = fs::read_to_string(&manifest).expect("crate manifest readable");
        let dir_name = crate_dir.file_name().unwrap().to_string_lossy().to_string();
        let expected = if dir_name == "lens" {
            "name = \"lens\"".to_string()
        } else {
            format!("name = \"lens-{dir_name}\"")
        };
        assert!(
            body.contains(&expected),
            "{} should declare package {expected}",
            manifest.display()
        );
    }
}

#[test]
fn workspace_dependency_table_covers_all_crates() {
    let root = repo_root();
    let root_manifest =
        fs::read_to_string(root.join("Cargo.toml")).expect("root Cargo.toml exists");
    for crate_dir in list_dir(&root.join("crates")) {
        if !crate_dir.is_dir() {
            continue;
        }
        let dir_name = crate_dir.file_name().unwrap().to_string_lossy().to_string();
        let pkg = if dir_name == "lens" {
            "lens".to_string()
        } else {
            format!("lens-{dir_name}")
        };
        if pkg == "lens-bench" {
            // Leaf crate: nothing depends on it, so no workspace.dependencies
            // entry is required.
            continue;
        }
        assert!(
            root_manifest.contains(&format!("{pkg} = {{ path = \"crates/{dir_name}\"")),
            "[workspace.dependencies] is missing {pkg}"
        );
    }
}

#[test]
fn repo_level_tests_and_examples_are_registered() {
    let root = repo_root();
    let facade_manifest =
        fs::read_to_string(root.join("crates/lens/Cargo.toml")).expect("facade manifest");

    let stems = |dir: &str| -> BTreeSet<String> {
        list_dir(&root.join(dir))
            .into_iter()
            .filter(|p| p.extension().is_some_and(|e| e == "rs"))
            .map(|p| p.file_stem().unwrap().to_string_lossy().to_string())
            .collect()
    };

    // Match on the registered path, not the target name: a [[test]] and a
    // [[example]] sharing a stem must not mask each other.
    for test in stems("tests") {
        assert!(
            facade_manifest.contains(&format!("path = \"../../tests/{test}.rs\"")),
            "tests/{test}.rs is not registered as a [[test]] on the lens facade"
        );
    }
    for example in stems("examples") {
        assert!(
            facade_manifest.contains(&format!("path = \"../../examples/{example}.rs\"")),
            "examples/{example}.rs is not registered as a [[example]] on the lens facade"
        );
    }
}

#[test]
fn criterion_benches_are_registered_without_default_harness() {
    let root = repo_root();
    let bench_manifest =
        fs::read_to_string(root.join("crates/bench/Cargo.toml")).expect("bench manifest");
    for bench in list_dir(&root.join("crates/bench/benches")) {
        if bench.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let stem = bench.file_stem().unwrap().to_string_lossy().to_string();
        let needle = format!("name = \"{stem}\"");
        let idx = bench_manifest
            .find(&needle)
            .unwrap_or_else(|| panic!("bench {stem} missing from [[bench]] entries"));
        let after = &bench_manifest[idx..];
        let entry_end = after[1..].find("[[").map(|i| i + 1).unwrap_or(after.len());
        assert!(
            after[..entry_end].contains("harness = false"),
            "bench {stem} must set harness = false for criterion"
        );
    }
}

/// The generic stem-scanning tests above catch *unregistered* files; this
/// pins the fleet subsystem's surface by name so a rename or accidental
/// deletion of any piece (crate, facade re-export, bench, example, test)
/// fails loudly rather than silently shrinking coverage.
#[test]
fn fleet_subsystem_is_fully_registered() {
    let root = repo_root();
    let read = |p: &str| fs::read_to_string(root.join(p)).unwrap_or_else(|e| panic!("{p}: {e}"));

    let root_manifest = read("Cargo.toml");
    assert!(
        root_manifest.contains("lens-fleet = { path = \"crates/fleet\""),
        "[workspace.dependencies] must carry lens-fleet"
    );

    let facade_manifest = read("crates/lens/Cargo.toml");
    assert!(
        facade_manifest.contains("lens-fleet = { workspace = true }"),
        "the facade must depend on lens-fleet"
    );
    assert!(
        facade_manifest.contains("path = \"../../examples/fleet_scaleout.rs\""),
        "fleet_scaleout example must be registered on the facade"
    );
    assert!(
        facade_manifest.contains("path = \"../../tests/fleet_sim.rs\""),
        "fleet_sim test must be registered on the facade"
    );

    let facade_lib = read("crates/lens/src/lib.rs");
    assert!(
        facade_lib.contains("pub use lens_fleet as fleet;"),
        "the facade must re-export lens-fleet"
    );

    let bench_manifest = read("crates/bench/Cargo.toml");
    assert!(
        bench_manifest.contains("name = \"fleet_step\""),
        "fleet_step bench must be registered"
    );
}

/// Pins the batched-serving-tier surface added with the docs pass: the
/// `docs/` directory, its README links, and the `cloud_batching` example.
#[test]
fn docs_and_cloud_batching_example_are_pinned() {
    let root = repo_root();
    let read = |p: &str| fs::read_to_string(root.join(p)).unwrap_or_else(|e| panic!("{p}: {e}"));

    let architecture = read("docs/ARCHITECTURE.md");
    assert!(
        architecture.contains("Determinism contract"),
        "docs/ARCHITECTURE.md must document the determinism contract"
    );
    assert!(
        architecture.contains("batch-close"),
        "docs/ARCHITECTURE.md must walk through the serving tier's batch-close events"
    );
    let paper_map = read("docs/PAPER_MAP.md");
    for crate_name in [
        "lens-num",
        "lens-nn",
        "lens-space",
        "lens-wireless",
        "lens-device",
        "lens-gp",
        "lens-pareto",
        "lens-accuracy",
        "lens-runtime",
        "lens-fleet",
        "lens-core",
        "lens-bench",
    ] {
        assert!(
            paper_map.contains(crate_name),
            "docs/PAPER_MAP.md must cover {crate_name}"
        );
    }

    let readme = read("README.md");
    assert!(
        readme.contains("docs/ARCHITECTURE.md") && readme.contains("docs/PAPER_MAP.md"),
        "README must link both docs"
    );
    let fleet_lib = read("crates/fleet/src/lib.rs");
    assert!(
        fleet_lib.contains("docs/ARCHITECTURE.md"),
        "lens-fleet rustdoc must point at docs/ARCHITECTURE.md"
    );

    let facade_manifest = read("crates/lens/Cargo.toml");
    assert!(
        facade_manifest.contains("path = \"../../examples/cloud_batching.rs\""),
        "cloud_batching example must be registered on the facade"
    );
    let bench_json = read("crates/bench/benches/BENCH_fleet.json");
    assert!(
        bench_json.contains("batch_close"),
        "BENCH_fleet.json must record the batch_close bench"
    );
}

/// Pins the per-request microsimulation surface: the fidelity knob, the
/// tail-reporting docs, the `tail_latency` example, the `per_request`
/// bench record, and its CI smoke-run.
#[test]
fn per_request_microsim_surface_is_pinned() {
    let root = repo_root();
    let read = |p: &str| fs::read_to_string(root.join(p)).unwrap_or_else(|e| panic!("{p}: {e}"));

    let architecture = read("docs/ARCHITECTURE.md");
    assert!(
        architecture.contains("Cloud fidelity modes"),
        "docs/ARCHITECTURE.md must document the fidelity modes"
    );
    assert!(
        architecture.contains("PerRequest"),
        "docs/ARCHITECTURE.md must cover CloudSimFidelity::PerRequest"
    );
    assert!(
        architecture.contains("slot-free events run first"),
        "docs/ARCHITECTURE.md must document intra-epoch event ordering"
    );
    let paper_map = read("docs/PAPER_MAP.md");
    assert!(
        paper_map.contains("RegionMicrosim"),
        "docs/PAPER_MAP.md must map the latency model to the per-request microsim"
    );

    let facade_manifest = read("crates/lens/Cargo.toml");
    assert!(
        facade_manifest.contains("path = \"../../examples/tail_latency.rs\""),
        "tail_latency example must be registered on the facade"
    );

    let bench_source = read("crates/bench/benches/fleet_step.rs");
    assert!(
        bench_source.contains("per_request/10000"),
        "fleet_step bench must measure the per-request path"
    );
    let bench_json = read("crates/bench/benches/BENCH_fleet.json");
    assert!(
        bench_json.contains("per_request/10000"),
        "BENCH_fleet.json must record the per_request bench"
    );

    let ci = read(".github/workflows/ci.yml");
    assert!(
        ci.contains("examples/*.rs"),
        "CI must smoke-run tail_latency via the matrixed examples step"
    );
}

#[test]
fn ci_gates_docs_and_fleet_smoke_run() {
    let root = repo_root();
    let ci = fs::read_to_string(root.join(".github/workflows/ci.yml")).expect("ci.yml exists");
    assert!(
        ci.contains("cargo doc --workspace --no-deps"),
        "CI must build rustdoc for the workspace"
    );
    assert!(
        ci.contains("RUSTDOCFLAGS: \"-D warnings\""),
        "CI rustdoc step must deny warnings (broken intra-doc links fail)"
    );
    assert!(
        ci.contains("cargo test --doc --workspace"),
        "CI must run doctests explicitly"
    );
    // The four copy-pasted per-example steps collapsed into one matrixed
    // loop: every file under examples/ is smoke-run in release, so new
    // examples (fleet_scaleout, cloud_batching, autoscale_cost, …) are
    // covered without editing the workflow.
    assert!(
        ci.contains("for src in examples/*.rs")
            && ci.contains("cargo run --example \"$example\" --release --locked"),
        "CI must smoke-run every example via the matrixed loop step"
    );
}

#[test]
fn ci_workflow_is_structured_for_scale() {
    let root = repo_root();
    let ci = fs::read_to_string(root.join(".github/workflows/ci.yml")).expect("ci.yml exists");
    assert!(
        ci.contains("concurrency:") && ci.contains("cancel-in-progress: true"),
        "CI must cancel superseded runs per ref"
    );
    // Every job carries a timeout so a hung step cannot pin a runner for
    // the default six hours.
    let jobs = ci.matches("runs-on:").count();
    let timeouts = ci.matches("timeout-minutes:").count();
    assert!(jobs >= 3, "expected the three-job workflow, found {jobs}");
    assert_eq!(
        jobs, timeouts,
        "every CI job must set timeout-minutes ({jobs} jobs, {timeouts} timeouts)"
    );
}

/// Pins the autoscaling, cost-aware serving surface (PR 5): the doc
/// sections, the `autoscale_cost` example, the bench-regression gate (bin
/// + CI job + baselines), and the release-mode determinism job.
#[test]
fn autoscaling_and_bench_gate_surface_is_pinned() {
    let root = repo_root();
    let read = |p: &str| fs::read_to_string(root.join(p)).unwrap_or_else(|e| panic!("{p}: {e}"));

    let architecture = read("docs/ARCHITECTURE.md");
    assert!(
        architecture.contains("Autoscaling"),
        "docs/ARCHITECTURE.md must document the autoscaler state machine"
    );
    assert!(
        architecture.contains("drain → scale → publish"),
        "docs/ARCHITECTURE.md must document the barrier-phase ordering"
    );
    assert!(
        architecture.contains("CostAware"),
        "docs/ARCHITECTURE.md must document cost-aware dispatch"
    );
    let paper_map = read("docs/PAPER_MAP.md");
    assert!(
        paper_map.contains("price × energy"),
        "docs/PAPER_MAP.md must map L_cloud to the price × energy objective"
    );

    let facade_manifest = read("crates/lens/Cargo.toml");
    assert!(
        facade_manifest.contains("path = \"../../examples/autoscale_cost.rs\""),
        "autoscale_cost example must be registered on the facade"
    );

    // The bench-regression gate: the in-process gate binary exists, CI
    // runs it as its own job, and the fleet baselines carry the records
    // it reads plus the new autoscaled bench.
    let gate = read("crates/bench/src/bin/bench_gate.rs");
    for needle in ["run/10000", "per_request/10000", "hypervolume_3d"] {
        assert!(gate.contains(needle), "bench_gate must gate {needle}");
    }
    let bench_source = read("crates/bench/benches/fleet_step.rs");
    assert!(
        bench_source.contains("run_autoscaled/10000"),
        "fleet_step bench must measure the autoscaled path"
    );
    // Gate and benches must build their workloads from the one shared
    // module — measuring a drifted copy would gate the wrong thing.
    for (path, source) in [
        ("bench_gate", &gate),
        ("fleet_step", &bench_source),
        (
            "pareto_update",
            &read("crates/bench/benches/pareto_update.rs"),
        ),
    ] {
        assert!(
            source.contains("lens_bench::workloads") || source.contains("workloads::"),
            "{path} must use the shared lens_bench::workloads definitions"
        );
    }
    let bench_json = read("crates/bench/benches/BENCH_fleet.json");
    assert!(
        bench_json.contains("run_autoscaled/10000"),
        "BENCH_fleet.json must record the autoscaled bench"
    );
    for (section, key) in [
        ("run/10000", "after_ns_per_inference_event"),
        ("per_request/10000", "after_ns_per_inference_event"),
    ] {
        let at = bench_json
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("BENCH_fleet.json missing {section}"));
        assert!(
            bench_json[at..bench_json[at..].find('}').unwrap() + at].contains(key),
            "BENCH_fleet.json {section} must record {key} for the gate"
        );
    }

    let ci = read(".github/workflows/ci.yml");
    assert!(
        ci.contains("cargo run --release -p lens-bench --bin bench_gate"),
        "CI must run the bench-regression gate"
    );
    assert!(
        ci.contains("cargo test --release -q --locked -p lens --test fleet_sim"),
        "CI must run the fleet determinism tests in release mode"
    );
}

/// Pins the determinism-auditor surface (PR 6): the `lens-analyzer`
/// crate, its CI job, the workspace-lints table, the forbid(unsafe_code)
/// attribute in every non-bench crate root, the per-rule fixture trees,
/// the docs section, and the extended bench-gate paths.
#[test]
fn static_analysis_surface_is_pinned() {
    let root = repo_root();
    let read = |p: &str| fs::read_to_string(root.join(p)).unwrap_or_else(|e| panic!("{p}: {e}"));

    // CI runs the analyzer as its own job, in JSON mode so the log is
    // grep-able.
    let ci = read(".github/workflows/ci.yml");
    assert!(
        ci.contains("cargo run -p lens-analyzer --locked -- --format json"),
        "CI must run the determinism audit"
    );

    // Workspace lints exist and every crate (and shim) opts in.
    let root_manifest = read("Cargo.toml");
    assert!(
        root_manifest.contains("[workspace.lints.rust]")
            && root_manifest.contains("unsafe_code = \"deny\""),
        "root manifest must deny unsafe_code via [workspace.lints]"
    );
    assert!(
        root_manifest.contains("lens-analyzer = { path = \"crates/analyzer\""),
        "[workspace.dependencies] must carry lens-analyzer"
    );
    for crate_dir in list_dir(&root.join("crates")) {
        if !crate_dir.is_dir() {
            continue;
        }
        let manifest = fs::read_to_string(crate_dir.join("Cargo.toml")).expect("crate manifest");
        assert!(
            manifest.contains("[lints]") && manifest.contains("workspace = true"),
            "{} must opt into [workspace.lints]",
            crate_dir.display()
        );
        // Belt and braces on top of the lint table: the attribute form is
        // what rule `forbid-unsafe` checks, so a crate cannot re-allow
        // unsafe locally without tripping the audit.
        let dir_name = crate_dir.file_name().unwrap().to_string_lossy().to_string();
        if dir_name != "bench" {
            let lib = fs::read_to_string(crate_dir.join("src/lib.rs")).expect("crate root");
            assert!(
                lib.contains("#![forbid(unsafe_code)]"),
                "crates/{dir_name}/src/lib.rs must carry #![forbid(unsafe_code)]"
            );
        }
    }

    // One fixture tree per rule, and the analyzer's own test surface.
    for rule in [
        "unordered-collections",
        "wall-clock",
        "float-accumulation",
        "truncating-cast",
        "forbid-unsafe",
        "thread-confinement",
        "ambient-entropy",
    ] {
        assert!(
            root.join("crates/analyzer/fixtures").join(rule).is_dir(),
            "fixture tree for rule {rule} is missing"
        );
    }
    let facade_manifest = read("crates/lens/Cargo.toml");
    assert!(
        facade_manifest.contains("path = \"../../tests/static_analysis.rs\""),
        "static_analysis test must be registered on the facade"
    );
    assert!(
        facade_manifest.contains("lens-analyzer = { workspace = true }"),
        "the facade must dev-depend on lens-analyzer"
    );

    // Docs: the rules are user-facing contract, not analyzer trivia.
    let architecture = read("docs/ARCHITECTURE.md");
    assert!(
        architecture.contains("Determinism rules"),
        "docs/ARCHITECTURE.md must document the audited rules"
    );
    assert!(
        architecture.contains("lens-analyzer: allow("),
        "docs/ARCHITECTURE.md must document the allowlist syntax"
    );
    assert!(
        read("README.md").contains("lens-analyzer"),
        "README must point at the determinism auditor"
    );

    // The extended bench-gate surface: search-side paths are gated too.
    let gate = read("crates/bench/src/bin/bench_gate.rs");
    let bench_json = read("crates/bench/benches/BENCH_pareto.json");
    for needle in ["build_front/5000", "gp/fit/300"] {
        assert!(gate.contains(needle), "bench_gate must gate {needle}");
        assert!(
            bench_json.contains(needle),
            "BENCH_pareto.json must record a baseline for {needle}"
        );
    }
}

/// Pins the observability surface (PR 7): the `lens-telemetry` crate,
/// its wiring through the fleet engine, the `flight_recorder` example,
/// the analyzer's extended rule scope + fixture, the traced bench-gate
/// entry, the docs section, and the CI trace-validation step.
#[test]
fn observability_surface_is_pinned() {
    let root = repo_root();
    let read = |p: &str| fs::read_to_string(root.join(p)).unwrap_or_else(|e| panic!("{p}: {e}"));

    // The crate exists, is dependency-free, and is wired into the fleet.
    let telemetry_manifest = read("crates/telemetry/Cargo.toml");
    assert!(
        telemetry_manifest.contains("name = \"lens-telemetry\""),
        "crates/telemetry must declare package lens-telemetry"
    );
    assert!(
        read("Cargo.toml").contains("lens-telemetry = { path = \"crates/telemetry\""),
        "[workspace.dependencies] must carry lens-telemetry"
    );
    assert!(
        read("crates/fleet/Cargo.toml").contains("lens-telemetry = { workspace = true }"),
        "lens-fleet must depend on lens-telemetry"
    );
    let fleet_lib = read("crates/fleet/src/lib.rs");
    assert!(
        fleet_lib.contains("pub use lens_telemetry::"),
        "lens-fleet must re-export the telemetry surface"
    );
    let facade_lib = read("crates/lens/src/lib.rs");
    assert!(
        facade_lib.contains("pub use lens_telemetry as telemetry;"),
        "the facade must re-export lens-telemetry"
    );

    // The example records a run and dumps both export formats.
    let facade_manifest = read("crates/lens/Cargo.toml");
    assert!(
        facade_manifest.contains("path = \"../../examples/flight_recorder.rs\""),
        "flight_recorder example must be registered on the facade"
    );
    let example = read("examples/flight_recorder.rs");
    assert!(
        example.contains("run_traced") && example.contains("to_chrome_trace"),
        "flight_recorder must exercise run_traced and the Chrome export"
    );

    // The analyzer's rule surface covers the telemetry crate, with its
    // own seeded fixture proving wall-clock still fires there.
    assert!(
        read("crates/analyzer/src/rules.rs").contains("loc.crate_dir == \"telemetry\""),
        "the numeric analyzer rules must scope to crates/telemetry"
    );
    assert!(
        root.join("crates/analyzer/fixtures/telemetry-wall-clock")
            .is_dir(),
        "telemetry wall-clock fixture tree is missing"
    );

    // Benches: the traced run is measured and gated, and the untraced
    // run keeps its (disabled-sink) baseline entry.
    assert!(
        read("crates/bench/benches/fleet_step.rs").contains("run_traced/10000"),
        "fleet_step bench must measure the traced path"
    );
    let gate = read("crates/bench/src/bin/bench_gate.rs");
    assert!(
        gate.contains("fleet/run_traced/10000"),
        "bench_gate must gate the traced run"
    );
    let bench_json = read("crates/bench/benches/BENCH_fleet.json");
    for section in ["run/10000", "run_traced/10000"] {
        let at = bench_json
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("BENCH_fleet.json missing {section}"));
        assert!(
            bench_json[at..bench_json[at..].find('}').unwrap() + at]
                .contains("after_ns_per_inference_event"),
            "BENCH_fleet.json {section} must carry the gate's ns/event key"
        );
    }

    // Docs and the shard-invariance pins.
    let architecture = read("docs/ARCHITECTURE.md");
    assert!(
        architecture.contains("## Observability"),
        "docs/ARCHITECTURE.md must document the observability layer"
    );
    for needle in ["Sink", "FlightRecorder", "trace_event", "PhaseProbe"] {
        assert!(
            architecture.contains(needle),
            "docs/ARCHITECTURE.md Observability section must mention {needle}"
        );
    }
    assert!(
        read("README.md").contains("lens-telemetry"),
        "README must point at the telemetry crate"
    );
    assert!(
        read("docs/PAPER_MAP.md").contains("lens-telemetry"),
        "docs/PAPER_MAP.md must cover lens-telemetry"
    );
    let fleet_sim = read("tests/fleet_sim.rs");
    assert!(
        fleet_sim.contains("trace_digest") && fleet_sim.contains("metrics_digest"),
        "tests/fleet_sim.rs must pin the trace and metrics digests"
    );

    // CI validates the emitted Chrome trace after the example loop.
    let ci = read(".github/workflows/ci.yml");
    assert!(
        ci.contains("target/flight_recorder/trace.json"),
        "CI must validate the flight_recorder Chrome trace output"
    );
}

/// Pins the closed tail-latency loop surface (PR 8): the workload-curve
/// scenario knob, the tail-targeting scaling signal, the published p99 +
/// device retreat path, the `closed_loop` regression suite, the
/// `flash_crowd` example, the bench + gate entries, the analyzer scope
/// extension, the docs sections, and the CI release-determinism step.
#[test]
fn closed_loop_surface_is_pinned() {
    let root = repo_root();
    let read = |p: &str| fs::read_to_string(root.join(p)).unwrap_or_else(|e| panic!("{p}: {e}"));

    // The three pieces of the loop live where the map says they do.
    let scenario = read("crates/fleet/src/scenario.rs");
    assert!(
        scenario.contains("pub struct WorkloadCurve") && scenario.contains("CURVE_FP_SCALE"),
        "crates/fleet/src/scenario.rs must define the fixed-point WorkloadCurve"
    );
    assert!(
        read("crates/fleet/src/cloud.rs").contains("TailLatency"),
        "crates/fleet/src/cloud.rs must define ScalingSignal::TailLatency"
    );
    let device = read("crates/fleet/src/device.rs");
    assert!(
        device.contains("RETREAT_SALT") && device.contains("CURVE_SALT"),
        "device-side curve/retreat draws must use their own salted hash streams"
    );

    // Regression suite + example are registered and CI runs both.
    let facade_manifest = read("crates/lens/Cargo.toml");
    assert!(
        facade_manifest.contains("path = \"../../tests/closed_loop.rs\""),
        "closed_loop test must be registered on the facade"
    );
    assert!(
        facade_manifest.contains("path = \"../../examples/flash_crowd.rs\""),
        "flash_crowd example must be registered on the facade"
    );
    let ci = read(".github/workflows/ci.yml");
    assert!(
        ci.contains("cargo test --release -q --locked -p lens --test closed_loop"),
        "CI must run the closed-loop suite in release mode"
    );

    // Bench + gate price the loop against a checked-in baseline.
    assert!(
        read("crates/bench/benches/fleet_step.rs").contains("run_flash_crowd/10000"),
        "fleet_step bench must measure the closed loop"
    );
    assert!(
        read("crates/bench/src/bin/bench_gate.rs").contains("run_flash_crowd/10000"),
        "bench_gate must gate the closed loop"
    );
    let bench_json = read("crates/bench/benches/BENCH_fleet.json");
    let at = bench_json
        .find("\"run_flash_crowd/10000\"")
        .expect("BENCH_fleet.json missing run_flash_crowd/10000");
    assert!(
        bench_json[at..bench_json[at..].find('}').unwrap() + at]
            .contains("after_ns_per_inference_event"),
        "BENCH_fleet.json run_flash_crowd/10000 must carry the gate's ns/event key"
    );

    // The analyzer's float-accumulation scope covers the curve code.
    assert!(
        read("crates/analyzer/src/rules.rs").contains("crates/fleet/src/scenario.rs"),
        "the float-accumulation rule must scope to crates/fleet/src/scenario.rs"
    );
    assert!(
        root.join("crates/analyzer/fixtures/workload-curve")
            .is_dir(),
        "workload-curve fixture tree is missing"
    );

    // Docs walk the loop end to end.
    let architecture = read("docs/ARCHITECTURE.md");
    assert!(
        architecture.contains("The closed tail-latency loop"),
        "docs/ARCHITECTURE.md must document the closed loop"
    );
    for needle in ["WorkloadCurve", "TailLatency", "p99_ms", "retreat"] {
        assert!(
            architecture.contains(needle),
            "docs/ARCHITECTURE.md closed-loop section must mention {needle}"
        );
    }
    assert!(
        read("docs/PAPER_MAP.md").contains("WorkloadCurve"),
        "docs/PAPER_MAP.md must map the closed loop"
    );
}

#[test]
fn release_profile_is_tuned_for_benchmarking() {
    let root = repo_root();
    let root_manifest =
        fs::read_to_string(root.join("Cargo.toml")).expect("root Cargo.toml exists");
    assert!(
        root_manifest.contains("[profile.release]"),
        "release profile tuning missing"
    );
    assert!(
        root_manifest.contains("codegen-units = 1"),
        "release profile should pin codegen-units = 1"
    );
    assert!(
        root_manifest.contains("lto"),
        "release profile should enable LTO"
    );
}

/// Pins the parallel-barrier-replay / million-device-scale surface
/// (PR 9): the replay module and its doc section, the `ReplayMode`
/// knob, the scale row in the paper map, the `million_fleet` example
/// (CI smoke at 100 k devices rides the matrixed examples loop), and
/// the bench gate's single-retry policy.
#[test]
fn parallel_replay_and_scale_surface_is_pinned() {
    let root = repo_root();
    let read = |p: &str| fs::read_to_string(root.join(p)).unwrap_or_else(|e| panic!("{p}: {e}"));

    // The replay worker module exists and owns the scoped fan-out.
    let replay = read("crates/fleet/src/replay.rs");
    assert!(
        replay.contains("std::thread::scope"),
        "replay.rs must fan regions out over a scoped thread pool"
    );
    assert!(
        read("crates/fleet/src/scenario.rs").contains("pub enum ReplayMode"),
        "the ReplayMode knob must live on the scenario"
    );

    // Docs: the ARCHITECTURE section and the PAPER_MAP scale row.
    let architecture = read("docs/ARCHITECTURE.md");
    assert!(
        architecture.contains("Parallel barrier replay"),
        "docs/ARCHITECTURE.md must document the parallel barrier replay"
    );
    for needle in [
        "ReplayMode",
        "fixed region order",
        "crates/fleet/src/replay.rs",
    ] {
        assert!(
            architecture.contains(needle),
            "docs/ARCHITECTURE.md replay section must mention {needle}"
        );
    }
    let paper_map = read("docs/PAPER_MAP.md");
    assert!(
        paper_map.contains("million devices") && paper_map.contains("ReplayMode"),
        "docs/PAPER_MAP.md must carry the million-device scale row"
    );

    // The analyzer admits exactly the two sanctioned concurrency sites.
    let rules = read("crates/analyzer/src/rules.rs");
    assert!(
        rules.contains("crates/fleet/src/engine.rs")
            && rules.contains("crates/fleet/src/replay.rs"),
        "thread-confinement must carve out engine.rs and replay.rs"
    );

    // The flagship scale example is registered and self-describing.
    assert!(
        read("crates/lens/Cargo.toml").contains("path = \"../../examples/million_fleet.rs\""),
        "million_fleet example must be registered on the facade"
    );
    let example = read("examples/million_fleet.rs");
    assert!(
        example.contains("LENS_MILLION_FLEET_POP"),
        "million_fleet must scale its population via LENS_MILLION_FLEET_POP"
    );

    // The proptest pin: parallel replay ≡ sequential replay.
    assert!(
        read("tests/cross_crate_props.rs").contains("ReplayMode::Sequential"),
        "cross_crate_props must pin parallel vs sequential replay"
    );

    // bench_gate earns one re-measure before failing.
    assert!(
        read("crates/bench/src/bin/bench_gate.rs").contains("re-measured"),
        "bench_gate must re-measure once before declaring a regression"
    );
}

/// Pins the staged split-inference pipeline surface (PR 10): the three
/// implementing modules, the `PIPELINES.md` walkthrough and its links,
/// the paper-map split-decision rows, the `split_pipeline` test/example
/// registrations, the `pipeline/10000` bench + gate + baseline, the
/// analyzer's transfer-pricing scope + fixture, and the CI
/// release-determinism step.
#[test]
fn staged_pipeline_surface_is_pinned() {
    let root = repo_root();
    let read = |p: &str| fs::read_to_string(root.join(p)).unwrap_or_else(|e| panic!("{p}: {e}"));

    // The three implementing modules live where the docs say they do.
    assert!(
        read("crates/space/src/staged.rs").contains("pub struct StagedPlan"),
        "crates/space/src/staged.rs must define StagedPlan"
    );
    assert!(
        read("crates/wireless/src/transfer.rs").contains("pub struct TransferModel"),
        "crates/wireless/src/transfer.rs must define TransferModel"
    );
    let pipeline = read("crates/fleet/src/pipeline.rs");
    assert!(
        pipeline.contains("pub struct PipelineSpec") && pipeline.contains("MAX_PIPELINE_DEPTH"),
        "crates/fleet/src/pipeline.rs must define PipelineSpec and its depth cap"
    );

    // The walkthrough document exists, covers the load-bearing pieces,
    // and is linked from the README, ARCHITECTURE, and the fleet landing.
    let pipelines_doc = read("docs/PIPELINES.md");
    for needle in [
        "StagedPlan",
        "TransferModel",
        "PipelineSpec",
        "(arrival_us, device_id, stage)",
        "schedules its successor as an arrival at `completion_us + transfer`",
        "split_pipeline",
    ] {
        assert!(
            pipelines_doc.contains(needle),
            "docs/PIPELINES.md must cover {needle}"
        );
    }
    assert!(
        read("README.md").contains("docs/PIPELINES.md"),
        "README must link docs/PIPELINES.md"
    );
    let architecture = read("docs/ARCHITECTURE.md");
    assert!(
        architecture.contains("## Staged pipelines")
            && architecture.contains("PIPELINES.md")
            && architecture.contains("PipelineSpec"),
        "docs/ARCHITECTURE.md must carry the staged-pipelines section"
    );
    let fleet_lib = read("crates/fleet/src/lib.rs");
    assert!(
        fleet_lib.contains("Staged pipelines") && fleet_lib.contains("PIPELINES.md"),
        "the lens-fleet landing page must document staged pipelines"
    );

    // Paper map: the split-decision rows cite the related work that
    // motivates multi-cut placement.
    let paper_map = read("docs/PAPER_MAP.md");
    for needle in ["StagedPlan", "2111.02489", "2003.06464"] {
        assert!(
            paper_map.contains(needle),
            "docs/PAPER_MAP.md split rows must mention {needle}"
        );
    }

    // Test + example are registered on the facade.
    let facade_manifest = read("crates/lens/Cargo.toml");
    assert!(
        facade_manifest.contains("path = \"../../tests/split_pipeline.rs\""),
        "split_pipeline test must be registered on the facade"
    );
    assert!(
        facade_manifest.contains("path = \"../../examples/split_pipeline.rs\""),
        "split_pipeline example must be registered on the facade"
    );

    // Bench + gate price the pipelined barrier against a checked-in
    // same-machine baseline.
    assert!(
        read("crates/bench/benches/fleet_step.rs").contains("pipeline/10000"),
        "fleet_step bench must measure the pipelined path"
    );
    assert!(
        read("crates/bench/src/bin/bench_gate.rs").contains("fleet/pipeline/10000"),
        "bench_gate must gate the pipelined run"
    );
    let bench_json = read("crates/bench/benches/BENCH_fleet.json");
    let at = bench_json
        .find("\"pipeline/10000\"")
        .expect("BENCH_fleet.json missing pipeline/10000");
    assert!(
        bench_json[at..bench_json[at..].find('}').unwrap() + at]
            .contains("after_ns_per_inference_event"),
        "BENCH_fleet.json pipeline/10000 must carry the gate's ns/event key"
    );

    // The analyzer covers the two integer-pricing modules, with a seeded
    // fixture proving float-accumulation fires there.
    let rules = read("crates/analyzer/src/rules.rs");
    assert!(
        rules.contains("crates/wireless/src/transfer.rs")
            && rules.contains("crates/fleet/src/pipeline.rs"),
        "float-accumulation must scope to the transfer-pricing modules"
    );
    assert!(
        root.join("crates/analyzer/fixtures/transfer-pricing")
            .is_dir(),
        "transfer-pricing fixture tree is missing"
    );

    // CI runs the determinism suite in release mode (the example smoke
    // run rides the matrixed examples loop).
    assert!(
        read(".github/workflows/ci.yml")
            .contains("cargo test --release -q --locked -p lens --test split_pipeline"),
        "CI must run the split-pipeline suite in release mode"
    );
}

/// Anti-drift pin for the README's workspace inventory: every crate
/// directory and every example file must be mentioned by name. A new
/// crate or example that skips the README fails here instead of rotting
/// the "N crates / N examples" story the way lens-analyzer and the
/// example count once did.
#[test]
fn readme_names_every_crate_and_example() {
    let root = repo_root();
    let readme = fs::read_to_string(root.join("README.md")).expect("README.md exists");

    for crate_dir in list_dir(&root.join("crates")) {
        if !crate_dir.is_dir() {
            continue;
        }
        let dir_name = crate_dir.file_name().unwrap().to_string_lossy().to_string();
        let name = if dir_name == "lens" {
            "`lens`".to_string()
        } else {
            format!("lens-{dir_name}")
        };
        assert!(
            readme.contains(&name),
            "README must name crate {name} (workspace inventory drift)"
        );
    }

    for example in list_dir(&root.join("examples")) {
        if example.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let stem = example.file_stem().unwrap().to_string_lossy().to_string();
        assert!(
            readme.contains(&stem),
            "README must name example {stem} (example inventory drift)"
        );
    }

    // The crate-count sentence must agree with the directory listing,
    // so the "Fourteen crates" drift cannot recur.
    let crate_count = list_dir(&root.join("crates"))
        .iter()
        .filter(|p| p.is_dir())
        .count();
    assert_eq!(
        crate_count, 15,
        "crate count changed — update README.md and docs/ARCHITECTURE.md \
         ('Fifteen crates') and this pin together"
    );
    assert!(
        readme.contains("Fifteen crates"),
        "README workspace-layout sentence must say 'Fifteen crates'"
    );
    assert!(
        fs::read_to_string(root.join("docs/ARCHITECTURE.md"))
            .expect("ARCHITECTURE.md exists")
            .contains("Fifteen crates"),
        "docs/ARCHITECTURE.md crate-DAG sentence must say 'Fifteen crates'"
    );
}
