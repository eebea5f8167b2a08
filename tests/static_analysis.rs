//! Regression tests for the determinism auditor itself.
//!
//! Three contracts: (1) today's workspace is clean — zero unallowed
//! violations, so the CI `static-analysis` job is a meaningful gate, not
//! a broken one everyone ignores; (2) every rule actually fires — each
//! seeded fixture under `crates/analyzer/fixtures/<rule>/` carries
//! exactly one violation of exactly its rule; (3) the allowlist
//! round-trips — a justified annotation suppresses a finding (and keeps
//! the reason), a malformed one fails the scan loudly.

use lens_analyzer::{scan_root, scan_str, RuleId};
use std::fs;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    // Registered on the `lens` facade at crates/lens, so the workspace
    // root is two levels up from its manifest dir.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lens has a grandparent")
        .to_path_buf()
}

#[test]
fn workspace_has_zero_unallowed_violations() {
    let report = scan_root(&repo_root()).expect("workspace scans");
    // If the walker silently scanned nothing, a "clean" verdict would be
    // vacuous — pin a floor on coverage (82 files at the time of writing).
    assert!(
        report.files_scanned >= 70,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
    let offenders: Vec<String> = report
        .unallowed()
        .map(|f| format!("{}:{} [{}] {}", f.path, f.line, f.rule.id(), f.snippet))
        .collect();
    assert!(
        offenders.is_empty(),
        "determinism violations on the clean workspace:\n{}",
        offenders.join("\n")
    );
    assert!(
        report.annotation_issues.is_empty(),
        "malformed allow annotations: {:?}",
        report.annotation_issues
    );
    assert_eq!(report.exit_code(), 0);
    // Per-rule unallowed counts are all zero (allowed findings — the
    // justified engine-construction folds — are fine).
    for (rule, (unallowed, _)) in report.rule_counts() {
        assert_eq!(unallowed, 0, "rule {rule} fired on the clean workspace");
    }
}

#[test]
fn each_rule_fires_exactly_once_on_its_fixture() {
    for rule in RuleId::ALL {
        let fixture_root = repo_root().join("crates/analyzer/fixtures").join(rule.id());
        let report = scan_root(&fixture_root)
            .unwrap_or_else(|e| panic!("fixture tree for {} scans: {e}", rule.id()));
        assert_eq!(report.files_scanned, 1, "one fixture file per rule");
        assert_eq!(
            report.findings.len(),
            1,
            "fixture for {} must trip exactly its one seeded violation, got {:?}",
            rule.id(),
            report.findings
        );
        let finding = &report.findings[0];
        assert_eq!(finding.rule, rule, "fixture fired the wrong rule");
        assert!(finding.allowed.is_none());
        assert_ne!(
            report.exit_code(),
            0,
            "analyzer must exit nonzero on the {} fixture",
            rule.id()
        );
    }
}

#[test]
fn allow_annotation_round_trips() {
    let fixture = repo_root()
        .join("crates/analyzer/fixtures/unordered-collections/crates/fleet/src/merge.rs");
    let source = fs::read_to_string(&fixture).expect("fixture readable");
    let rel = "crates/fleet/src/merge.rs";

    // Unannotated: one unallowed finding.
    let before = scan_str(rel, &source);
    assert_eq!(before.findings.len(), 1);
    let line = before.findings[0].line;
    assert!(before.findings[0].allowed.is_none());
    assert_eq!(before.exit_code(), 1);

    // Insert a justified allow directly above the violation: the finding
    // stays visible but is suppressed, and the reason survives into the
    // JSON summary.
    let reason = "scratch map is drained via sorted keys before anything reads it";
    let mut lines: Vec<&str> = source.lines().collect();
    let annotation = format!("    // lens-analyzer: allow(unordered-collections): {reason}");
    lines.insert(line - 1, &annotation);
    let annotated = lines.join("\n");
    let after = scan_str(rel, &annotated);
    assert_eq!(after.findings.len(), 1);
    assert_eq!(after.findings[0].allowed.as_deref(), Some(reason));
    assert_eq!(
        after.exit_code(),
        0,
        "allowed finding must not fail the scan"
    );
    let json = after.to_json();
    assert!(json.contains("\"total_unallowed\": 0"));
    assert!(json.contains(reason), "reason must survive into JSON");
    assert!(json.contains("\"unordered-collections\": {\"unallowed\": 0, \"allowed\": 1}"));

    // A reason-less annotation is a loud error, not a silent waiver.
    let bare = annotated.replace(&format!(": {reason}"), "");
    let broken = scan_str(rel, &bare);
    assert_eq!(broken.findings.len(), 1);
    assert!(broken.findings[0].allowed.is_none(), "no reason, no waiver");
    assert_eq!(broken.annotation_issues.len(), 1);
    assert_eq!(broken.exit_code(), 1);
}

#[test]
fn json_summary_reports_per_rule_counts_for_every_rule() {
    let report = scan_root(&repo_root()).expect("workspace scans");
    let json = report.to_json();
    for rule in RuleId::ALL {
        assert!(
            json.contains(&format!("\"{}\"", rule.id())),
            "JSON summary must carry a count for {}",
            rule.id()
        );
    }
    assert!(json.contains("\"files_scanned\""));
    assert!(json.contains("\"findings\""));
}

/// The telemetry crate sits inside the rule surface: wall-clock reads
/// still fire in its sources, and the digest-bearing numeric rules
/// (float accumulation, truncating casts) cover every telemetry file —
/// not just `report.rs` — because the trace and metrics digests feed the
/// cross-shard bit-identity pins.
#[test]
fn telemetry_sources_are_inside_the_rule_surface() {
    // Seeded fixture: a SystemTime stamp in a telemetry export path must
    // trip wall-clock exactly once.
    let fixture_root = repo_root().join("crates/analyzer/fixtures/telemetry-wall-clock");
    let report = scan_root(&fixture_root).expect("telemetry fixture tree scans");
    assert_eq!(report.files_scanned, 1, "one seeded telemetry fixture file");
    assert_eq!(report.findings.len(), 1, "exactly the seeded violation");
    assert_eq!(report.findings[0].rule, RuleId::WallClock);
    assert!(report.findings[0].allowed.is_none());
    assert_ne!(report.exit_code(), 0);

    // Scope checks: the same snippet fires the numeric rules at a
    // telemetry path but stays clean in an unscoped module.
    let snippet = "pub fn digest_points(points: &[f64]) -> u64 {\n\
                   \x20   let total: f64 = points.iter().sum();\n\
                   \x20   (total * 1e6) as u32 as u64\n\
                   }\n";
    let inside = scan_str("crates/telemetry/src/metrics.rs", snippet);
    let rules: Vec<RuleId> = inside.findings.iter().map(|f| f.rule).collect();
    assert!(rules.contains(&RuleId::FloatAccumulation), "got {rules:?}");
    assert!(rules.contains(&RuleId::TruncatingCast), "got {rules:?}");
    let outside = scan_str("crates/core/src/search.rs", snippet);
    assert!(
        outside.findings.is_empty(),
        "numeric rules must not fire outside their scope: {:?}",
        outside.findings
    );
}

/// Scenario code is inside the float-accumulation scope: workload-curve
/// multipliers gate every offload draw, so a raw `f64` accumulated in
/// `crates/fleet/src/scenario.rs` perturbs the digest. The seeded
/// curve-shaped fixture must trip exactly that rule, exactly once.
#[test]
fn workload_curve_fixture_fires_float_accumulation_in_scenario_scope() {
    let fixture_root = repo_root().join("crates/analyzer/fixtures/workload-curve");
    let report = scan_root(&fixture_root).expect("workload-curve fixture tree scans");
    assert_eq!(report.files_scanned, 1, "one seeded fixture file");
    assert_eq!(
        report.findings.len(),
        1,
        "exactly the seeded violation, got {:?}",
        report.findings
    );
    assert_eq!(report.findings[0].rule, RuleId::FloatAccumulation);
    assert_eq!(report.findings[0].path, "crates/fleet/src/scenario.rs");
    assert!(report.findings[0].allowed.is_none());
    assert_ne!(report.exit_code(), 0);
}

/// Staged-pipeline transfer pricing is inside the float-accumulation
/// scope: an inter-stage hop priced through accumulated floats would
/// shift integer arrival stamps and break the cross-shard bit-identity
/// pins. The seeded fixture (a pricer totalling raw `f64` hop costs in
/// `crates/wireless/src/transfer.rs`) must trip exactly that rule,
/// exactly once — and the same goes for `crates/fleet/src/pipeline.rs`,
/// while the rest of the wireless crate stays out of scope.
#[test]
fn transfer_pricing_fixture_fires_float_accumulation_in_its_scope() {
    let fixture_root = repo_root().join("crates/analyzer/fixtures/transfer-pricing");
    let report = scan_root(&fixture_root).expect("transfer-pricing fixture tree scans");
    assert_eq!(report.files_scanned, 1, "one seeded fixture file");
    assert_eq!(
        report.findings.len(),
        1,
        "exactly the seeded violation, got {:?}",
        report.findings
    );
    assert_eq!(report.findings[0].rule, RuleId::FloatAccumulation);
    assert_eq!(report.findings[0].path, "crates/wireless/src/transfer.rs");
    assert!(report.findings[0].allowed.is_none());
    assert_ne!(report.exit_code(), 0);

    // Scope checks: the same snippet fires in the pipeline-pricing
    // module but stays clean in the design-time wireless link model.
    let snippet = "pub fn total_transfer(hops: &[f64]) -> f64 {\n\
                   \x20   let mut total: f64 = 0.0;\n\
                   \x20   for hop in hops { total += hop; }\n\
                   \x20   total\n\
                   }\n";
    let inside = scan_str("crates/fleet/src/pipeline.rs", snippet);
    assert_eq!(inside.findings.len(), 1, "got {:?}", inside.findings);
    assert_eq!(inside.findings[0].rule, RuleId::FloatAccumulation);
    let outside = scan_str("crates/wireless/src/link.rs", snippet);
    assert!(
        outside.findings.is_empty(),
        "float-accumulation must not fire outside its scope: {:?}",
        outside.findings
    );
}

/// The barrier replay pool (`crates/fleet/src/replay.rs`) is the second
/// sanctioned concurrency site next to the engine's shard step: its
/// scoped threads are joined in fixed region order, so thread-confinement
/// stays silent there — and only there. The seeded two-file fixture pins
/// both halves: the replay-path file scans clean, the sibling still fires.
#[test]
fn replay_module_sits_inside_the_thread_confinement_carve_out() {
    let fixture_root = repo_root().join("crates/analyzer/fixtures/thread-confinement-replay");
    let report = scan_root(&fixture_root).expect("replay fixture tree scans");
    assert_eq!(report.files_scanned, 2, "replay file plus one sibling");
    assert_eq!(
        report.findings.len(),
        1,
        "exactly the sibling's seeded violation, got {:?}",
        report.findings
    );
    let finding = &report.findings[0];
    assert_eq!(finding.rule, RuleId::ThreadConfinement);
    assert_eq!(finding.path, "crates/fleet/src/cloud.rs");
    assert!(finding.allowed.is_none());
    assert_ne!(report.exit_code(), 0);
}

/// The only waivers on today's workspace are the three engine-construction
/// float folds and the pool posterior's three thread-confinement waivers
/// (its worker count, its scope and its worker spawn) — pin them so new
/// allows get reviewed rather than slipping in silently alongside.
#[test]
fn workspace_allowlist_is_exactly_the_engine_folds_and_the_posterior_fan_out() {
    let report = scan_root(&repo_root()).expect("workspace scans");
    let allowed: Vec<(&str, RuleId)> = report
        .findings
        .iter()
        .filter(|f| f.allowed.is_some())
        .map(|f| (f.path.as_str(), f.rule))
        .collect();
    let mut expected = vec![("crates/fleet/src/engine.rs", RuleId::FloatAccumulation); 3];
    expected.extend([("crates/gp/src/mobo.rs", RuleId::ThreadConfinement); 3]);
    assert_eq!(allowed, expected, "unexpected allowlist drift: {allowed:?}");
}
