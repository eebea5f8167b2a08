//! The determinism rules and their module-path-aware scopes.
//!
//! Each rule knows *where* it applies (a predicate over the repo-relative
//! file location) and *what* it matches (a line-level token pattern, or a
//! whole-file property). The scopes mirror the bit-identity contract in
//! `docs/ARCHITECTURE.md`: everything that feeds the `FleetReport` digest
//! or the shard-merge barrier must be order-, clock-, and entropy-free.

use crate::scanner::is_word;
use std::collections::BTreeSet;

/// Where a scanned file sits in the workspace, derived from its
/// repo-relative path (`crates/<crate>/src/<modules…>/<file>.rs`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileLoc {
    /// The crate directory name (`fleet`, `core`, `bench`, …).
    pub crate_dir: String,
    /// Repo-relative path with forward slashes.
    pub rel_path: String,
    /// File name (`report.rs`, `lib.rs`, …).
    pub file_name: String,
    /// True for a crate root (`src/lib.rs` or `src/main.rs`).
    pub crate_root: bool,
}

impl FileLoc {
    /// Derives the location from a repo-relative path.
    pub fn from_rel_path(rel_path: &str) -> FileLoc {
        let parts: Vec<&str> = rel_path.split('/').collect();
        let crate_dir = if parts.len() >= 2 && parts[0] == "crates" {
            parts[1].to_string()
        } else {
            String::new()
        };
        let file_name = parts.last().copied().unwrap_or("").to_string();
        let crate_root = parts.len() == 4
            && parts[2] == "src"
            && (file_name == "lib.rs" || file_name == "main.rs");
        FileLoc {
            crate_dir,
            rel_path: rel_path.to_string(),
            file_name,
            crate_root,
        }
    }

    /// A rustdoc-style module path for diagnostics
    /// (`lens-fleet::report`, `lens-bench::bin::bench_gate`).
    pub fn module_path(&self) -> String {
        let pkg = if self.crate_dir == "lens" {
            "lens".to_string()
        } else {
            format!("lens-{}", self.crate_dir)
        };
        let parts: Vec<&str> = self.rel_path.split('/').collect();
        if parts.len() <= 4 && self.crate_root {
            return pkg;
        }
        let mods: Vec<&str> = parts
            .iter()
            .skip(3) // crates/<crate>/src/
            .map(|p| p.strip_suffix(".rs").unwrap_or(p))
            .collect();
        if mods.is_empty() {
            pkg
        } else {
            format!("{pkg}::{}", mods.join("::"))
        }
    }
}

/// The seven determinism rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// `HashMap`/`HashSet` in deterministic code: iteration order varies
    /// run-to-run (`RandomState`), so order can leak into outputs,
    /// digests, or merge sequences. Use `BTreeMap`/`BTreeSet` or a sorted
    /// `Vec`.
    UnorderedCollections,
    /// Wall-clock reads (`Instant`, `SystemTime`) outside `crates/bench`:
    /// simulated time must come from the event heap, never the host.
    WallClock,
    /// Raw `f64` accumulation (`+=` on an `f64`, `sum::<f64>()`) in
    /// report/digest paths: float addition is not associative, so merge
    /// order perturbs low bits. Route through `to_fp`/`i128` instead.
    FloatAccumulation,
    /// Truncating `as` casts to narrow integers in report paths: a
    /// counter that silently wraps produces a digest that depends on
    /// population scale. Also fires on a fixed-point accumulator
    /// (`*_fp` identifier) cast straight to `f64`: above 2^53
    /// micro-units that conversion silently drops low bits even though
    /// the integer sum stays exact — route through the saturating
    /// report helper instead.
    TruncatingCast,
    /// Every non-bench crate root must carry `#![forbid(unsafe_code)]`:
    /// unsafe code could smuggle in any of the hazards above.
    ForbidUnsafe,
    /// Thread spawning outside the engine's shard-step and
    /// barrier-replay modules: the barrier's merge discipline only
    /// covers threads the engine itself forked.
    ThreadConfinement,
    /// Ambient-entropy RNG construction (`thread_rng`, `from_entropy`,
    /// `OsRng`, `getrandom`): every stream must derive from the scenario
    /// seed.
    AmbientEntropy,
}

impl RuleId {
    /// All rules, in reporting order.
    pub const ALL: [RuleId; 7] = [
        RuleId::UnorderedCollections,
        RuleId::WallClock,
        RuleId::FloatAccumulation,
        RuleId::TruncatingCast,
        RuleId::ForbidUnsafe,
        RuleId::ThreadConfinement,
        RuleId::AmbientEntropy,
    ];

    /// The stable kebab-case identifier used in annotations and JSON.
    pub fn id(self) -> &'static str {
        match self {
            RuleId::UnorderedCollections => "unordered-collections",
            RuleId::WallClock => "wall-clock",
            RuleId::FloatAccumulation => "float-accumulation",
            RuleId::TruncatingCast => "truncating-cast",
            RuleId::ForbidUnsafe => "forbid-unsafe",
            RuleId::ThreadConfinement => "thread-confinement",
            RuleId::AmbientEntropy => "ambient-entropy",
        }
    }

    /// Parses the kebab-case identifier.
    pub fn parse(s: &str) -> Option<RuleId> {
        RuleId::ALL.into_iter().find(|r| r.id() == s)
    }

    /// One-line description for diagnostics.
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::UnorderedCollections => {
                "HashMap/HashSet iteration order is nondeterministic; use BTreeMap/BTreeSet or a sorted Vec"
            }
            RuleId::WallClock => {
                "wall-clock read outside crates/bench; simulated time must come from the event heap"
            }
            RuleId::FloatAccumulation => {
                "raw f64 accumulation in a report/digest path; route through the to_fp/i128 fixed-point sums"
            }
            RuleId::TruncatingCast => {
                "truncating integer cast in a report path; counters must not wrap with population scale, and fixed-point sums must not be cast straight to f64"
            }
            RuleId::ForbidUnsafe => "crate root is missing #![forbid(unsafe_code)]",
            RuleId::ThreadConfinement => {
                "thread spawning outside the engine's shard-step/replay modules escapes the barrier's merge discipline"
            }
            RuleId::AmbientEntropy => {
                "ambient-entropy RNG construction; every stream must be derived from the scenario seed"
            }
        }
    }

    /// Does this rule apply to `loc`? Scopes are deliberately coarse
    /// path predicates — a rule that needs an exception takes an explicit
    /// `allow` annotation with a reason, not a scope carve-out.
    pub fn applies(self, loc: &FileLoc) -> bool {
        let bench = loc.crate_dir == "bench";
        match self {
            // Order nondeterminism can leak indirectly (through any value
            // that later feeds a report), so the scope is every non-bench
            // crate, not just the digest-adjacent files.
            RuleId::UnorderedCollections | RuleId::WallClock => !bench,
            // The telemetry crate is digest-bearing end to end (trace and
            // metrics digests feed the bit-identity pins), so the
            // report-path numeric rules cover all of it. Scenario code is
            // in scope too: workload-curve multipliers gate every offload
            // draw, so a float accumulated there perturbs the digest.
            // Pipeline transfer pricing is digest-bearing too: an
            // inter-stage hop priced with a float would shift integer
            // arrival stamps, so the quantize-once integer paths in
            // wireless/transfer.rs and fleet/pipeline.rs stay in scope.
            // The region tiers in fleet/replay.rs book every offload's
            // latency into the shard reports, so they are in scope next
            // to the shard step that calls them.
            RuleId::FloatAccumulation => {
                loc.file_name == "report.rs"
                    || loc.rel_path == "crates/fleet/src/engine.rs"
                    || loc.rel_path == "crates/fleet/src/replay.rs"
                    || loc.rel_path == "crates/fleet/src/scenario.rs"
                    || loc.rel_path == "crates/fleet/src/pipeline.rs"
                    || loc.rel_path == "crates/wireless/src/transfer.rs"
                    || loc.crate_dir == "telemetry"
            }
            RuleId::TruncatingCast => loc.file_name == "report.rs" || loc.crate_dir == "telemetry",
            RuleId::ForbidUnsafe => !bench && loc.crate_root,
            // The shard step (engine.rs) and the barrier replay pool
            // (replay.rs) are the two sanctioned concurrency sites; both
            // sit behind the barrier's fixed merge order.
            RuleId::ThreadConfinement => {
                loc.rel_path != "crates/fleet/src/engine.rs"
                    && loc.rel_path != "crates/fleet/src/replay.rs"
            }
            RuleId::AmbientEntropy => true,
        }
    }
}

/// A raw rule hit, before allowlist resolution: `(rule, 1-based line)`.
pub type Hit = (RuleId, usize);

/// Runs every applicable rule over the stripped code of one file.
/// At most one hit per (rule, line).
pub fn match_rules(loc: &FileLoc, code: &[String]) -> Vec<Hit> {
    let mut hits = Vec::new();
    let f64_names = collect_f64_names(code);
    for rule in RuleId::ALL {
        if !rule.applies(loc) {
            continue;
        }
        match rule {
            RuleId::ForbidUnsafe => {
                let present = code.iter().any(|l| {
                    let squeezed: String = l.chars().filter(|c| !c.is_whitespace()).collect();
                    squeezed.starts_with("#![forbid(unsafe_code")
                });
                if !present {
                    hits.push((rule, 1));
                }
            }
            _ => {
                for (idx, line) in code.iter().enumerate() {
                    if line_matches(rule, line, &f64_names) {
                        hits.push((rule, idx + 1));
                    }
                }
            }
        }
    }
    hits
}

fn line_matches(rule: RuleId, line: &str, f64_names: &BTreeSet<String>) -> bool {
    match rule {
        RuleId::UnorderedCollections => has_token(line, "HashMap") || has_token(line, "HashSet"),
        RuleId::WallClock => has_token(line, "Instant") || has_token(line, "SystemTime"),
        RuleId::FloatAccumulation => float_accumulation(line, f64_names),
        RuleId::TruncatingCast => truncating_cast(line),
        RuleId::ForbidUnsafe => false, // whole-file check
        RuleId::ThreadConfinement => {
            has_token(line, "std::thread")
                || has_token(line, "thread::spawn")
                || has_token(line, "thread::scope")
                || has_token(line, "thread::Builder")
        }
        RuleId::AmbientEntropy => {
            has_token(line, "thread_rng")
                || has_token(line, "from_entropy")
                || has_token(line, "OsRng")
                || has_token(line, "getrandom")
        }
    }
}

/// Word-boundary substring search (boundary = not [A-Za-z0-9_]). The
/// pattern itself may contain `::`.
pub(crate) fn has_token(line: &str, pattern: &str) -> bool {
    let bytes = line.as_bytes();
    let pat = pattern.as_bytes();
    let mut from = 0usize;
    while let Some(at) = line[from..].find(pattern) {
        let start = from + at;
        let end = start + pat.len();
        let left_ok = start == 0 || !is_word(bytes[start - 1] as char);
        let right_ok = end >= bytes.len() || !is_word(bytes[end] as char);
        if left_ok && right_ok {
            return true;
        }
        from = start + 1;
    }
    false
}

/// Collects identifiers declared as `f64` anywhere in the file: explicit
/// `name: f64` annotations (lets, fields, params) and `let [mut] name =
/// <float literal>` inferences. Deliberately file-local and flow-free —
/// a line scanner's symbol table, not a type checker.
fn collect_f64_names(code: &[String]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for line in code {
        // `name: f64` (followed by a non-word char or end).
        let mut from = 0usize;
        while let Some(at) = line[from..].find(": f64") {
            let start = from + at;
            let after = start + ": f64".len();
            let boundary = line
                .as_bytes()
                .get(after)
                .is_none_or(|&b| !is_word(b as char));
            if boundary {
                if let Some(name) = ident_ending_at(line, start) {
                    names.insert(name);
                }
            }
            from = start + 1;
        }
        // `let [mut] name = <float literal>`.
        let trimmed = line.trim_start();
        if let Some(rest) = trimmed.strip_prefix("let ") {
            let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
            let name: String = rest.chars().take_while(|&c| is_word(c)).collect();
            let tail = rest[name.len()..].trim_start();
            if !name.is_empty() {
                if let Some(expr) = tail.strip_prefix('=') {
                    if starts_with_float_literal(expr.trim_start()) {
                        names.insert(name);
                    }
                }
            }
        }
    }
    names
}

/// The identifier whose last char sits just before byte offset `at`.
fn ident_ending_at(line: &str, at: usize) -> Option<String> {
    let head = &line[..at];
    let name: String = head
        .chars()
        .rev()
        .take_while(|&c| is_word(c))
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    if name.is_empty() || name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        None
    } else {
        Some(name)
    }
}

/// `1.0`, `0.25`, `1e6`, `2.5e-3`, `0f64` — but not `0u64` or `10`.
fn starts_with_float_literal(expr: &str) -> bool {
    let mut chars = expr.chars().peekable();
    let mut digits = false;
    while chars.peek().is_some_and(char::is_ascii_digit) {
        digits = true;
        chars.next();
    }
    if !digits {
        return false;
    }
    match chars.peek() {
        Some('.') => {
            chars.next();
            // `0..n` is a range, `0.max(…)` a method call — not floats.
            chars
                .peek()
                .is_none_or(|c| *c != '.' && (!is_word(*c) || c.is_ascii_digit()))
        }
        Some('e') | Some('E') => {
            chars.next();
            if matches!(chars.peek(), Some('+') | Some('-')) {
                chars.next();
            }
            chars.peek().is_some_and(char::is_ascii_digit)
        }
        Some('f') => {
            let tail: String = chars.collect();
            tail.starts_with("f64") || tail.starts_with("f32")
        }
        _ => false,
    }
}

/// `sum::<f64>()`, `.sum()` beside a `: f64` annotation, or `+=` whose
/// left-hand side resolves to a known `f64` name (or whose right-hand
/// side is a bare float literal).
fn float_accumulation(line: &str, f64_names: &BTreeSet<String>) -> bool {
    if line.contains("sum::<f64>") {
        return true;
    }
    if line.contains(".sum()") && line.contains(": f64") {
        return true;
    }
    if let Some(at) = line.find("+=") {
        // LHS: strip a trailing index expression, take the last path
        // segment.
        let mut lhs = line[..at].trim_end();
        while lhs.ends_with(']') {
            let mut depth = 0usize;
            let mut cut = None;
            for (i, c) in lhs.char_indices().rev() {
                match c {
                    ']' => depth += 1,
                    '[' => {
                        depth -= 1;
                        if depth == 0 {
                            cut = Some(i);
                            break;
                        }
                    }
                    _ => {}
                }
            }
            match cut {
                Some(i) => lhs = lhs[..i].trim_end(),
                None => break,
            }
        }
        let segment: String = lhs
            .chars()
            .rev()
            .take_while(|&c| is_word(c))
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect();
        if !segment.is_empty() && f64_names.contains(&segment) {
            return true;
        }
        // RHS float literal (`x += 0.5`).
        let rhs = line[at + 2..].trim_start();
        if starts_with_float_literal(rhs) {
            return true;
        }
    }
    false
}

/// A cast to a narrower integer type (`as u32` & friends), or a
/// fixed-point accumulator (an `*_fp`-suffixed identifier) cast straight
/// to `f64` — exact in `i128`, silently lossy past 2^53 micro-units.
fn truncating_cast(line: &str) -> bool {
    const NARROW: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];
    let mut from = 0usize;
    while let Some(at) = line[from..].find(" as ") {
        let start = from + at;
        let ty: String = line[start + 4..]
            .trim_start()
            .chars()
            .take_while(|&c| is_word(c))
            .collect();
        if NARROW.contains(&ty.as_str()) {
            return true;
        }
        if ty == "f64" && ident_ending_at(line, start).is_some_and(|name| name.ends_with("_fp")) {
            return true;
        }
        from = start + 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc(p: &str) -> FileLoc {
        FileLoc::from_rel_path(p)
    }

    #[test]
    fn module_paths_are_derived_from_rel_paths() {
        assert_eq!(
            loc("crates/fleet/src/report.rs").module_path(),
            "lens-fleet::report"
        );
        assert_eq!(loc("crates/fleet/src/lib.rs").module_path(), "lens-fleet");
        assert_eq!(loc("crates/lens/src/lib.rs").module_path(), "lens");
        assert_eq!(
            loc("crates/bench/src/bin/bench_gate.rs").module_path(),
            "lens-bench::bin::bench_gate"
        );
    }

    #[test]
    fn scopes_respect_the_bench_exemption_and_engine_carve_out() {
        assert!(RuleId::WallClock.applies(&loc("crates/fleet/src/engine.rs")));
        assert!(!RuleId::WallClock.applies(&loc("crates/bench/src/bin/bench_gate.rs")));
        assert!(!RuleId::ThreadConfinement.applies(&loc("crates/fleet/src/engine.rs")));
        // The barrier replay pool is the second sanctioned concurrency
        // site — scoped threads joined in fixed region order.
        assert!(!RuleId::ThreadConfinement.applies(&loc("crates/fleet/src/replay.rs")));
        assert!(RuleId::ThreadConfinement.applies(&loc("crates/fleet/src/cloud.rs")));
        assert!(RuleId::ThreadConfinement.applies(&loc("crates/telemetry/src/replay.rs")));
        assert!(RuleId::AmbientEntropy.applies(&loc("crates/bench/src/lib.rs")));
        assert!(RuleId::ForbidUnsafe.applies(&loc("crates/num/src/lib.rs")));
        assert!(!RuleId::ForbidUnsafe.applies(&loc("crates/num/src/stats.rs")));
        assert!(RuleId::FloatAccumulation.applies(&loc("crates/core/src/report.rs")));
        assert!(!RuleId::FloatAccumulation.applies(&loc("crates/core/src/search.rs")));
        // Workload curves live in scenario.rs and gate offload draws, so
        // float accumulation is scoped there too — but only for fleet.
        assert!(RuleId::FloatAccumulation.applies(&loc("crates/fleet/src/scenario.rs")));
        assert!(!RuleId::FloatAccumulation.applies(&loc("crates/core/src/scenario.rs")));
        // Staged-pipeline transfer pricing shifts integer arrival stamps,
        // so its two homes are in scope — but not the rest of wireless.
        assert!(RuleId::FloatAccumulation.applies(&loc("crates/fleet/src/pipeline.rs")));
        // The tiers book offload latencies from the shard step, so the
        // booking code sits in scope beside the engine.
        assert!(RuleId::FloatAccumulation.applies(&loc("crates/fleet/src/replay.rs")));
        assert!(RuleId::FloatAccumulation.applies(&loc("crates/wireless/src/transfer.rs")));
        assert!(!RuleId::FloatAccumulation.applies(&loc("crates/wireless/src/link.rs")));
        // The digest-bearing telemetry crate is inside the numeric rules'
        // scope file-by-file, not just in its report module.
        assert!(RuleId::FloatAccumulation.applies(&loc("crates/telemetry/src/metrics.rs")));
        assert!(RuleId::TruncatingCast.applies(&loc("crates/telemetry/src/export.rs")));
        assert!(!RuleId::TruncatingCast.applies(&loc("crates/core/src/search.rs")));
        assert!(RuleId::WallClock.applies(&loc("crates/telemetry/src/recorder.rs")));
    }

    #[test]
    fn token_boundaries() {
        assert!(has_token("use std::collections::HashMap;", "HashMap"));
        assert!(!has_token("let pool_random = 3;", "random"));
        assert!(!has_token("struct MyHashMapLike;", "HashMap"));
        assert!(has_token("std::thread::scope(|s| {})", "std::thread"));
        assert!(!has_token("let xstd::thread = 1;", "std::thread"));
    }

    #[test]
    fn f64_symbol_table_and_accumulation() {
        let code: Vec<String> = [
            "let mut acc = 0.0;",
            "let mut seen = 0u64;",
            "pub busy_ms: f64,",
            "acc += w / total;",
            "seen += count;",
            "counts[idx] += 1;",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let names = collect_f64_names(&code);
        assert!(names.contains("acc"));
        assert!(names.contains("busy_ms"));
        assert!(!names.contains("seen"));
        assert!(float_accumulation(&code[3], &names));
        assert!(!float_accumulation(&code[4], &names));
        assert!(!float_accumulation(&code[5], &names));
        assert!(float_accumulation("x += 0.5;", &names));
        assert!(float_accumulation("let t: f64 = xs.iter().sum();", &names));
        assert!(float_accumulation(
            "let s = xs.iter().sum::<f64>();",
            &names
        ));
    }

    #[test]
    fn truncating_casts() {
        assert!(truncating_cast("let x = count as u32;"));
        assert!(truncating_cast("(dest as i16)"));
        assert!(!truncating_cast("let x = count as u64;"));
        assert!(!truncating_cast("let x = n as i128;"));
        assert!(!truncating_cast("let x = n as f64;"));
        assert!(!truncating_cast("fn widen(x: u32) -> u64 { x.into() }"));
        // Fixed-point sums cast straight to f64 lose low bits past 2^53
        // micro-units; the saturating report helper is the sanctioned
        // conversion.
        assert!(truncating_cast("self.sum_fp as f64 / SUM_FP_SCALE"));
        assert!(truncating_cast("(b.cost_fp as f64) / 1e6"));
        assert!(!truncating_cast("let w = weight as f64;"));
        assert!(!truncating_cast("fp_sum_to_f64(self.sum_fp)"));
    }

    #[test]
    fn forbid_unsafe_is_a_whole_file_check() {
        let with: Vec<String> = ["//! docs", "#![forbid(unsafe_code)]", "pub fn f() {}"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let without: Vec<String> = ["pub fn f() {}".to_string()].to_vec();
        let root = loc("crates/num/src/lib.rs");
        assert!(match_rules(&root, &with).is_empty());
        assert_eq!(
            match_rules(&root, &without),
            vec![(RuleId::ForbidUnsafe, 1)]
        );
    }
}
