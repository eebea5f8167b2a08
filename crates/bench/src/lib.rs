//! Shared experiment harness for the LENS reproduction.
//!
//! Every table and figure in the paper's evaluation has a binary in
//! `src/bin/` that regenerates it (see DESIGN.md §4 for the index). This
//! library holds the pieces they share: argument parsing, table printing,
//! results-directory handling, and the paired LENS/Traditional search that
//! Figs 6 and 7 both consume.
//!
//! Run with `--release`; a 300-iteration Bayesian search is deliberately
//! `O(n³)` per iteration (§IV.D) and debug builds are ~20× slower.

pub mod plot;
pub mod workloads;

use lens::prelude::*;
use std::path::{Path, PathBuf};

/// Command-line arguments shared by all experiment binaries.
///
/// Supported flags: `--seed N`, `--iters N`, `--init N`, `--quick`
/// (40 iterations / 10 initial samples), `--out DIR`, `--truth`
/// (bypass the regression predictors and use analytic ground truth).
#[derive(Debug, Clone, PartialEq)]
pub struct ExpArgs {
    /// RNG seed for the whole experiment.
    pub seed: u64,
    /// MOBO iterations (paper: 300).
    pub iters: usize,
    /// Random initial samples (`C_init`).
    pub init: usize,
    /// Output directory for CSV artifacts.
    pub out_dir: PathBuf,
    /// Use the analytic ground truth instead of trained predictors.
    pub use_truth: bool,
}

impl Default for ExpArgs {
    fn default() -> Self {
        ExpArgs {
            seed: 1,
            iters: 300,
            init: 20,
            out_dir: PathBuf::from("results"),
            use_truth: false,
        }
    }
}

impl ExpArgs {
    /// Parses `std::env::args`, exiting with a usage message on error.
    pub fn parse() -> Self {
        let mut out = ExpArgs::default();
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--seed" => out.seed = next_num(&mut args, "--seed"),
                "--iters" => out.iters = next_num(&mut args, "--iters") as usize,
                "--init" => out.init = next_num(&mut args, "--init") as usize,
                "--quick" => {
                    out.iters = 40;
                    out.init = 10;
                }
                "--truth" => out.use_truth = true,
                "--out" => {
                    out.out_dir = PathBuf::from(args.next().unwrap_or_else(|| usage("--out")))
                }
                "--help" | "-h" => {
                    eprintln!("flags: --seed N  --iters N  --init N  --quick  --truth  --out DIR");
                    std::process::exit(0);
                }
                other => usage(other),
            }
        }
        out
    }

    /// Path of a CSV artifact inside the output directory.
    pub fn artifact(&self, name: &str) -> PathBuf {
        self.out_dir.join(name)
    }
}

fn next_num(args: &mut impl Iterator<Item = String>, flag: &str) -> u64 {
    args.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(flag))
}

fn usage(flag: &str) -> ! {
    eprintln!("bad or missing value for {flag}; see --help");
    std::process::exit(2);
}

/// Prints a fixed-width table with a title.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|h| h.to_string()).collect();
    println!("{}", fmt_row(&header_cells));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Writes CSV next to the printed table.
///
/// # Panics
///
/// Panics on I/O errors — experiment binaries treat unwritable results
/// directories as fatal.
pub fn save_csv(path: &Path, header: &[&str], rows: &[Vec<String>]) {
    lens::core::write_csv(path, header, rows)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("[csv] {}", path.display());
}

/// The paired searches behind Figs 6 and 7.
pub struct PairedSearches {
    /// The instance both searches ran on; its evaluator re-scores
    /// candidates with partitioning.
    pub lens: Lens,
    /// LENS: partitioning within the optimization.
    pub lens_outcome: SearchOutcome,
    /// Traditional: All-Edge platform-aware NAS.
    pub traditional_outcome: SearchOutcome,
    /// The Traditional frontier re-evaluated with partitioning (post-hoc).
    pub partitioned_traditional: Vec<lens::core::CandidateEvaluation>,
}

/// Runs the LENS and Traditional searches with identical budgets/seeds and
/// partitions the Traditional frontier post-hoc (§V.A's setup).
///
/// # Errors
///
/// Propagates any search failure.
pub fn run_paired_searches(args: &ExpArgs) -> Result<PairedSearches, LensError> {
    let lens = Lens::builder()
        .technology(WirelessTechnology::Wifi)
        .expected_throughput(Mbps::new(3.0))
        .device(DeviceProfile::jetson_tx2_gpu())
        .use_predictor(!args.use_truth)
        .iterations(args.iters)
        .initial_samples(args.init)
        .seed(args.seed)
        .build()?;
    eprintln!(
        "[search] LENS: {} init + {} iterations (seed {})...",
        args.init, args.iters, args.seed
    );
    let lens_outcome = lens.search()?;
    eprintln!("[search] Traditional (All-Edge objectives)...");
    let traditional_outcome = lens.traditional_search()?;
    eprintln!("[search] partitioning the Traditional frontier post-hoc...");
    let partitioned_traditional = lens.partition_frontier(&traditional_outcome)?;
    Ok(PairedSearches {
        lens,
        lens_outcome,
        traditional_outcome,
        partitioned_traditional,
    })
}

/// Objective-plane indices used by the 2-D frontier analyses.
pub const ERROR_OBJECTIVE: usize = 0;
/// Latency index in the objective vector.
pub const LATENCY_OBJECTIVE: usize = 1;
/// Energy index in the objective vector.
pub const ENERGY_OBJECTIVE: usize = 2;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_paths_join() {
        let args = ExpArgs::default();
        assert_eq!(args.artifact("x.csv"), PathBuf::from("results/x.csv"));
    }

    #[test]
    fn paired_searches_tiny_run() {
        let args = ExpArgs {
            iters: 3,
            init: 4,
            use_truth: true,
            ..ExpArgs::default()
        };
        let paired = run_paired_searches(&args).unwrap();
        assert_eq!(paired.lens_outcome.explored().len(), 7);
        assert_eq!(paired.traditional_outcome.explored().len(), 7);
        assert_eq!(
            paired.partitioned_traditional.len(),
            paired.traditional_outcome.pareto_candidates().len()
        );
    }
}
