//! The multi-objective Bayesian optimization driver.
//!
//! One GP surrogate per objective; each `suggest` draws a random weight
//! vector on the simplex and scalarizes the per-objective acquisition
//! scores (Dragonfly's MOBO strategy — random scalarizations provably cover
//! the Pareto front as iterations accumulate). The optimizer is *ask/tell*:
//! the caller supplies the candidate pool (Algorithm 2 proposes random
//! samples plus mutations of the incumbent Pareto set), receives the index
//! of the most promising candidate, evaluates the true objectives, and
//! tells the result back.

use crate::acquisition::{Acquisition, AcquisitionKind};
use crate::gp::{
    by_dimension, select, squared_distances, Factor, Selection, Standardized, Weights,
};
use crate::kernel::Matern52;
use crate::GpError;
use lens_num::dist::simplex_weights;
use lens_pareto::ParetoFront;
use rand::RngCore;
use std::num::NonZeroUsize;
use std::sync::Mutex;

/// Candidates whose posteriors are computed together: the width of the
/// block forward solve over the pool.
const BLOCK: usize = 8;

/// Configuration of the MOBO driver.
#[derive(Debug, Clone, PartialEq)]
pub struct MoboConfig {
    /// Acquisition rule (default: LCB, as in Dragonfly).
    pub acquisition: AcquisitionKind,
    /// LCB exploration weight.
    pub beta: f64,
    /// ML-II lengthscale grid (unit-cube inputs).
    pub lengthscales: Vec<f64>,
    /// ML-II observation-noise grid (standardized-target units).
    pub noises: Vec<f64>,
    /// Re-run the ML-II grid search every this many new observations;
    /// between refits the hyperparameters stay and each GP's Cholesky
    /// factor grows by one row per told observation.
    pub refit_every: usize,
}

impl Default for MoboConfig {
    fn default() -> Self {
        MoboConfig {
            acquisition: AcquisitionKind::default(),
            beta: 2.0,
            lengthscales: vec![0.1, 0.2, 0.4, 0.8, 1.6, 3.2],
            noises: vec![1e-4, 1e-2, 1e-1],
            refit_every: 25,
        }
    }
}

/// Ask/tell multi-objective Bayesian optimizer (minimization).
///
/// The optimizer owns its surrogates' state: the Cholesky factors the last
/// ML-II refit chose, one per distinct (lengthscale, noise), which grow by
/// one row per observation until the next refit. Every pick equals the one
/// a from-scratch refit of each GP would give.
///
/// # Examples
///
/// ```
/// use lens_gp::{MoboConfig, MultiObjectiveOptimizer};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), lens_gp::GpError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut opt = MultiObjectiveOptimizer::new(2, MoboConfig::default());
/// // Two cheap toy objectives over [0,1]: f1 = x, f2 = 1-x.
/// for i in 0..5 {
///     let x = i as f64 / 4.0;
///     opt.tell(vec![x], vec![x, 1.0 - x])?;
/// }
/// let candidates: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 / 9.0]).collect();
/// let pick = opt.suggest(&candidates, &mut rng)?;
/// assert!(pick < candidates.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MultiObjectiveOptimizer {
    config: MoboConfig,
    num_objectives: usize,
    xs: Vec<Vec<f64>>,
    ys: Vec<Vec<f64>>,
    /// The distinct factors of the last ML-II refit, each covering a prefix
    /// of `xs` and grown to all of it on the next `suggest`.
    factors: Vec<Factor>,
    /// Index into `factors` of each objective's GP.
    objective_factor: Vec<usize>,
    tells_since_refit: usize,
    /// Threads the pool posterior spreads its blocks over: the host's
    /// available parallelism, resolved once.
    workers: usize,
}

impl MultiObjectiveOptimizer {
    /// Creates an optimizer for `num_objectives` minimized objectives.
    ///
    /// # Panics
    ///
    /// Panics if `num_objectives` is zero or the config grids are empty.
    pub fn new(num_objectives: usize, config: MoboConfig) -> Self {
        assert!(num_objectives > 0, "need at least one objective");
        assert!(
            !config.lengthscales.is_empty() && !config.noises.is_empty(),
            "hyperparameter grids must be non-empty"
        );
        MultiObjectiveOptimizer {
            config,
            num_objectives,
            xs: Vec::new(),
            ys: Vec::new(),
            factors: Vec::new(),
            objective_factor: Vec::new(),
            tells_since_refit: usize::MAX / 2, // force ML-II on first suggest
            // lens-analyzer: allow(thread-confinement): sizes the pool posterior's workers only; every block is computed by the same sequential code and gathered by block index, so the picks do not depend on it (posteriors_are_bit_identical_across_worker_counts)
            workers: std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
        }
    }

    /// Number of observations told so far.
    pub fn num_observations(&self) -> usize {
        self.xs.len()
    }

    /// The observations as `(inputs, objective_vectors)`.
    pub fn observations(&self) -> (&[Vec<f64>], &[Vec<f64>]) {
        (&self.xs, &self.ys)
    }

    /// Records an evaluated point.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::InvalidTrainingData`] for an empty input,
    /// dimension mismatches or non-finite values.
    pub fn tell(&mut self, x: Vec<f64>, y: Vec<f64>) -> Result<(), GpError> {
        if y.len() != self.num_objectives {
            return Err(GpError::InvalidTrainingData(format!(
                "expected {} objectives, got {}",
                self.num_objectives,
                y.len()
            )));
        }
        if x.is_empty() {
            return Err(GpError::InvalidTrainingData("empty input".into()));
        }
        if let Some(first) = self.xs.first() {
            if first.len() != x.len() {
                return Err(GpError::InvalidTrainingData(format!(
                    "input dimension {} != {}",
                    x.len(),
                    first.len()
                )));
            }
        }
        if x.iter().chain(y.iter()).any(|v| !v.is_finite()) {
            return Err(GpError::InvalidTrainingData(
                "non-finite value in observation".into(),
            ));
        }
        self.xs.push(x);
        self.ys.push(y);
        self.tells_since_refit += 1;
        Ok(())
    }

    /// The Pareto front of the observations, as indices into the telling
    /// order plus their objective vectors.
    pub fn pareto_front(&self) -> ParetoFront<usize> {
        self.ys.iter().cloned().enumerate().collect()
    }

    /// Brings every objective's GP up to date with the observations and
    /// returns their weights: an ML-II refit when due, otherwise each
    /// factor grows by the rows of the points told since.
    fn fit_gps(&mut self) -> Result<Vec<Weights>, GpError> {
        let targets = (0..self.num_objectives)
            .map(|k| Standardized::new(&self.ys.iter().map(|y| y[k]).collect::<Vec<_>>()))
            .collect::<Result<Vec<_>, _>>()?;
        if self.tells_since_refit >= self.config.refit_every {
            let n = self.xs.len();
            let Selection { factors, fits } = select(
                &self.xs,
                &targets,
                &Matern52::new(1.0, 1.0),
                &self.config.lengthscales,
                &self.config.noises,
                n + self.config.refit_every.min(n),
            )?;
            self.factors = factors;
            self.objective_factor = fits.iter().map(|fit| fit.factor).collect();
            self.tells_since_refit = 0;
            return Ok(fits.into_iter().map(|fit| fit.weights).collect());
        }
        for &f in &self.objective_factor {
            self.factors[f].extend(&self.xs)?;
        }
        Ok(targets
            .iter()
            .zip(&self.objective_factor)
            .map(|(target, &f)| target.solve(&self.factors[f]))
            .collect())
    }

    /// Posterior (mean, variance) of every objective's GP at every
    /// candidate, objective-major.
    ///
    /// The pool goes through in blocks of [`BLOCK`] candidates. Each
    /// block's squared distances are shared by all objectives, its kernel
    /// block by the factors on one lengthscale, and its forward solve by
    /// the objectives on one factor. Up to `workers` threads, the caller's
    /// among them, take blocks from a shared queue one at a time, so a
    /// stalled core delays only the block it holds. Each block's result
    /// goes to its own slot, and the slots are gathered in block order, so
    /// the output does not depend on which thread computed which block.
    fn posteriors(&self, candidates: &[Vec<f64>], weights: &[Weights]) -> Vec<Vec<(f64, f64)>> {
        // Every factor derives from one base kernel and differs only in
        // lengthscale and noise, so the factors on one lengthscale have the
        // same kernel block. Sorted by lengthscale, they share it in runs.
        let mut on_factors: Vec<OnFactor> = self
            .factors
            .iter()
            .enumerate()
            .map(|(f, factor)| OnFactor {
                factor,
                gps: (0..self.num_objectives)
                    .filter(|&k| self.objective_factor[k] == f)
                    .map(|k| (k, &weights[k]))
                    .collect(),
            })
            .collect();
        on_factors.sort_by(|a, b| a.factor.lengthscale().total_cmp(&b.factor.lengthscale()));
        let objectives = self.num_objectives;
        let blocks = candidates.len().div_ceil(BLOCK);
        let mut slots = vec![[(0.0, 0.0); BLOCK]; blocks * objectives];
        let mut scratch: Vec<Scratch> = (0..self.workers.min(blocks))
            .map(|_| Scratch::new(self.xs.len(), candidates[0].len()))
            .collect();
        let queue = Mutex::new(candidates.chunks(BLOCK).zip(slots.chunks_mut(objectives)));
        let work = |scratch: &mut Scratch| {
            while let Some((chunk, slot)) = claim(&queue) {
                self.block_posterior(&on_factors, chunk, scratch, slot);
            }
        };
        let (mine, theirs) = scratch
            .split_first_mut()
            .expect("a validated pool has at least one block");
        let work = &work;
        // lens-analyzer: allow(thread-confinement): workers read only the optimizer's factors and weights and write only the slots of the blocks they claim, which are gathered in block order; pinned by posteriors_are_bit_identical_across_worker_counts
        std::thread::scope(|s| {
            for scratch in theirs {
                // A worker that cannot start leaves its blocks to the others.
                // lens-analyzer: allow(thread-confinement): a scoped worker of the pool posterior, joined before the gather; any worker count gives the same output (posteriors_are_bit_identical_across_worker_counts)
                let _ = std::thread::Builder::new().spawn_scoped(s, move || work(scratch));
            }
            work(mine);
        });
        let mut posteriors = vec![Vec::with_capacity(candidates.len()); objectives];
        for (chunk, slot) in candidates.chunks(BLOCK).zip(slots.chunks(objectives)) {
            for (posterior, column) in posteriors.iter_mut().zip(slot) {
                posterior.extend_from_slice(&column[..chunk.len()]);
            }
        }
        posteriors
    }

    /// Every objective's posterior at one block of at most [`BLOCK`]
    /// candidates: objective `k`'s goes to `slot[k]`.
    fn block_posterior(
        &self,
        on_factors: &[OnFactor],
        chunk: &[Vec<f64>],
        scratch: &mut Scratch,
        slot: &mut [[(f64, f64); BLOCK]],
    ) {
        // A short last block repeats its first candidate.
        let queries = std::array::from_fn(|c| chunk.get(c).unwrap_or(&chunk[0]).as_slice());
        by_dimension(queries, &mut scratch.queries);
        squared_distances(&self.xs, &scratch.queries, &mut scratch.d2);
        let same_kernel =
            |a: &OnFactor, b: &OnFactor| a.factor.lengthscale() == b.factor.lengthscale();
        for on_kernel in on_factors.chunk_by(same_kernel) {
            on_kernel[0]
                .factor
                .kernel_block(&scratch.d2, &mut scratch.kernel);
            for on_factor in on_kernel {
                on_factor
                    .factor
                    .posterior(&scratch.kernel, &on_factor.gps, &mut scratch.v, slot);
            }
        }
    }

    /// Chooses the most promising candidate: builds the randomly scalarized
    /// acquisition `ϑ = Σ w_k · α_k` and returns the index of its argmax
    /// over the pool (Algorithm 2, lines 8–11).
    ///
    /// Per-objective acquisition scores are z-normalized across the pool
    /// before weighting so objectives with different units mix sanely.
    /// The RNG draws the weights first, then (Thompson sampling only) one
    /// normal per objective and candidate, objective-major.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::InvalidTrainingData`] if nothing has been told,
    /// `candidates` is empty, or a candidate has the wrong dimension or a
    /// non-finite value; propagates GP fit failures.
    pub fn suggest(
        &mut self,
        candidates: &[Vec<f64>],
        rng: &mut dyn RngCore,
    ) -> Result<usize, GpError> {
        let Some(dim) = self.xs.first().map(Vec::len) else {
            return Err(GpError::InvalidTrainingData(
                "tell at least one observation before suggest".into(),
            ));
        };
        if candidates.is_empty() {
            return Err(GpError::InvalidTrainingData(
                "candidate pool is empty".into(),
            ));
        }
        if let Some(bad) = candidates
            .iter()
            .position(|c| c.len() != dim || c.iter().any(|v| !v.is_finite()))
        {
            return Err(GpError::InvalidTrainingData(format!(
                "candidate {bad} must hold {dim} finite values"
            )));
        }
        let gp_weights = self.fit_gps()?;
        let weights = simplex_weights(rng, self.num_objectives);
        let posteriors = self.posteriors(candidates, &gp_weights);

        let mut combined = vec![0.0; candidates.len()];
        for (k, posterior) in posteriors.iter().enumerate() {
            let incumbent = self.ys.iter().map(|y| y[k]).fold(f64::INFINITY, f64::min);
            let acq = Acquisition::new(self.config.acquisition, self.config.beta, incumbent);
            let scores: Vec<f64> = posterior
                .iter()
                .map(|&(mean, variance)| acq.score(mean, variance, rng))
                .collect();
            let normalized = z_normalize(&scores);
            for (ci, s) in normalized.iter().enumerate() {
                combined[ci] += weights[k] * s;
            }
        }
        Ok(argmax(&combined))
    }
}

/// One factor of the pool posterior, with the objectives whose GPs sit on
/// it: `(k, weights)` for objective `k`.
struct OnFactor<'a> {
    factor: &'a Factor,
    gps: Vec<(usize, &'a Weights)>,
}

/// One worker's buffers for the pool posterior. The caller sizes them for
/// the training set before any worker starts, so a worker allocates
/// nothing.
struct Scratch {
    queries: Vec<[f64; BLOCK]>,
    d2: Vec<[f64; BLOCK]>,
    kernel: Vec<[f64; BLOCK]>,
    v: Vec<[f64; BLOCK]>,
}

impl Scratch {
    fn new(rows: usize, dim: usize) -> Self {
        Scratch {
            queries: Vec::with_capacity(dim),
            d2: Vec::with_capacity(rows),
            kernel: Vec::with_capacity(rows),
            v: Vec::with_capacity(rows),
        }
    }
}

/// The next item of a queue shared by the pool's workers; `None` once it
/// is empty. The lock is released before the item is worked on.
fn claim<I: Iterator>(queue: &Mutex<I>) -> Option<I::Item> {
    queue
        .lock()
        .expect("no worker panics while holding the queue")
        .next()
}

/// Z-normalizes scores; degenerate (constant) score vectors become zeros.
fn z_normalize(scores: &[f64]) -> Vec<f64> {
    let n = scores.len() as f64;
    let mean = scores.iter().sum::<f64>() / n;
    let var = scores.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
    let std = var.sqrt();
    if std < 1e-12 {
        return vec![0.0; scores.len()];
    }
    scores.iter().map(|s| (s - mean) / std).collect()
}

/// Index of the maximum (first wins ties).
fn argmax(values: &[f64]) -> usize {
    let mut best = 0;
    for (i, v) in values.iter().enumerate() {
        if *v > values[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gp::GpRegressor;
    use lens_pareto::hypervolume;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// ZDT1-style bi-objective problem on [0,1]^3 (minimize both).
    fn zdt1(x: &[f64]) -> Vec<f64> {
        let f1 = x[0];
        let g = 1.0 + 9.0 * (x[1] + x[2]) / 2.0;
        let f2 = g * (1.0 - (f1 / g).sqrt());
        vec![f1, f2]
    }

    fn random_point(rng: &mut StdRng, d: usize) -> Vec<f64> {
        (0..d).map(|_| rng.gen::<f64>()).collect()
    }

    fn run_mobo(iters: usize, seed: u64) -> ParetoFront<usize> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut opt = MultiObjectiveOptimizer::new(2, MoboConfig::default());
        for _ in 0..8 {
            let x = random_point(&mut rng, 3);
            let y = zdt1(&x);
            opt.tell(x, y).unwrap();
        }
        for _ in 0..iters {
            let candidates: Vec<Vec<f64>> = (0..64).map(|_| random_point(&mut rng, 3)).collect();
            let pick = opt.suggest(&candidates, &mut rng).unwrap();
            let x = candidates[pick].clone();
            let y = zdt1(&x);
            opt.tell(x, y).unwrap();
        }
        opt.pareto_front()
    }

    fn run_random(iters: usize, seed: u64) -> ParetoFront<usize> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut front = ParetoFront::new();
        for i in 0..iters + 8 {
            let x = random_point(&mut rng, 3);
            front.insert(i, zdt1(&x));
        }
        front
    }

    #[test]
    fn mobo_beats_random_search_on_zdt1() {
        let reference = [1.5, 11.0];
        let mut mobo_wins = 0;
        for seed in [1u64, 2, 3] {
            let mobo_front = run_mobo(40, seed);
            let random_front = run_random(40, seed);
            let hv_mobo = hypervolume(&mobo_front.objectives(), &reference);
            let hv_rand = hypervolume(&random_front.objectives(), &reference);
            if hv_mobo > hv_rand {
                mobo_wins += 1;
            }
        }
        assert!(mobo_wins >= 2, "MOBO won only {mobo_wins}/3 seeds");
    }

    #[test]
    fn suggest_is_deterministic_per_seed() {
        let build = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut opt = MultiObjectiveOptimizer::new(2, MoboConfig::default());
            for _ in 0..6 {
                let x = random_point(&mut rng, 3);
                let y = zdt1(&x);
                opt.tell(x, y).unwrap();
            }
            let candidates: Vec<Vec<f64>> = (0..32).map(|_| random_point(&mut rng, 3)).collect();
            opt.suggest(&candidates, &mut rng).unwrap()
        };
        assert_eq!(build(7), build(7));
    }

    #[test]
    fn tell_validates() {
        let mut opt = MultiObjectiveOptimizer::new(2, MoboConfig::default());
        assert!(opt.tell(vec![0.5], vec![1.0]).is_err()); // wrong #objectives
        assert!(opt.tell(vec![0.5], vec![1.0, f64::NAN]).is_err());
        opt.tell(vec![0.5], vec![1.0, 2.0]).unwrap();
        assert!(opt.tell(vec![0.5, 0.1], vec![1.0, 2.0]).is_err()); // dim change
        assert_eq!(opt.num_observations(), 1);
    }

    /// Across refits and growth, every objective's posterior over the pool
    /// is bit for bit what a from-scratch `GpRegressor` under the same
    /// hyperparameters predicts one point at a time.
    #[test]
    fn grown_factor_posteriors_are_bit_identical_to_from_scratch_fits() {
        let mut rng = StdRng::seed_from_u64(5);
        let config = MoboConfig {
            refit_every: 9,
            ..MoboConfig::default()
        };
        let mut opt = MultiObjectiveOptimizer::new(3, config);
        // Negated targets have the same likelihood everywhere, so objectives
        // 0 and 2 always share a factor and objective 1 has its own.
        let objectives = |x: &[f64]| {
            let sum: f64 = x.iter().sum();
            vec![sum, x[0] * (x[1] - 0.5).powi(2), -sum]
        };
        for _ in 0..4 {
            let x = random_point(&mut rng, 4);
            opt.tell(x.clone(), objectives(&x)).unwrap();
        }
        let bits = |(mean, variance): (f64, f64)| (mean.to_bits(), variance.to_bits());
        for _ in 0..30 {
            let pool: Vec<Vec<f64>> = (0..13).map(|_| random_point(&mut rng, 4)).collect();
            let weights = opt.fit_gps().unwrap();
            let posteriors = opt.posteriors(&pool, &weights);
            assert_eq!(opt.factors.len(), 2);
            for (k, posterior) in posteriors.iter().enumerate() {
                let (lengthscale, noise) = opt.factors[opt.objective_factor[k]].hyperparameters();
                let targets = opt.ys.iter().map(|y| y[k]).collect();
                let gp = GpRegressor::fit(
                    opt.xs.clone(),
                    targets,
                    Matern52::new(lengthscale, 1.0),
                    noise,
                )
                .unwrap();
                for (c, candidate) in pool.iter().enumerate() {
                    assert_eq!(bits(posterior[c]), bits(gp.predict(candidate)));
                }
            }
            let x = pool[rng.gen_range(0..pool.len())].clone();
            opt.tell(x.clone(), objectives(&x)).unwrap();
        }
    }

    /// An optimizer told `n` points of three objectives in 4 dimensions,
    /// with hand-built factors: objectives 0 and 1 on one lengthscale with
    /// different noises, so they share a kernel block but not a solve, and
    /// objective 2 on another lengthscale, whose factor sits between theirs.
    fn hand_fitted(n: usize) -> (MultiObjectiveOptimizer, Vec<Weights>) {
        let mut rng = StdRng::seed_from_u64(3);
        let mut opt = MultiObjectiveOptimizer::new(3, MoboConfig::default());
        for _ in 0..n {
            let x = random_point(&mut rng, 4);
            let y = vec![x[0] + x[1], (x[2] - 0.5).powi(2), x[3].sin() * x[0]];
            opt.tell(x, y).unwrap();
        }
        opt.factors = [(0.4, 1e-4), (1.6, 1e-2), (0.4, 1e-1)]
            .iter()
            .map(|&(ls, noise)| {
                Factor::build(Box::new(Matern52::new(ls, 1.0)), noise, &opt.xs, n).unwrap()
            })
            .collect();
        opt.objective_factor = vec![0, 2, 1];
        let weights = (0..3)
            .map(|k| {
                let targets: Vec<f64> = opt.ys.iter().map(|y| y[k]).collect();
                let factor = &opt.factors[opt.objective_factor[k]];
                Standardized::new(&targets).unwrap().solve(factor)
            })
            .collect();
        (opt, weights)
    }

    fn posterior_bits(posterior: &[(f64, f64)]) -> Vec<(u64, u64)> {
        posterior
            .iter()
            .map(|(mean, variance)| (mean.to_bits(), variance.to_bits()))
            .collect()
    }

    /// Factors on one lengthscale share each block's kernel block, and
    /// every objective's posterior is still bit for bit a from-scratch
    /// `GpRegressor`'s one-point prediction.
    #[test]
    fn posteriors_on_factors_sharing_a_lengthscale_match_predict() {
        let (opt, weights) = hand_fitted(25);
        let mut rng = StdRng::seed_from_u64(4);
        let pool: Vec<Vec<f64>> = (0..13).map(|_| random_point(&mut rng, 4)).collect();
        let posteriors = opt.posteriors(&pool, &weights);
        for (k, posterior) in posteriors.iter().enumerate() {
            let (lengthscale, noise) = opt.factors[opt.objective_factor[k]].hyperparameters();
            let targets = opt.ys.iter().map(|y| y[k]).collect();
            let gp = GpRegressor::fit(
                opt.xs.clone(),
                targets,
                Matern52::new(lengthscale, 1.0),
                noise,
            )
            .unwrap();
            let predicted: Vec<(f64, f64)> = pool.iter().map(|c| gp.predict(c)).collect();
            assert_eq!(posterior_bits(posterior), posterior_bits(&predicted));
        }
    }

    /// The pool posterior is the same, bit for bit, on 1, 2 and 3 workers
    /// and on more workers than blocks: for a one-candidate pool, one full
    /// block, a full block and one candidate, and 24 blocks.
    #[test]
    fn posteriors_are_bit_identical_across_worker_counts() {
        let (mut opt, weights) = hand_fitted(40);
        let mut rng = StdRng::seed_from_u64(6);
        let bits = |posteriors: Vec<Vec<(f64, f64)>>| -> Vec<Vec<(u64, u64)>> {
            posteriors.iter().map(|p| posterior_bits(p)).collect()
        };
        for size in [1, 8, 9, 192] {
            let pool: Vec<Vec<f64>> = (0..size).map(|_| random_point(&mut rng, 4)).collect();
            opt.workers = 1;
            let sequential = bits(opt.posteriors(&pool, &weights));
            assert_eq!(sequential.len(), 3);
            assert!(sequential.iter().all(|p| p.len() == size));
            for workers in [2, 3, size.div_ceil(BLOCK) + 1] {
                opt.workers = workers;
                let parallel = bits(opt.posteriors(&pool, &weights));
                assert_eq!(parallel, sequential, "{workers} workers, pool of {size}");
            }
        }
    }

    #[test]
    fn tell_rejects_an_empty_input() {
        let mut opt = MultiObjectiveOptimizer::new(1, MoboConfig::default());
        assert!(matches!(
            opt.tell(vec![], vec![1.0]),
            Err(GpError::InvalidTrainingData(_))
        ));
        assert_eq!(opt.num_observations(), 0);
    }

    fn told_optimizer() -> MultiObjectiveOptimizer {
        let mut opt = MultiObjectiveOptimizer::new(2, MoboConfig::default());
        for i in 0..4 {
            let x = i as f64 / 3.0;
            opt.tell(vec![x, 1.0 - x], vec![x, x * x]).unwrap();
        }
        opt
    }

    #[test]
    fn suggest_rejects_a_non_finite_candidate() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut opt = told_optimizer();
        for bad in [f64::NAN, f64::INFINITY] {
            let pool = vec![vec![0.2, 0.3], vec![0.4, bad], vec![0.9, 0.1]];
            assert!(matches!(
                opt.suggest(&pool, &mut rng),
                Err(GpError::InvalidTrainingData(_))
            ));
        }
    }

    #[test]
    fn suggest_rejects_a_wrong_dimension_candidate() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut opt = told_optimizer();
        for bad in [vec![0.4], vec![0.4, 0.5, 0.6]] {
            let pool = vec![vec![0.2, 0.3], bad];
            assert!(matches!(
                opt.suggest(&pool, &mut rng),
                Err(GpError::InvalidTrainingData(_))
            ));
        }
        assert!(opt.suggest(&[vec![0.2, 0.3]], &mut rng).is_ok());
    }

    #[test]
    fn suggest_requires_data_and_candidates() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut opt = MultiObjectiveOptimizer::new(1, MoboConfig::default());
        assert!(opt.suggest(&[vec![0.0]], &mut rng).is_err());
        opt.tell(vec![0.1], vec![1.0]).unwrap();
        assert!(opt.suggest(&[], &mut rng).is_err());
        assert_eq!(opt.suggest(&[vec![0.2]], &mut rng).unwrap(), 0);
    }

    #[test]
    fn pareto_front_tracks_observations() {
        let mut opt = MultiObjectiveOptimizer::new(2, MoboConfig::default());
        opt.tell(vec![0.0], vec![1.0, 4.0]).unwrap();
        opt.tell(vec![0.5], vec![2.0, 2.0]).unwrap();
        opt.tell(vec![1.0], vec![4.0, 1.0]).unwrap();
        opt.tell(vec![0.7], vec![5.0, 5.0]).unwrap(); // dominated
        let front = opt.pareto_front();
        assert_eq!(front.len(), 3);
        assert!(front.is_antichain());
    }

    #[test]
    fn z_normalize_handles_constant() {
        assert_eq!(z_normalize(&[3.0, 3.0, 3.0]), vec![0.0, 0.0, 0.0]);
        let z = z_normalize(&[1.0, 2.0, 3.0]);
        assert!((z.iter().sum::<f64>()).abs() < 1e-12);
    }

    #[test]
    fn argmax_first_wins_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[5.0]), 0);
    }
}
