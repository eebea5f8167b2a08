//! Pins whole `MultiObjectiveOptimizer::suggest` sequences against a
//! from-scratch reference.
//!
//! The optimizer keeps its GP factors between calls: it grows them by one
//! row per observation, scores the ML-II grid of all objectives on one
//! factorization per grid point, and predicts the candidate pool in
//! blocks. The reference below does none of that. It refits every GP from
//! scratch on every call through the public API — `fit_auto` on the refit
//! schedule, `fit` with the cached hyperparameters otherwise, one `predict`
//! per candidate — and scalarizes with `simplex_weights` and
//! `Acquisition::score`. The two must pick the same candidate on every
//! call, for every acquisition rule and refit period, while consuming the
//! same random numbers.

use lens::gp::{
    Acquisition, AcquisitionKind, GpRegressor, Matern52, MoboConfig, MultiObjectiveOptimizer,
};
use lens::num::dist::simplex_weights;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const DIM: usize = 23;
const OBJECTIVES: usize = 3;
const INITIAL: usize = 5;
const SUGGESTS: usize = 100;
/// Not a multiple of the optimizer's block width, so the short last block
/// is exercised too.
const POOL: usize = 11;

fn objectives(x: &[f64]) -> Vec<f64> {
    let spread: f64 = x.iter().map(|v| (v - 0.3) * (v - 0.3)).sum();
    let wave: f64 = x
        .iter()
        .enumerate()
        .map(|(t, v)| (3.0 * v + t as f64).sin())
        .sum();
    let slope: f64 = x
        .iter()
        .enumerate()
        .map(|(t, v)| v * t as f64 / DIM as f64)
        .sum();
    vec![spread, wave, 4.0 - slope]
}

fn config(acquisition: AcquisitionKind, refit_every: usize) -> MoboConfig {
    MoboConfig {
        acquisition,
        // A smaller grid than the default keeps the from-scratch reference
        // affordable in debug builds.
        lengthscales: vec![0.4, 3.2],
        noises: vec![1e-4, 1e-1],
        refit_every,
        ..MoboConfig::default()
    }
}

/// `suggest` as a from-scratch refit of every GP on every call.
struct Reference {
    config: MoboConfig,
    xs: Vec<Vec<f64>>,
    ys: Vec<Vec<f64>>,
    hypers: Vec<(f64, f64)>,
    tells_since_refit: usize,
    /// Suggest calls on which two objectives' GPs had the same
    /// hyperparameters, and calls on which all three differed.
    shared: usize,
    distinct: usize,
}

impl Reference {
    fn new(config: MoboConfig) -> Self {
        let first = (config.lengthscales[0], config.noises[0]);
        Reference {
            config,
            xs: Vec::new(),
            ys: Vec::new(),
            hypers: vec![first; OBJECTIVES],
            tells_since_refit: usize::MAX / 2,
            shared: 0,
            distinct: 0,
        }
    }

    fn tell(&mut self, x: Vec<f64>, y: Vec<f64>) {
        self.xs.push(x);
        self.ys.push(y);
        self.tells_since_refit += 1;
    }

    fn suggest(&mut self, candidates: &[Vec<f64>], rng: &mut dyn RngCore) -> usize {
        let refit = self.tells_since_refit >= self.config.refit_every;
        let mut gps = Vec::with_capacity(OBJECTIVES);
        for k in 0..OBJECTIVES {
            let targets: Vec<f64> = self.ys.iter().map(|y| y[k]).collect();
            let gp = if refit {
                let gp = GpRegressor::fit_auto(
                    self.xs.clone(),
                    targets,
                    Matern52::new(1.0, 1.0),
                    &self.config.lengthscales,
                    &self.config.noises,
                )
                .expect("ML-II fit");
                self.hypers[k] = (gp.lengthscale(), gp.noise());
                gp
            } else {
                let (lengthscale, noise) = self.hypers[k];
                GpRegressor::fit(
                    self.xs.clone(),
                    targets,
                    Matern52::new(lengthscale, 1.0),
                    noise,
                )
                .expect("cached-hyperparameter fit")
            };
            gps.push(gp);
        }
        if refit {
            self.tells_since_refit = 0;
        }
        let h = &self.hypers;
        if h[0] == h[1] || h[0] == h[2] || h[1] == h[2] {
            self.shared += 1;
        } else {
            self.distinct += 1;
        }

        let weights = simplex_weights(rng, OBJECTIVES);
        let mut combined = vec![0.0; candidates.len()];
        for (k, gp) in gps.iter().enumerate() {
            let incumbent = self.ys.iter().map(|y| y[k]).fold(f64::INFINITY, f64::min);
            let acq = Acquisition::new(self.config.acquisition, self.config.beta, incumbent);
            let scores: Vec<f64> = candidates
                .iter()
                .map(|c| {
                    let (mean, variance) = gp.predict(c);
                    acq.score(mean, variance, rng)
                })
                .collect();
            for (ci, s) in z_normalize(&scores).iter().enumerate() {
                combined[ci] += weights[k] * s;
            }
        }
        argmax(&combined)
    }
}

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

fn argmax(values: &[f64]) -> usize {
    let mut best = 0;
    for (i, v) in values.iter().enumerate() {
        if *v > values[best] {
            best = i;
        }
    }
    best
}

fn point(rng: &mut StdRng) -> Vec<f64> {
    (0..DIM).map(|_| rng.gen::<f64>()).collect()
}

/// One optimizer and its reference on one seeded problem. The two consume
/// separate RNGs seeded alike, so equal picks also show equal draws.
struct Run {
    optimizer: MultiObjectiveOptimizer,
    reference: Reference,
    pools: StdRng,
    optimizer_rng: StdRng,
    reference_rng: StdRng,
}

impl Run {
    fn new(config: MoboConfig, seed: u64) -> Self {
        let mut run = Run {
            optimizer: MultiObjectiveOptimizer::new(OBJECTIVES, config.clone()),
            reference: Reference::new(config),
            pools: StdRng::seed_from_u64(seed),
            optimizer_rng: StdRng::seed_from_u64(seed ^ 0x5eed),
            reference_rng: StdRng::seed_from_u64(seed ^ 0x5eed),
        };
        for _ in 0..INITIAL {
            let x = point(&mut run.pools);
            run.tell(x);
        }
        run
    }

    fn tell(&mut self, x: Vec<f64>) {
        let y = objectives(&x);
        self.optimizer.tell(x.clone(), y.clone()).expect("tell");
        self.reference.tell(x, y);
    }

    /// One suggest on both sides; returns the pick after checking that
    /// they agree.
    fn step(&mut self, label: &str, call: usize) -> usize {
        let pool: Vec<Vec<f64>> = (0..POOL).map(|_| point(&mut self.pools)).collect();
        let pick = self
            .optimizer
            .suggest(&pool, &mut self.optimizer_rng)
            .expect("suggest");
        let expected = self.reference.suggest(&pool, &mut self.reference_rng);
        assert_eq!(pick, expected, "{label}: suggest {call} picked differently");
        self.tell(pool[pick].clone());
        pick
    }
}

#[test]
fn grown_factors_and_batched_pools_pick_what_from_scratch_refits_pick() {
    let kinds = [
        AcquisitionKind::LowerConfidenceBound,
        AcquisitionKind::ExpectedImprovement,
        AcquisitionKind::ThompsonSampling,
    ];
    let mut runs: Vec<(String, Run)> = kinds
        .iter()
        .flat_map(|&kind| [1, 7, 25].map(|refit_every| (kind, refit_every)))
        .enumerate()
        .map(|(i, (kind, refit_every))| {
            let label = format!("{kind:?}, refit_every {refit_every}");
            (label, Run::new(config(kind, refit_every), 11 + i as u64))
        })
        .collect();
    // Every optimizer takes one step in turn, so each runs between steps of
    // all the others: none may see another's state.
    for call in 0..SUGGESTS {
        for (label, run) in &mut runs {
            run.step(label, call);
        }
    }
    let (mut shared, mut distinct) = (0, 0);
    for (label, run) in &mut runs {
        assert_eq!(run.optimizer.num_observations(), INITIAL + SUGGESTS);
        assert_eq!(
            run.optimizer_rng.next_u64(),
            run.reference_rng.next_u64(),
            "{label}: both sides consumed the same random numbers"
        );
        shared += run.reference.shared;
        distinct += run.reference.distinct;
    }
    // The sequences cover objectives sharing a factor and objectives on
    // factors of their own.
    assert!(
        shared > 0 && distinct > 0,
        "shared {shared}, distinct {distinct}"
    );
}
