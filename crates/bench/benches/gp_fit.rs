//! Criterion bench: Gaussian-process fit and predict — the O(n³) per-
//! iteration cost of the Bayesian search (§IV.D), measured over the data
//! sizes a 300-iteration run passes through — and one refit period of the
//! optimizer's suggest loop, which grows its factors instead of refitting.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lens::gp::kernel::Matern52;
use lens::gp::GpRegressor;
use lens_bench::workloads::{gp_training_data as training_data, SuggestWorkload};
use std::hint::black_box;

fn bench_gp(c: &mut Criterion) {
    let mut group = c.benchmark_group("gp");
    group.sample_size(20);
    for n in [50usize, 100, 200, 300] {
        let (xs, ys) = training_data(n);
        group.bench_with_input(BenchmarkId::new("fit", n), &n, |b, _| {
            b.iter(|| {
                GpRegressor::fit(
                    black_box(xs.clone()),
                    black_box(ys.clone()),
                    Matern52::new(0.8, 1.0),
                    1e-4,
                )
                .expect("fit succeeds")
            })
        });
    }

    // Posterior prediction over a 192-candidate pool at n=200.
    let (xs, ys) = training_data(200);
    let gp = GpRegressor::fit(xs, ys, Matern52::new(0.8, 1.0), 1e-4).expect("fit succeeds");
    let (pool, _) = training_data(192);
    group.bench_function("predict_pool_192_at_n200", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for cand in &pool {
                let (m, v) = gp.predict(black_box(cand));
                acc += m + v;
            }
            acc
        })
    });

    // One refit period of the search loop at n = 200: 25 suggest + tell
    // steps over 192-candidate pools with 3 objectives.
    let workload = SuggestWorkload::new();
    group.bench_function("suggest", |b| b.iter(|| workload.run()));
    group.finish();
}

criterion_group!(benches, bench_gp);
criterion_main!(benches);
