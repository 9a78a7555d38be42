//! Seeded random sampling helpers.
//!
//! Every stochastic component of the workspace draws from a [`StdRng`] seeded
//! with an explicit `u64` so that all experiments are exactly reproducible.
//! Gaussian samples use the Box–Muller transform so we do not need the
//! `rand_distr` crate.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::kernels::{effective_workers, par_for_row_chunks, Parallelism};
use crate::matrix::Matrix;

/// Minimum samples a pool worker must transform before [`randn`] shards its
/// Box–Muller pass.
const MIN_NORMALS_PER_WORKER: usize = 1 << 14;

/// Creates a deterministic RNG from a seed.
pub fn rng_from_seed(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Draws one standard-normal sample via the Box–Muller transform.
pub fn sample_standard_normal(rng: &mut StdRng) -> f64 {
    let u1 = draw_u1(rng);
    let u2: f64 = rng.random();
    box_muller(u1, u2)
}

/// The first Box–Muller uniform, nudged off zero to avoid `ln(0)`.
fn draw_u1(rng: &mut StdRng) -> f64 {
    rng.random::<f64>().max(f64::MIN_POSITIVE)
}

/// The Box–Muller transform of one uniform pair.
#[inline]
fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Draws one `N(mean, std^2)` sample.
pub fn sample_normal(rng: &mut StdRng, mean: f64, std: f64) -> f64 {
    mean + std * sample_standard_normal(rng)
}

/// Draws one `U(lo, hi)` sample.
pub fn sample_uniform(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.random::<f64>()
}

/// Draws a Bernoulli sample with success probability `p` (clamped to `[0,1]`).
pub fn sample_bernoulli(rng: &mut StdRng, p: f64) -> bool {
    rng.random::<f64>() < p.clamp(0.0, 1.0)
}

/// A matrix with i.i.d. `N(0,1)` entries, filled row-major with the same
/// draws as repeated [`sample_standard_normal`] calls.
///
/// The uniforms are drawn serially (the stream order is the contract); the
/// Box–Muller transform is a pure per-element map, so it runs in row chunks
/// on the worker pool under the global [`Parallelism`] — the bits do not
/// depend on the setting.
pub fn randn(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    randn_with(rng, rows, cols, Parallelism::global())
}

fn randn_with(rng: &mut StdRng, rows: usize, cols: usize, par: Parallelism) -> Matrix {
    let mut out = Matrix::zeros(rows, cols);
    let mut u2 = vec![0.0; rows * cols];
    for (a, b) in out.as_mut_slice().iter_mut().zip(u2.iter_mut()) {
        *a = draw_u1(rng);
        *b = rng.random();
    }
    let workers = effective_workers(par, rows * cols, MIN_NORMALS_PER_WORKER);
    par_for_row_chunks(out.as_mut_slice(), rows, cols, workers, |lo, hi, chunk| {
        for (x, &v) in chunk.iter_mut().zip(&u2[lo * cols..hi * cols]) {
            *x = box_muller(*x, v);
        }
    });
    out
}

/// A matrix with i.i.d. `N(mean, std^2)` entries.
pub fn randn_scaled(rng: &mut StdRng, rows: usize, cols: usize, mean: f64, std: f64) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| sample_normal(rng, mean, std))
}

/// A matrix with i.i.d. `U(lo, hi)` entries.
pub fn rand_uniform(rng: &mut StdRng, rows: usize, cols: usize, lo: f64, hi: f64) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| sample_uniform(rng, lo, hi))
}

/// A random permutation of `0..n` (Fisher–Yates).
pub fn permutation(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let mut idx = Vec::with_capacity(n);
    permutation_into(rng, &mut idx, n);
    idx
}

/// Writes a random permutation of `0..n` into `out`, reusing its capacity —
/// the allocation-free variant of [`permutation`]. Consumes exactly the same
/// RNG draws, so the resulting permutation is identical.
pub fn permutation_into(rng: &mut StdRng, out: &mut Vec<usize>, n: usize) {
    out.clear();
    out.extend(0..n);
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        out.swap(i, j);
    }
}

/// Samples `k` indices from `0..n` without replacement.
///
/// # Panics
/// Panics if `k > n`.
#[track_caller]
pub fn sample_without_replacement(rng: &mut StdRng, n: usize, k: usize) -> Vec<usize> {
    assert!(k <= n, "cannot sample {k} items from {n} without replacement");
    let mut idx = permutation(rng, n);
    idx.truncate(k);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = rng_from_seed(42);
        let mut b = rng_from_seed(42);
        for _ in 0..100 {
            assert_eq!(sample_standard_normal(&mut a), sample_standard_normal(&mut b));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = rng_from_seed(1);
        let mut b = rng_from_seed(2);
        let xs: Vec<f64> = (0..8).map(|_| sample_standard_normal(&mut a)).collect();
        let ys: Vec<f64> = (0..8).map(|_| sample_standard_normal(&mut b)).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = rng_from_seed(7);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean too far from 0: {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance too far from 1: {var}");
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut rng = rng_from_seed(3);
        for _ in 0..1000 {
            let u = sample_uniform(&mut rng, -2.0, 5.0);
            assert!((-2.0..5.0).contains(&u));
        }
    }

    #[test]
    fn bernoulli_rate_tracks_p() {
        let mut rng = rng_from_seed(11);
        let hits = (0..10_000).filter(|_| sample_bernoulli(&mut rng, 0.3)).count();
        let rate = hits as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn permutation_is_a_bijection() {
        let mut rng = rng_from_seed(5);
        let p = permutation(&mut rng, 100);
        let mut seen = [false; 100];
        for &i in &p {
            assert!(!seen[i]);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn sampling_without_replacement_is_unique() {
        let mut rng = rng_from_seed(9);
        let s = sample_without_replacement(&mut rng, 50, 20);
        assert_eq!(s.len(), 20);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20);
    }

    #[test]
    fn randn_matches_serial_draws_for_every_parallelism() {
        let (rows, cols) = (700, 50);
        let mut rng = rng_from_seed(23);
        let expected: Vec<u64> =
            (0..rows * cols).map(|_| sample_standard_normal(&mut rng).to_bits()).collect();
        for par in [Parallelism::Serial, Parallelism::Threads(2), Parallelism::Threads(4)] {
            let m = randn_with(&mut rng_from_seed(23), rows, cols, par);
            let got: Vec<u64> = m.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, expected, "{par:?}");
        }
    }

    #[test]
    fn randn_shape() {
        let mut rng = rng_from_seed(1);
        assert_eq!(randn(&mut rng, 3, 4).shape(), (3, 4));
        assert_eq!(rand_uniform(&mut rng, 2, 2, 0.0, 1.0).shape(), (2, 2));
    }
}
