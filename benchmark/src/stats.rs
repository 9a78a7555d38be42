//! Sample statistics: the percentile rule every timing is reported with, and
//! the attempt/failure accounting.

/// Percentiles a tail figure is chosen from, in per-mille, highest first.
pub const TAIL_LADDER_PERMILLE: [u32; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest rank of the `permille` percentile among `n` samples (1-based).
fn rank(n: usize, permille: u32) -> usize {
    (n * permille as usize).div_ceil(1000).clamp(1, n.max(1))
}

/// Samples strictly beyond the `permille` percentile of `n` samples.
pub fn beyond(n: usize, permille: u32) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, permille)
}

/// The highest percentile of [`TAIL_LADDER_PERMILLE`] with at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even the median lacks them.
pub fn tail_permille(n: usize) -> Option<u32> {
    TAIL_LADDER_PERMILLE.into_iter().find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Nearest-rank percentile of ascending samples (`NaN` when empty).
pub fn percentile(sorted: &[f64], permille: u32) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), permille) - 1]
}

/// Median and tail of one timing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples, failures included.
    pub samples: usize,
    /// The median.
    pub p50: f64,
    /// The reported tail percentile (per-mille), if the sample supports one.
    pub tail_permille: Option<u32>,
    /// The value at the tail percentile (`NaN` without one).
    pub tail: f64,
}

impl Summary {
    /// Summarises samples. A failed operation is recorded as `+inf`, so it
    /// sorts last and misses every latency limit instead of being dropped.
    pub fn of(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        let tail_permille = tail_permille(samples.len());
        Self {
            samples: samples.len(),
            p50: percentile(&samples, 500),
            tail_permille,
            tail: tail_permille.map_or(f64::NAN, |p| percentile(&samples, p)),
        }
    }

    /// Label of the tail percentile, e.g. `p99` or `p99.9`.
    pub fn tail_label(&self) -> String {
        match self.tail_permille {
            Some(p) if p % 10 == 0 => format!("p{}", p / 10),
            Some(p) => format!("p{}.{}", p / 10, p % 10),
            None => "p-".into(),
        }
    }
}

/// Median of unsorted values (nearest rank; `NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 500)
}

/// Operations attempted and how they failed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that ended in a typed error.
    pub errors: u64,
    /// Operations that returned a wrong answer.
    pub wrong: u64,
}

impl Tally {
    /// Records one operation that returned the right answer.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Records one operation that ended in a typed error.
    pub fn error(&mut self) {
        self.attempted += 1;
        self.errors += 1;
    }

    /// Records one operation that returned a wrong answer.
    pub fn wrong(&mut self) {
        self.attempted += 1;
        self.wrong += 1;
    }

    /// Typed errors plus wrong answers.
    pub fn failed(&self) -> u64 {
        self.errors + self.wrong
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    /// Adds another tally's counts to this one.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.wrong += other.wrong;
    }
}
