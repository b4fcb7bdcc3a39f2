//! Seeded input generation. Every workload's inputs are a pure function of
//! its seed; the program under test only ever sees the generated sequences.
//!
//! Lengths are drawn by *stratified* sampling of a log-normal: draw `i` of
//! `n` takes its quantile from the middle half of stratum `i`. The length
//! profile then barely changes from seed to seed (the sequences do), so
//! run-to-run spread measures the host, not which lengths a seed drew.

use race_logic::store::xxh64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl_bio::mutate::{mutate, MutationConfig};
use rl_bio::{Dna, Seq};

pub type DnaSeq = Seq<Dna>;

/// The seeded generator for one workload (the name keeps streams of
/// different workloads apart for the same seed).
pub fn rng_for(workload: &str, seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ xxh64(workload.as_bytes(), 0x5EED))
}

/// Inverse of the standard normal CDF (Acklam's rational approximation,
/// relative error below 1.2e-9), for `0 < p < 1`.
pub fn inv_norm_cdf(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    let tail = |q: f64| {
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    const P_LOW: f64 = 0.024_25;
    if p < P_LOW {
        tail((-2.0 * p.ln()).sqrt())
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -tail((-2.0 * (1.0 - p).ln()).sqrt())
    }
}

/// The quantile of stratum `i` of `n`, jittered within its middle half.
pub fn stratum(rng: &mut StdRng, i: usize, n: usize) -> f64 {
    (i as f64 + 0.25 + 0.5 * rng.unit_f64()) / n as f64
}

/// `n` log-normal lengths (median `median`, log-sd `sigma`), stratified and
/// clamped to `[lo, hi]`, in shuffled order.
pub fn lognormal_lengths(
    rng: &mut StdRng,
    n: usize,
    median: f64,
    sigma: f64,
    (lo, hi): (usize, usize),
) -> Vec<usize> {
    let mut lens: Vec<usize> = (0..n)
        .map(|i| {
            let z = inv_norm_cdf(stratum(rng, i, n));
            ((median * (sigma * z).exp()).round() as usize).clamp(lo, hi)
        })
        .collect();
    shuffle(rng, &mut lens);
    lens
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

/// A copy of `seq` with `rate` of its positions edited, split evenly
/// between substitutions, insertions and deletions.
pub fn balanced_edit(rng: &mut StdRng, seq: &DnaSeq, rate: f64) -> DnaSeq {
    mutate(seq, &MutationConfig::balanced(rate / 3.0), rng)
}

/// Order-sensitive digest of a list of sequences (lengths and symbols).
pub struct Digest(Vec<u8>);

impl Digest {
    pub fn new() -> Self {
        Digest(Vec::new())
    }

    pub fn add(&mut self, seqs: &[DnaSeq]) {
        for s in seqs {
            self.0.extend_from_slice(&(s.len() as u64).to_le_bytes());
            self.0.extend(s.codes());
        }
    }

    pub fn add_u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        xxh64(&self.0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inverse_normal_matches_known_quantiles() {
        assert!(inv_norm_cdf(0.5).abs() < 1e-9);
        assert!((inv_norm_cdf(0.975) - 1.959_963_985).abs() < 1e-7);
        assert!((inv_norm_cdf(0.01) + 2.326_347_874).abs() < 1e-7);
    }

    #[test]
    fn stratified_lengths_keep_their_median_across_seeds() {
        for seed in 0..5 {
            let mut rng = rng_for("t", seed);
            let mut lens = lognormal_lengths(&mut rng, 1001, 200.0, 0.5, (1, 100_000));
            lens.sort_unstable();
            assert!(
                (195..=205).contains(&lens[500]),
                "seed {seed}: {}",
                lens[500]
            );
        }
    }
}
