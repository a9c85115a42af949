//! Benchmark inputs: the row-varying general source and a view that
//! registers an already materialized matrix.

use bt_blocktri::gen::row_seed;
use bt_blocktri::{BlockRow, BlockRowSource, BlockTridiag, BlockVec};
use bt_dense::random::{rng, uniform};
use bt_dense::Mat;

/// Clustered block spectra with a fresh seeded perturbation on every
/// row: `B_i = d I + eps U`, `A_i = -I + eps U`, `C_i = -I + eps U`, each
/// `U` drawn from the row's own seed.
///
/// Rows differ, so the structure detector never routes these systems
/// onto the Toeplitz path. The clustering keeps exact-scan ARD accurate
/// at `N = 1024`, where random dominant rows break it down.
pub struct RowVarying {
    n: usize,
    m: usize,
    seed: u64,
}

impl RowVarying {
    /// Diagonal weight; the off-diagonal blocks are near `-I`.
    const D: f64 = 8.0;

    pub fn new(n: usize, m: usize, seed: u64) -> Self {
        Self { n, m, seed }
    }

    fn eps(&self) -> f64 {
        1.0e-3 / self.m as f64
    }
}

impl BlockRowSource for RowVarying {
    fn n(&self) -> usize {
        self.n
    }

    fn m(&self) -> usize {
        self.m
    }

    fn row(&self, i: usize) -> BlockRow {
        assert!(i < self.n);
        let m = self.m;
        let mut rg = rng(row_seed(self.seed, i as u64));
        let mut block = |diag: f64| {
            let mut b = uniform(m, m, &mut rg);
            b.scale(self.eps());
            for k in 0..m {
                b.set(k, k, b.get(k, k) + diag);
            }
            b
        };
        let b = block(Self::D);
        let a = block(-1.0);
        let c = block(-1.0);
        BlockRow::new(
            if i == 0 { Mat::zeros(m, m) } else { a },
            b,
            if i + 1 == self.n { Mat::zeros(m, m) } else { c },
        )
    }
}

/// A materialized matrix seen as a row source, so registration and
/// session set-up time only the solver, not input generation.
pub struct Rows<'a>(pub &'a BlockTridiag);

impl BlockRowSource for Rows<'_> {
    fn n(&self) -> usize {
        self.0.n()
    }

    fn m(&self) -> usize {
        self.0.m()
    }

    fn row(&self, i: usize) -> BlockRow {
        self.0.row(i).clone()
    }
}

/// Order-sensitive hash of a solution's bits: equal hashes across calls
/// on the same right-hand side mean bitwise-equal solutions.
pub fn bits_hash(x: &BlockVec) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in &x.blocks {
        for v in b.as_slice() {
            h = (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
            h ^= h >> 29;
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_blocktri::gen::materialize;

    #[test]
    fn row_varying_is_deterministic_and_not_toeplitz() {
        let src = RowVarying::new(16, 4, 3);
        assert_eq!(materialize(&src), materialize(&RowVarying::new(16, 4, 3)));
        assert_ne!(src.row(3), src.row(4));
        assert!(!bt_ard::detect_toeplitz(&src));
        let t = materialize(&src);
        assert_eq!(Rows(&t).row(5), src.row(5));
    }
}
