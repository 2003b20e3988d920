//! Q-value storage.

use rand::Rng as _;
use serde::{Deserialize, Serialize};
use wfcommon::rng::Rng;

/// A dense `states × actions` table of Q-values.
///
/// ReASSIgN's evaluation table "is represented by an array containing
/// all values of Q for each schedule action between the activation and
/// a VM" (paper §III-C) — i.e. rows are activations, columns are VMs.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DenseQTable {
    rows: usize,
    cols: usize,
    q: Vec<f64>,
}

impl DenseQTable {
    /// A table initialized to zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, q: vec![0.0; rows * cols] }
    }

    /// A table initialized uniformly at random in `[-scale, scale]`
    /// (paper: "Start Q(s, a) ∀ s, a … at random").
    pub fn random(rows: usize, cols: usize, scale: f64, rng: &mut Rng) -> Self {
        assert!(scale >= 0.0);
        let q = (0..rows * cols).map(|_| rng.gen_range(-scale..=scale)).collect();
        Self { rows, cols, q }
    }

    /// Number of state rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of action columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    fn idx(&self, s: usize, a: usize) -> usize {
        debug_assert!(s < self.rows && a < self.cols, "({s},{a}) out of table");
        s * self.cols + a
    }

    /// Q(s, a).
    #[inline]
    pub fn get(&self, s: usize, a: usize) -> f64 {
        self.q[self.idx(s, a)]
    }

    /// Overwrite Q(s, a).
    #[inline]
    pub fn set(&mut self, s: usize, a: usize, v: f64) {
        let i = self.idx(s, a);
        self.q[i] = v;
    }

    /// Add `dv` to Q(s, a).
    #[inline]
    pub fn add(&mut self, s: usize, a: usize, dv: f64) {
        let i = self.idx(s, a);
        self.q[i] += dv;
    }

    /// The whole row for state `s`.
    pub fn row(&self, s: usize) -> &[f64] {
        let start = self.idx(s, 0);
        &self.q[start..start + self.cols]
    }

    /// `max_a Q(s, a)` over an action subset (all actions when
    /// `allowed` is `None`). Returns 0 for an empty subset — the
    /// convention for "no action available", matching a terminal state.
    pub fn max_over(&self, s: usize, allowed: Option<&[usize]>) -> f64 {
        let row = self.row(s);
        match allowed {
            None => row.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            Some([]) => 0.0,
            Some(ids) => ids.iter().map(|&a| row[a]).fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// The argmax action for state `s` over an action subset, breaking
    /// ties by smallest index (deterministic). `None` for empty subsets.
    pub fn argmax_over(&self, s: usize, allowed: Option<&[usize]>) -> Option<usize> {
        let row = self.row(s);
        let mut best: Option<(usize, f64)> = None;
        let consider = |a: usize, best: &mut Option<(usize, f64)>| {
            let v = row[a];
            match best {
                Some((_, bv)) if v <= *bv => {}
                _ => *best = Some((a, v)),
            }
        };
        match allowed {
            None => (0..self.cols).for_each(|a| consider(a, &mut best)),
            Some(ids) => ids.iter().for_each(|&a| consider(a, &mut best)),
        }
        best.map(|(a, _)| a)
    }

    /// `max_a Q(s, a)` over every action of row `s`. With an `overlay`
    /// (a flat row-major buffer of this table's shape) the values read
    /// are `Q(s, a) + overlay[s · cols + a]`. NaN cells are skipped; a
    /// row of nothing else reads `-inf`.
    pub fn row_max(&self, s: usize, overlay: Option<&[f64]>) -> f64 {
        match overlay {
            None => self.max_over(s, None),
            Some(overlay) => self
                .row(s)
                .iter()
                .zip(&overlay[s * self.cols..(s + 1) * self.cols])
                .map(|(v, d)| v + d)
                .fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// `max Q(s, a)` pooled over the action sets of several state
    /// `rows` ([`Self::row_max`] of each) — the TD bootstrap when the
    /// successor state offers every action of every pending row.
    /// Returns 0 for an empty row set (terminal-state convention,
    /// matching [`Self::max_over`]).
    ///
    /// This full scan is the *definition* of the bootstrap. The
    /// learner answers it from a [`crate::PendingMax`] kept up to date
    /// across an episode; the scan is what that index is tested
    /// against.
    pub fn max_over_rows(&self, rows: &[usize], overlay: Option<&[f64]>) -> f64 {
        let best = rows.iter().map(|&s| self.row_max(s, overlay)).fold(f64::NEG_INFINITY, f64::max);
        if best == f64::NEG_INFINITY {
            0.0
        } else {
            best
        }
    }

    /// Largest absolute Q value (for convergence diagnostics).
    pub fn max_abs(&self) -> f64 {
        self.q.iter().fold(0.0f64, |m, v| m.max(v.abs()))
    }

    /// The flat row-major value buffer (`Q(s, a)` at `s * cols + a`).
    pub fn as_flat(&self) -> &[f64] {
        &self.q
    }

    /// Element-wise dense add: `Q[i] += delta[i]` over the flat
    /// row-major buffer. This is the parallel learner's merge
    /// primitive — each rollout accumulates its TD increments into a
    /// flat buffer of this shape and the coordinator folds the buffers
    /// in episode order. A plain indexed loop over two contiguous
    /// slices, so the compiler is free to vectorize it.
    pub fn add_flat(&mut self, delta: &[f64]) {
        assert_eq!(
            delta.len(),
            self.q.len(),
            "delta buffer has {} cells, table has {}",
            delta.len(),
            self.q.len()
        );
        for (q, d) in self.q.iter_mut().zip(delta) {
            *q += *d;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfcommon::SeedDerivation;

    #[test]
    fn zeros_and_set_get() {
        let mut t = DenseQTable::zeros(3, 4);
        assert_eq!(t.get(2, 3), 0.0);
        t.set(2, 3, 1.5);
        assert_eq!(t.get(2, 3), 1.5);
        t.add(2, 3, 0.5);
        assert_eq!(t.get(2, 3), 2.0);
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 4);
    }

    #[test]
    fn random_init_within_scale() {
        let mut rng = SeedDerivation::new(1).rng_for("q", 0);
        let t = DenseQTable::random(10, 10, 0.01, &mut rng);
        for s in 0..10 {
            for a in 0..10 {
                assert!(t.get(s, a).abs() <= 0.01);
            }
        }
        assert!(t.max_abs() > 0.0, "random init should not be all zero");
    }

    #[test]
    fn argmax_respects_subset_and_ties() {
        let mut t = DenseQTable::zeros(1, 4);
        t.set(0, 1, 5.0);
        t.set(0, 3, 5.0);
        assert_eq!(t.argmax_over(0, None), Some(1), "smallest index wins ties");
        assert_eq!(t.argmax_over(0, Some(&[3, 2])), Some(3));
        assert_eq!(t.argmax_over(0, Some(&[])), None);
    }

    #[test]
    fn max_over_subset() {
        let mut t = DenseQTable::zeros(1, 3);
        t.set(0, 0, -1.0);
        t.set(0, 1, 2.0);
        t.set(0, 2, 7.0);
        assert_eq!(t.max_over(0, None), 7.0);
        assert_eq!(t.max_over(0, Some(&[0, 1])), 2.0);
        assert_eq!(t.max_over(0, Some(&[])), 0.0);
    }

    #[test]
    fn max_over_rows_pools_action_sets() {
        let mut t = DenseQTable::zeros(3, 2);
        t.set(0, 1, 4.0);
        t.set(2, 0, 9.0);
        assert_eq!(t.max_over_rows(&[0, 1], None), 4.0);
        assert_eq!(t.max_over_rows(&[0, 1, 2], None), 9.0);
        assert_eq!(t.max_over_rows(&[], None), 0.0, "terminal convention");
        // All-negative rows still return the true max, not zero.
        let mut neg = DenseQTable::zeros(1, 2);
        neg.set(0, 0, -3.0);
        neg.set(0, 1, -1.0);
        assert_eq!(neg.max_over_rows(&[0], None), -1.0);
        // The overlay is added cell by cell before the max is taken.
        assert_eq!(t.max_over_rows(&[0, 1], Some(&[0.0, 0.0, 6.0, 0.0, 0.0, 0.0])), 6.0);
    }

    #[test]
    fn add_flat_matches_per_cell_adds() {
        let mut rng = SeedDerivation::new(3).rng_for("q", 0);
        let mut a = DenseQTable::random(5, 4, 1.0, &mut rng);
        let mut b = a.clone();
        let delta: Vec<f64> = (0..20).map(|i| (i as f64 - 10.0) * 0.125).collect();
        a.add_flat(&delta);
        for s in 0..5 {
            for c in 0..4 {
                b.add(s, c, delta[s * 4 + c]);
            }
        }
        assert_eq!(a, b, "dense add must equal per-cell adds bitwise");
        assert_eq!(a.as_flat().len(), 20);
    }

    #[test]
    #[should_panic(expected = "delta buffer")]
    fn add_flat_rejects_shape_mismatch() {
        let mut t = DenseQTable::zeros(2, 2);
        t.add_flat(&[0.0; 3]);
    }

    #[test]
    fn row_is_contiguous() {
        let mut t = DenseQTable::zeros(2, 3);
        t.set(1, 0, 1.0);
        t.set(1, 2, 3.0);
        assert_eq!(t.row(1), &[1.0, 0.0, 3.0]);
        assert_eq!(t.row(0), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn serde_round_trip() {
        let mut rng = SeedDerivation::new(2).rng_for("q", 0);
        let t = DenseQTable::random(4, 5, 1.0, &mut rng);
        let json = serde_json::to_string(&t).unwrap();
        let back: DenseQTable = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
