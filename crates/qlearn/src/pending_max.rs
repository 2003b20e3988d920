//! The TD bootstrap `max Q` over the rows still pending, kept up to
//! date instead of rescanned.
//!
//! ReASSIgN's TD step bootstraps from the best value over *every
//! activation still pending* ([`DenseQTable::max_over_rows`] is the
//! definition). Between two completions only one row's values change
//! and at most one row leaves the set, so the maximum is kept as a
//! max-tournament: an implicit binary tree of `f64` whose leaves are
//! the per-row maxima ([`DenseQTable::row_max`]) of the pending rows
//! and `-inf` for every other row, each inner node the [`f64::max`] of
//! its two children. Reading the bootstrap is reading the root,
//! retiring a row or refreshing its leaf is one leaf-to-root walk:
//! O(cols + log rows) per completion where the scan is O(rows · cols).
//!
//! # Agreement with the scan
//!
//! `f64::max` is commutative and associative on everything but the sign
//! of a zero, and it skips NaN the same way in any order, so the root
//! equals the scan's left fold **bit for bit, except that a tie between
//! `0.0` and `-0.0` may come out with either sign** (`f64::max` leaves
//! it unspecified, and the tree folds in a different order than the
//! scan). The TD step adds the bootstrap, scaled by a non-negative γ,
//! to the reward `r_t`; `r_t + 0.0` and `r_t + -0.0` are the same bits
//! unless `r_t` is itself a signed zero, so no Q bit depends on it
//! otherwise. The empty set (root `-inf`) reads `0.0`, the scan's
//! terminal-state convention.
//!
//! [`DenseQTable::max_over_rows`]: crate::DenseQTable::max_over_rows
//! [`DenseQTable::row_max`]: crate::DenseQTable::row_max

/// Max-tournament over per-row maxima (see the module docs). Sized once
/// for a row count; no operation allocates afterwards.
#[derive(Clone, Debug)]
pub struct PendingMax {
    rows: usize,
    /// Leaf count: `rows` rounded up to a power of two (at least 1).
    leaves: usize,
    /// `2 · leaves` nodes, root at 1 (0 unused), children of `i` at
    /// `2i` and `2i + 1`, row `s` at `leaves + s`. Padding leaves stay
    /// `-inf`.
    tree: Vec<f64>,
}

impl PendingMax {
    /// A tournament for `rows` rows, none of them pending.
    pub fn new(rows: usize) -> Self {
        let leaves = rows.next_power_of_two();
        Self { rows, leaves, tree: vec![f64::NEG_INFINITY; 2 * leaves] }
    }

    /// Set every leaf from `leaf(row)` — the row's maximum while it is
    /// pending, `-inf` once it is not — and replay the whole
    /// tournament: O(rows) on top of the calls.
    pub fn rebuild(&mut self, mut leaf: impl FnMut(usize) -> f64) {
        for row in 0..self.rows {
            self.tree[self.leaves + row] = leaf(row);
        }
        for i in (1..self.leaves).rev() {
            self.tree[i] = self.tree[2 * i].max(self.tree[2 * i + 1]);
        }
    }

    /// `row`'s maximum is now `row_max`; replay its matches up to the
    /// root.
    pub fn set(&mut self, row: usize, row_max: f64) {
        assert!(row < self.rows, "row {row} out of a {}-row tournament", self.rows);
        let mut i = self.leaves + row;
        self.tree[i] = row_max;
        while i > 1 {
            i /= 2;
            self.tree[i] = self.tree[2 * i].max(self.tree[2 * i + 1]);
        }
    }

    /// `row` is no longer pending.
    pub fn retire(&mut self, row: usize) {
        self.set(row, f64::NEG_INFINITY);
    }

    /// The best value over the pending rows; 0 when none is pending
    /// (or none holds anything but NaN and `-inf`).
    pub fn max(&self) -> f64 {
        let best = self.tree[1];
        if best == f64::NEG_INFINITY {
            0.0
        } else {
            best
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DenseQTable;
    use rand::Rng as _;
    use wfcommon::SeedDerivation;

    #[test]
    fn empty_and_single_row_tournaments() {
        assert_eq!(PendingMax::new(0).max(), 0.0, "no rows: terminal convention");
        let mut one = PendingMax::new(1);
        assert_eq!(one.max(), 0.0, "nothing pending yet");
        one.set(0, -2.5);
        assert_eq!(one.max(), -2.5, "all-negative values are not clamped to zero");
        one.retire(0);
        assert_eq!(one.max(), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of a 3-row tournament")]
    fn padding_leaves_are_not_addressable() {
        PendingMax::new(3).set(3, 1.0);
    }

    /// `==` on the values, plus the same bits unless both are zeros.
    fn same(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a == 0.0 && b == 0.0)
    }

    fn view_of(on: bool, overlay: &[f64]) -> Option<&[f64]> {
        on.then_some(overlay)
    }

    /// Seeded random op sequences — write a cell, retire a row, query —
    /// against the full scan over the live row set, after every op.
    /// Rows × cols are picked so the tree has padding leaves (5, 37),
    /// none (8) and a single column.
    #[test]
    fn root_equals_scan_after_every_op() {
        const SPECIAL: [f64; 8] =
            [0.0, -0.0, f64::NEG_INFINITY, f64::NAN, 1.0, -1.0, 0.5, f64::INFINITY];
        for (case, &(rows, cols)) in [(5, 3), (8, 1), (37, 15), (1, 4)].iter().enumerate() {
            for overlay_on in [false, true] {
                for init in 0..4 {
                    let mut rng =
                        SeedDerivation::new(7).rng_for("pending-max", (case * 8 + init) as u64);
                    let mut table = match init {
                        // Zero-initialised: every row ties at 0.0.
                        0 => DenseQTable::zeros(rows, cols),
                        // The learner's default init.
                        1 => DenseQTable::random(rows, cols, 0.01, &mut rng),
                        // All-negative rows: the empty-set 0.0 must not win.
                        2 => {
                            let mut t = DenseQTable::zeros(rows, cols);
                            (0..rows * cols)
                                .for_each(|i| t.set(i / cols, i % cols, -rng.gen_range(0.5..9.0)));
                            t
                        }
                        // Ties, signed zeros, NaN, and one row of -inf.
                        _ => {
                            let mut t = DenseQTable::zeros(rows, cols);
                            (0..rows * cols).for_each(|i| {
                                t.set(i / cols, i % cols, SPECIAL[rng.gen_range(0..SPECIAL.len())])
                            });
                            (0..cols).for_each(|a| t.set(0, a, f64::NEG_INFINITY));
                            t
                        }
                    };
                    // The delta-rollout view: zeros at the start, then
                    // written instead of the table.
                    let mut overlay = vec![0.0f64; rows * cols];
                    let mut live: Vec<usize> = (0..rows).collect();
                    let mut index = PendingMax::new(rows);
                    index.rebuild(|s| table.row_max(s, view_of(overlay_on, &overlay)));
                    for op in 0..400 {
                        match rng.gen_range(0..4u32) {
                            // Retire a live row.
                            0 if !live.is_empty() => {
                                let s = live.swap_remove(rng.gen_range(0..live.len()));
                                index.retire(s);
                            }
                            // Write a cell of any row (retired rows keep
                            // taking TD writes from late replica losers),
                            // then refresh its leaf if it is live.
                            _ => {
                                let (s, a) = (rng.gen_range(0..rows), rng.gen_range(0..cols));
                                let v = if rng.gen_range(0..10u32) < 3 {
                                    SPECIAL[rng.gen_range(0..SPECIAL.len())]
                                } else {
                                    rng.gen_range(-3.0..3.0)
                                };
                                if overlay_on {
                                    overlay[s * cols + a] = v;
                                } else {
                                    table.set(s, a, v);
                                }
                                if live.contains(&s) {
                                    index.set(s, table.row_max(s, view_of(overlay_on, &overlay)));
                                }
                            }
                        }
                        let scan = table.max_over_rows(&live, view_of(overlay_on, &overlay));
                        assert!(
                            same(index.max(), scan),
                            "case {case} init {init} overlay {overlay_on} op {op}: \
                             tournament {} vs scan {scan} over {live:?}",
                            index.max()
                        );
                    }
                    // A rebuild over the surviving rows lands on the same root.
                    let before = index.max();
                    index.rebuild(|s| {
                        if live.contains(&s) {
                            table.row_max(s, view_of(overlay_on, &overlay))
                        } else {
                            f64::NEG_INFINITY
                        }
                    });
                    assert!(same(index.max(), before));
                }
            }
        }
    }
}
