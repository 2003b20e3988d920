//! Execution/queue-time history — the observables behind the ReASSIgN
//! reward function (paper §III-B).
//!
//! For each VM `j` the paper defines the average performance index
//!
//! ```text
//! P̄i_j = t̄e · μ + (1-μ) · t̄f        (Eq. 4, over activations run on vm_j)
//! P̄w   = t̄e · μ + (1-μ) · t̄f        (Eq. 5, over all activations)
//! ```
//!
//! and rewards a schedule on `vm_j` unless `P̄i_j > P̄w + stdv` where
//! `stdv` is the standard deviation of the per-VM indices (Eq. 6).
//! Lower indices are better (less time spent per activation).

use serde::{Deserialize, Serialize};
use wfcommon::ids::Idx;
use wfcommon::{RunningStats, VmId};

/// Per-VM and global execution/queue-time statistics.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ExecHistory {
    per_vm_exec: Vec<RunningStats>,
    per_vm_queue: Vec<RunningStats>,
    global_exec: RunningStats,
    global_queue: RunningStats,
}

impl ExecHistory {
    /// Empty history for `vm_count` VMs.
    pub fn new(vm_count: usize) -> Self {
        Self {
            per_vm_exec: vec![RunningStats::new(); vm_count],
            per_vm_queue: vec![RunningStats::new(); vm_count],
            global_exec: RunningStats::new(),
            global_queue: RunningStats::new(),
        }
    }

    /// Number of VMs tracked.
    pub fn vm_count(&self) -> usize {
        self.per_vm_exec.len()
    }

    /// Record one completed attempt on `vm` with execution time `te`
    /// and queue time `tf` (seconds).
    pub fn record(&mut self, vm: VmId, te: f64, tf: f64) {
        let i = vm.index();
        assert!(i < self.per_vm_exec.len(), "unknown VM {vm}");
        self.per_vm_exec[i].push(te);
        self.per_vm_queue[i].push(tf);
        self.global_exec.push(te);
        self.global_queue.push(tf);
    }

    /// Number of attempts recorded on `vm`.
    pub fn vm_samples(&self, vm: VmId) -> u64 {
        self.per_vm_exec[vm.index()].count()
    }

    /// Total attempts recorded.
    pub fn total_samples(&self) -> u64 {
        self.global_exec.count()
    }

    /// Mean execution time on `vm`.
    pub fn vm_mean_exec(&self, vm: VmId) -> f64 {
        self.per_vm_exec[vm.index()].mean()
    }

    /// Mean queue time on `vm`.
    pub fn vm_mean_queue(&self, vm: VmId) -> f64 {
        self.per_vm_queue[vm.index()].mean()
    }

    /// Eq. 4: the average performance index of `vm` under weight `mu`.
    /// Returns `None` when the VM has no history yet.
    pub fn vm_pi(&self, vm: VmId, mu: f64) -> Option<f64> {
        let i = vm.index();
        if self.per_vm_exec[i].count() == 0 {
            return None;
        }
        Some(self.per_vm_exec[i].mean() * mu + (1.0 - mu) * self.per_vm_queue[i].mean())
    }

    /// Eq. 5: the global workflow performance index under weight `mu`.
    pub fn global_pw(&self, mu: f64) -> f64 {
        self.global_exec.mean() * mu + (1.0 - mu) * self.global_queue.mean()
    }

    /// Standard deviation of the per-VM performance indices (over VMs
    /// with at least one sample). Zero when fewer than two VMs have
    /// history.
    ///
    /// Computed over the indices as they are derived, not a collected
    /// `Vec` (this runs once per completion): the same values summed in
    /// the same order as the collected slice was, so bit-equal to it.
    pub fn stdv_pi(&self, mu: f64) -> f64 {
        wfcommon::stats::stddev(
            (0..self.vm_count()).filter_map(|i| self.vm_pi(VmId::from_index(i), mu)),
        )
    }

    /// Merge another history into this one (e.g. carry statistics from
    /// a previous episode, paper §III-C "all information associated
    /// with the previous episodes is loaded").
    pub fn merge(&mut self, other: &ExecHistory) {
        assert_eq!(self.vm_count(), other.vm_count(), "fleet size mismatch");
        for i in 0..self.per_vm_exec.len() {
            self.per_vm_exec[i].merge(&other.per_vm_exec[i]);
            self.per_vm_queue[i].merge(&other.per_vm_queue[i]);
        }
        self.global_exec.merge(&other.global_exec);
        self.global_queue.merge(&other.global_queue);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_history_has_no_pi() {
        let h = ExecHistory::new(3);
        assert_eq!(h.vm_pi(VmId::new(0), 0.5), None);
        assert_eq!(h.global_pw(0.5), 0.0);
        assert_eq!(h.stdv_pi(0.5), 0.0);
    }

    #[test]
    fn pi_blends_exec_and_queue() {
        let mut h = ExecHistory::new(2);
        h.record(VmId::new(0), 10.0, 2.0);
        h.record(VmId::new(0), 20.0, 4.0);
        // mean te = 15, mean tf = 3.
        assert!((h.vm_pi(VmId::new(0), 1.0).unwrap() - 15.0).abs() < 1e-12);
        assert!((h.vm_pi(VmId::new(0), 0.0).unwrap() - 3.0).abs() < 1e-12);
        assert!((h.vm_pi(VmId::new(0), 0.5).unwrap() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn global_pw_covers_all_vms() {
        let mut h = ExecHistory::new(2);
        h.record(VmId::new(0), 10.0, 0.0);
        h.record(VmId::new(1), 30.0, 0.0);
        assert!((h.global_pw(1.0) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn stdv_over_vms_with_history_only() {
        let mut h = ExecHistory::new(3);
        h.record(VmId::new(0), 10.0, 0.0);
        h.record(VmId::new(1), 20.0, 0.0);
        // VM 2 has no samples; stdv over {10, 20} = 5.
        assert!((h.stdv_pi(1.0) - 5.0).abs() < 1e-12);
        // Bit-equal to the textbook two-pass form over the collected
        // indices, on values that do not sum exactly.
        for (i, te) in [0.1, 0.7, 1.3, 2.9, 0.3].into_iter().enumerate() {
            h.record(VmId::new(i as u32 % 3), te, te / 3.0);
        }
        let pis: Vec<f64> = (0..3).filter_map(|i| h.vm_pi(VmId::new(i), 0.3)).collect();
        let mean = pis.iter().sum::<f64>() / pis.len() as f64;
        let var = pis.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / pis.len() as f64;
        assert_eq!(h.stdv_pi(0.3).to_bits(), var.sqrt().to_bits());
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = ExecHistory::new(2);
        a.record(VmId::new(0), 10.0, 1.0);
        let mut b = ExecHistory::new(2);
        b.record(VmId::new(0), 20.0, 3.0);
        b.record(VmId::new(1), 5.0, 0.5);
        a.merge(&b);
        assert_eq!(a.vm_samples(VmId::new(0)), 2);
        assert_eq!(a.vm_samples(VmId::new(1)), 1);
        assert_eq!(a.total_samples(), 3);
        assert!((a.vm_mean_exec(VmId::new(0)) - 15.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "fleet size mismatch")]
    fn merge_rejects_different_fleets() {
        let mut a = ExecHistory::new(2);
        a.merge(&ExecHistory::new(3));
    }

    #[test]
    fn serde_round_trip() {
        let mut h = ExecHistory::new(2);
        h.record(VmId::new(1), 7.0, 0.7);
        let json = serde_json_string(&h);
        let back: ExecHistory = serde_json::from_str(&json).unwrap();
        assert_eq!(h, back);
    }

    fn serde_json_string<T: serde::Serialize>(v: &T) -> String {
        serde_json::to_string(v).unwrap()
    }
}
