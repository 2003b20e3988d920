//! Precomputed, read-only structural caches over a [`Workflow`].
//!
//! The simulation hot path repeatedly asks the same structural
//! questions — who are an activation's parents, how many bytes cross
//! each dependency edge, how much input data has no producer and must
//! be staged in from shared storage. All of it is fixed the moment the
//! workflow is built, so a [`WorkflowCache`] answers each from a flat
//! array instead of re-deriving it per scheduling decision. One cache
//! is built per workflow and shared immutably across any number of
//! concurrent simulations (it is `Send + Sync`).

use crate::model::Workflow;
use wfcommon::ids::Idx;
use wfcommon::ActivationId;

/// Immutable per-workflow lookup tables (see module docs).
#[derive(Clone, Debug)]
pub struct WorkflowCache {
    /// One valid topological order of the activation DAG.
    topo_order: Vec<usize>,
    /// Dependency count per activation.
    in_degree: Vec<u32>,
    /// CSR offsets into `parent_edges`, length `len() + 1`.
    parent_offsets: Vec<u32>,
    /// `(parent, transfer_bytes)` per dependency edge, grouped by child
    /// in `dag.preds` order.
    parent_edges: Vec<(u32, u64)>,
    /// Bytes of each activation's inputs that no parent produces
    /// (staged in from shared storage when the simulator models it).
    external_input_bytes: Vec<u64>,
    /// Upward rank: critical-path seconds from each activation to an
    /// exit, on the reference machine (HEFT-style priority).
    rank: Vec<f64>,
}

impl WorkflowCache {
    /// Build every table in one pass over the workflow. Fails only on a
    /// cyclic DAG.
    pub fn new(workflow: &Workflow) -> wfcommon::Result<Self> {
        let n = workflow.len();
        let topo_order = dag::topo_sort(&workflow.dag)
            .map_err(|e| wfcommon::Error::InvalidWorkflow(format!("cyclic dependencies: {e}")))?;
        let in_degree: Vec<u32> = (0..n).map(|i| workflow.dag.in_degree(i) as u32).collect();

        let mut parent_offsets = Vec::with_capacity(n + 1);
        let mut parent_edges = Vec::new();
        let mut external_input_bytes = Vec::with_capacity(n);
        // File ids are dense, so "is an input of activation i" and "is
        // produced by a parent of activation i" are one stamp per file
        // each (the stamp is `i`), not a set rebuilt or a list searched
        // per activation. The sums are [`Workflow::transfer_bytes`]'s and
        // the engine's stage-in rule, file for file and in their order.
        const UNSTAMPED: u32 = u32::MAX;
        let mut input_of = vec![UNSTAMPED; workflow.files.len()];
        let mut produced_for = vec![UNSTAMPED; workflow.files.len()];
        for i in 0..n {
            parent_offsets.push(parent_edges.len() as u32);
            let stamp = i as u32;
            let inputs = &workflow.activations[ActivationId::from_index(i)].inputs;
            for f in inputs {
                if let Some(s) = input_of.get_mut(f.index()) {
                    *s = stamp;
                }
            }
            for &p in workflow.dag.preds(i) {
                let mut bytes = 0u64;
                for &f in &workflow.activations[ActivationId::from_index(p)].outputs {
                    if input_of.get(f.index()) == Some(&stamp) {
                        bytes += workflow.files[f].size_bytes;
                    }
                    if let Some(s) = produced_for.get_mut(f.index()) {
                        *s = stamp;
                    }
                }
                parent_edges.push((p as u32, bytes));
            }
            let external: u64 = inputs
                .iter()
                .filter(|f| produced_for.get(f.index()) != Some(&stamp))
                .map(|&f| workflow.files[f].size_bytes)
                .sum();
            external_input_bytes.push(external);
        }
        parent_offsets.push(parent_edges.len() as u32);

        // Upward rank in reverse topological order: an activation's rank
        // is its own reference runtime plus the best continuation below.
        let mut rank = vec![0.0f64; n];
        for &i in topo_order.iter().rev() {
            let own = workflow.activations[ActivationId::from_index(i)].reference_runtime_secs();
            let below = workflow.dag.succs(i).iter().map(|&c| rank[c]).fold(0.0f64, f64::max);
            rank[i] = own + below;
        }

        Ok(Self { topo_order, in_degree, parent_offsets, parent_edges, external_input_bytes, rank })
    }

    /// Number of activations covered.
    pub fn len(&self) -> usize {
        self.in_degree.len()
    }

    /// True when the cached workflow has no activations.
    pub fn is_empty(&self) -> bool {
        self.in_degree.is_empty()
    }

    /// A valid topological order of the activation DAG.
    pub fn topo_order(&self) -> &[usize] {
        &self.topo_order
    }

    /// Dependency count of activation `i`.
    #[inline]
    pub fn in_degree(&self, i: usize) -> u32 {
        self.in_degree[i]
    }

    /// `(parent_index, transfer_bytes)` per dependency edge of `i`.
    #[inline]
    pub fn parents(&self, i: usize) -> &[(u32, u64)] {
        let lo = self.parent_offsets[i] as usize;
        let hi = self.parent_offsets[i + 1] as usize;
        &self.parent_edges[lo..hi]
    }

    /// Bytes of `i`'s inputs produced by no parent (shared-storage
    /// stage-in volume).
    #[inline]
    pub fn external_input_bytes(&self, i: usize) -> u64 {
        self.external_input_bytes[i]
    }

    /// Upward rank of `i`: critical-path seconds to an exit on the
    /// reference machine.
    #[inline]
    pub fn rank(&self, i: usize) -> f64 {
        self.rank[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montage50::montage50;
    use std::collections::HashSet;
    use wfcommon::FileId;

    /// The committed Montage and one generated instance per family:
    /// joins of many parents, files with several consumers, inputs no
    /// one produces.
    fn workflows() -> Vec<Workflow> {
        use crate::generators::{cybershake, epigenomics, inspiral, montage, sipht};
        vec![
            montage50(),
            montage::generate(&montage::MontageParams::with_total_activations(120, 3).unwrap())
                .unwrap(),
            cybershake::generate(
                &cybershake::CyberShakeParams::with_total_activations(100, 4).unwrap(),
            )
            .unwrap(),
            epigenomics::generate(
                &epigenomics::EpigenomicsParams::with_total_activations(96, 5).unwrap(),
            )
            .unwrap(),
            inspiral::generate(&inspiral::InspiralParams::with_total_activations(90, 6).unwrap())
                .unwrap(),
            sipht::generate(&sipht::SiphtParams::with_total_activations(90, 7).unwrap()).unwrap(),
        ]
    }

    #[test]
    fn cache_matches_model_queries() {
        for wf in workflows() {
            let cache = WorkflowCache::new(&wf).unwrap();
            assert_eq!(cache.len(), wf.len());
            for i in 0..wf.len() {
                let ac = ActivationId::from_index(i);
                assert_eq!(cache.in_degree(i) as usize, wf.dag.in_degree(i));
                let parents: Vec<usize> =
                    cache.parents(i).iter().map(|&(p, _)| p as usize).collect();
                assert_eq!(parents, wf.dag.preds(i));
                for &(p, bytes) in cache.parents(i) {
                    assert_eq!(
                        bytes,
                        wf.transfer_bytes(ActivationId::from_index(p as usize), ac),
                        "{}: edge {p} -> {i}",
                        wf.name
                    );
                }
            }
        }
    }

    #[test]
    fn external_bytes_match_engine_derivation() {
        for wf in workflows() {
            let cache = WorkflowCache::new(&wf).unwrap();
            for i in 0..wf.len() {
                let ac = ActivationId::from_index(i);
                let produced: HashSet<FileId> = wf
                    .parents(ac)
                    .flat_map(|p| wf.activations[p].outputs.iter().copied())
                    .collect();
                let expected: u64 = wf.activations[ac]
                    .inputs
                    .iter()
                    .filter(|f| !produced.contains(f))
                    .map(|&f| wf.files[f].size_bytes)
                    .sum();
                assert_eq!(cache.external_input_bytes(i), expected, "{}: activation {i}", wf.name);
            }
            // Entry activations read real inputs from storage.
            assert!((0..wf.len()).any(|i| cache.external_input_bytes(i) > 0), "{}", wf.name);
        }
    }

    #[test]
    fn topo_order_respects_edges() {
        let wf = montage50();
        let cache = WorkflowCache::new(&wf).unwrap();
        let mut position = vec![0usize; wf.len()];
        for (pos, &i) in cache.topo_order().iter().enumerate() {
            position[i] = pos;
        }
        for (u, v) in wf.dag.edges() {
            assert!(position[u] < position[v], "edge {u}->{v} out of order");
        }
    }

    #[test]
    fn rank_is_monotone_down_the_dag() {
        let wf = montage50();
        let cache = WorkflowCache::new(&wf).unwrap();
        for (u, v) in wf.dag.edges() {
            assert!(cache.rank(u) > cache.rank(v), "parent rank must exceed child's");
        }
        let max_rank = (0..wf.len()).map(|i| cache.rank(i)).fold(0.0f64, f64::max);
        assert!(
            (max_rank - wf.reference_critical_path_secs()).abs() < 1e-9,
            "top rank {} vs critical path {}",
            max_rank,
            wf.reference_critical_path_secs()
        );
    }
}
