//! Scheduling plans: the activation → VM mapping a simulation produces
//! (Table V) and a scheduler that replays a fixed plan.

use crate::scheduler::{Decision, Scheduler, SchedulerContext};
use cloud::Fleet;
use serde::{Deserialize, Serialize};
use wfcommon::ids::Idx;
use wfcommon::{ActivationId, Error, Result, VmId};
use workflow::Workflow;

/// An activation → VM mapping. `None` marks activations the plan does
/// not cover (e.g. a simulation that failed part-way).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Plan {
    assignments: Vec<Option<VmId>>,
}

impl Plan {
    /// An empty plan for `n` activations.
    pub fn empty(n: usize) -> Self {
        Self { assignments: vec![None; n] }
    }

    /// Build from a complete assignment vector.
    pub fn from_assignments(assignments: Vec<VmId>) -> Self {
        Self { assignments: assignments.into_iter().map(Some).collect() }
    }

    /// Number of activations the plan is sized for.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// True when sized for zero activations.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Record (or overwrite) the VM for `ac`.
    pub fn assign(&mut self, ac: ActivationId, vm: VmId) {
        self.assignments[ac.index()] = Some(vm);
    }

    /// The VM planned for `ac`, if any.
    pub fn vm_for(&self, ac: ActivationId) -> Option<VmId> {
        self.assignments.get(ac.index()).copied().flatten()
    }

    /// True when every activation has an assignment.
    pub fn is_complete(&self) -> bool {
        self.assignments.iter().all(|a| a.is_some())
    }

    /// Iterate `(activation, vm)` pairs for assigned activations.
    pub fn iter(&self) -> impl Iterator<Item = (ActivationId, VmId)> + '_ {
        self.assignments
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|vm| (ActivationId::from_index(i), vm)))
    }

    /// Count of activations assigned to each VM (indexed by VM id).
    pub fn load_histogram(&self, fleet_size: usize) -> Vec<usize> {
        let mut h = vec![0usize; fleet_size];
        for (_, vm) in self.iter() {
            if vm.index() < fleet_size {
                h[vm.index()] += 1;
            }
        }
        h
    }

    /// Validate against a workflow and fleet: complete, and every VM
    /// exists.
    pub fn validate(&self, workflow: &Workflow, fleet: &Fleet) -> Result<()> {
        if self.assignments.len() != workflow.len() {
            return Err(Error::InvalidPlan(format!(
                "plan covers {} activations, workflow has {}",
                self.assignments.len(),
                workflow.len()
            )));
        }
        for (i, a) in self.assignments.iter().enumerate() {
            match a {
                None => return Err(Error::InvalidPlan(format!("activation ac{i} is unassigned"))),
                Some(vm) if vm.index() >= fleet.len() => {
                    return Err(Error::InvalidPlan(format!(
                        "activation ac{i} assigned to unknown {vm}"
                    )))
                }
                Some(_) => {}
            }
        }
        Ok(())
    }
}

/// Replays a fixed plan: each ready activation may start only on its
/// planned VM, and only when that VM has an idle element. This is the
/// simulator-side mirror of what SciCumulus does with the plan in the
/// real cloud (paper §III-D).
pub struct FixedPlanScheduler {
    plan: Plan,
    /// Scratch for [`Scheduler::decide`]: whether each VM of the fleet
    /// has an idle element at this consultation. Sized by the fleet, not
    /// by the largest VM id in the plan — a plan is outside input and
    /// must not size an allocation.
    vm_idle: Vec<bool>,
}

impl FixedPlanScheduler {
    /// Wrap a (validated) plan.
    pub fn new(plan: Plan) -> Self {
        Self { plan, vm_idle: Vec::new() }
    }

    /// Borrow the plan.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }
}

impl Scheduler for FixedPlanScheduler {
    fn name(&self) -> &str {
        "fixed-plan"
    }

    /// The first ready activation whose planned VM has an idle element.
    /// The idle VMs are marked once, so a consultation is
    /// O(|ready| + |VM|), where looking each ready activation's VM up in
    /// `idle_slots` was O(|ready| × |idle|) — and a greedy plan piles
    /// hundreds of ready activations behind a few VMs.
    fn decide(&mut self, ctx: &SchedulerContext<'_>) -> Decision {
        self.vm_idle.clear();
        self.vm_idle.resize(ctx.fleet.len(), false);
        for &(vm, free) in ctx.idle_slots {
            if let Some(idle) = self.vm_idle.get_mut(vm.index()) {
                *idle |= free > 0;
            }
        }
        for &ac in ctx.ready {
            if let Some(vm) = self.plan.vm_for(ac) {
                if self.vm_idle.get(vm.index()) == Some(&true) {
                    return Decision::Assign { activation: ac, vm };
                }
            }
        }
        Decision::DoNothing
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_round_trip() {
        let mut p = Plan::empty(3);
        assert!(!p.is_complete());
        p.assign(ActivationId::new(0), VmId::new(2));
        p.assign(ActivationId::new(1), VmId::new(0));
        p.assign(ActivationId::new(2), VmId::new(2));
        assert!(p.is_complete());
        assert_eq!(p.vm_for(ActivationId::new(0)), Some(VmId::new(2)));
        assert_eq!(p.load_histogram(3), vec![1, 0, 2]);
    }

    #[test]
    fn validate_catches_gaps_and_bad_vms() {
        let wf = workflow::montage50::montage50();
        let fleet = Fleet::paper_16_vcpus();
        let mut p = Plan::empty(wf.len());
        assert!(p.validate(&wf, &fleet).is_err());
        for i in 0..wf.len() {
            p.assign(ActivationId::from_index(i), VmId::new(0));
        }
        p.validate(&wf, &fleet).unwrap();
        p.assign(ActivationId::new(0), VmId::new(99));
        assert!(p.validate(&wf, &fleet).is_err());

        let small = Plan::empty(3);
        assert!(small.validate(&wf, &fleet).is_err());
    }

    #[test]
    fn fixed_plan_scheduler_waits_for_its_vm() {
        let wf = workflow::montage50::montage50();
        let fleet = Fleet::paper_16_vcpus();
        let hist = crate::history::ExecHistory::new(fleet.len());
        let mut plan = Plan::empty(wf.len());
        for i in 0..wf.len() {
            plan.assign(ActivationId::from_index(i), VmId::new(3));
        }
        let mut s = FixedPlanScheduler::new(plan);
        let ready = [ActivationId::new(0)];
        // Planned VM busy → DoNothing even though another VM is idle.
        let idle = [(VmId::new(5), 1u32)];
        let ctx = SchedulerContext {
            now: wfcommon::SimTime::ZERO,
            workflow: &wf,
            fleet: &fleet,
            ready: &ready,
            idle_slots: &idle,
            history: &hist,
        };
        assert_eq!(s.decide(&ctx), Decision::DoNothing);
        // Planned VM idle → assign.
        let idle = [(VmId::new(3), 1u32)];
        let ctx = SchedulerContext { idle_slots: &idle, ..ctx };
        assert_eq!(
            s.decide(&ctx),
            Decision::Assign { activation: ActivationId::new(0), vm: VmId::new(3) }
        );
        // Listed, but with nothing free → wait.
        let idle = [(VmId::new(3), 0u32), (VmId::new(5), 2)];
        assert_eq!(s.decide(&SchedulerContext { idle_slots: &idle, ..ctx }), Decision::DoNothing);

        // The first ready activation *whose VM is idle* goes, wherever
        // it stands in the ready list; an unassigned activation, a plan
        // entry beyond the fleet and an idle VM beyond the fleet wait.
        let mut plan = Plan::empty(wf.len());
        plan.assign(ActivationId::new(1), VmId::new(99));
        plan.assign(ActivationId::new(2), VmId::new(7));
        plan.assign(ActivationId::new(3), VmId::new(5));
        plan.assign(ActivationId::new(4), VmId::new(5));
        let mut s = FixedPlanScheduler::new(plan);
        let ready = [0, 1, 2, 3, 4].map(ActivationId::new);
        let idle = [(VmId::new(5), 1u32), (VmId::new(99), 4)];
        let ctx = SchedulerContext { ready: &ready, idle_slots: &idle, ..ctx };
        assert_eq!(
            s.decide(&ctx),
            Decision::Assign { activation: ActivationId::new(3), vm: VmId::new(5) }
        );
        assert_eq!(s.decide(&SchedulerContext { ready: &ready[..3], ..ctx }), Decision::DoNothing);
    }

    #[test]
    fn serde_round_trip() {
        let p = Plan::from_assignments(vec![VmId::new(0), VmId::new(8)]);
        let json = serde_json::to_string(&p).unwrap();
        let back: Plan = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
