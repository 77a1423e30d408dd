//! The driver's graceful-degradation health state machine.
//!
//! A production UVM driver does not only service faults on a healthy
//! device; it survives sustained memory pressure, accumulating block
//! degradations, and full GPU resets. [`HealthState`] makes that regime
//! explicit: the driver evaluates its health at every batch boundary and
//! adapts its servicing behavior per state (see
//! [`HealthState::prefetch_allowed`]) instead of pretending the device is
//! always pristine.
//!
//! State semantics, in escalation order:
//!
//! * **Healthy** — the stock paper pipeline. Every experiment with
//!   injection disabled runs its whole life here, so the machine is
//!   perturbation-free for all golden figures.
//! * **Pressured** — device memory is partially reserved away from UVM
//!   ([`crate::evict::GpuMemoryManager::pressure_reserved`] > 0). The
//!   driver has emergency-evicted down to the shrunken capacity and stops
//!   prefetching: speculative migrations into a shrinking device are how
//!   real drivers thrash themselves to death.
//! * **Degraded** — enough VABlocks have been permanently degraded to
//!   remote mappings ([`crate::policy::DriverPolicy::degraded_threshold`])
//!   that the driver treats the device as unreliable; prefetching stays
//!   off even after pressure lifts.
//! * **Resetting** — the GPU lost its fault buffer and μTLB state this
//!   batch; the driver pays the re-attach cost
//!   ([`crate::policy::DriverPolicy::RESET_REATTACH_COST`], charged to
//!   `t_fixed`) and relies on the end-of-batch replay to regenerate the
//!   lost faults from the last consistent point.
//!
//! Transitions are recomputed from evidence each batch (reset observed →
//! `Resetting`; else degradations over threshold → `Degraded`; else
//! reservation active → `Pressured`; else `Healthy`), so the machine
//! recovers as naturally as it escalates. Every transition is counted and
//! emitted as a `health-transition` trace instant.

use serde::{Deserialize, Serialize};

/// The driver's operating regime, evaluated at every batch boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum HealthState {
    /// Stock servicing; no failure domain active.
    #[default]
    Healthy,
    /// Device memory partially reserved away; emergency eviction done,
    /// prefetching suspended.
    Pressured,
    /// Accumulated block degradations crossed the policy threshold;
    /// prefetching suspended until the driver is rebuilt.
    Degraded,
    /// A GPU reset was absorbed this batch; re-attach cost paid, lost
    /// faults replay from the last consistent point.
    Resetting,
}

impl HealthState {
    /// Stable lower-case name (trace events, reports).
    pub fn name(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Pressured => "pressured",
            HealthState::Degraded => "degraded",
            HealthState::Resetting => "resetting",
        }
    }

    /// Whether speculative prefetching is permitted in this state. Only a
    /// healthy driver speculates; every degraded regime services strictly
    /// on demand.
    pub fn prefetch_allowed(self) -> bool {
        self == HealthState::Healthy
    }
}

/// Evidence the driver gathered about one batch, from which the next
/// health state is derived.
#[derive(Debug, Clone, Copy, Default)]
pub struct HealthEvidence {
    /// A GPU reset was absorbed while servicing this batch.
    pub reset_absorbed: bool,
    /// Device blocks currently reserved away from UVM (0 = no pressure).
    pub pressure_reserved: u64,
    /// Cumulative VABlocks degraded to remote mappings over the run.
    pub total_degraded: u64,
    /// Policy threshold at which degradations escalate the state.
    pub degraded_threshold: u64,
}

/// The health machine: current state plus transition accounting. Fully
/// serialized, so a restored run continues in the exact regime the
/// snapshotted one was in.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct HealthMachine {
    state: HealthState,
    /// Monotone count of state transitions.
    transitions: u64,
    /// Batches spent in each state, indexed Healthy/Pressured/Degraded/
    /// Resetting.
    batches_in_state: [u64; 4],
}

impl HealthMachine {
    /// A machine starting `Healthy` with zeroed accounting.
    pub fn new() -> Self {
        HealthMachine::default()
    }

    /// Current state.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Monotone transition count.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Batches observed while in `state`.
    pub fn batches_in(&self, state: HealthState) -> u64 {
        self.batches_in_state[Self::index(state)]
    }

    fn index(state: HealthState) -> usize {
        match state {
            HealthState::Healthy => 0,
            HealthState::Pressured => 1,
            HealthState::Degraded => 2,
            HealthState::Resetting => 3,
        }
    }

    /// Derive the state the evidence calls for, most severe condition
    /// first. Pure, so tests can probe the transition table directly.
    pub fn derive(evidence: &HealthEvidence) -> HealthState {
        if evidence.reset_absorbed {
            HealthState::Resetting
        } else if evidence.degraded_threshold > 0
            && evidence.total_degraded >= evidence.degraded_threshold
        {
            HealthState::Degraded
        } else if evidence.pressure_reserved > 0 {
            HealthState::Pressured
        } else {
            HealthState::Healthy
        }
    }

    /// Evaluate one batch's evidence: updates the state, accounts the
    /// batch, and returns `Some((from, to))` when a transition occurred.
    pub fn observe(&mut self, evidence: &HealthEvidence) -> Option<(HealthState, HealthState)> {
        let next = Self::derive(evidence);
        self.batches_in_state[Self::index(next)] += 1;
        if next == self.state {
            return None;
        }
        let from = self.state;
        self.state = next;
        self.transitions += 1;
        Some((from, next))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(reset: bool, reserved: u64, degraded: u64, threshold: u64) -> HealthEvidence {
        HealthEvidence {
            reset_absorbed: reset,
            pressure_reserved: reserved,
            total_degraded: degraded,
            degraded_threshold: threshold,
        }
    }

    #[test]
    fn severity_order_reset_over_degraded_over_pressured() {
        assert_eq!(HealthMachine::derive(&ev(false, 0, 0, 4)), HealthState::Healthy);
        assert_eq!(HealthMachine::derive(&ev(false, 2, 0, 4)), HealthState::Pressured);
        assert_eq!(HealthMachine::derive(&ev(false, 2, 4, 4)), HealthState::Degraded);
        assert_eq!(HealthMachine::derive(&ev(true, 2, 4, 4)), HealthState::Resetting);
    }

    #[test]
    fn zero_threshold_disables_degraded_escalation() {
        assert_eq!(HealthMachine::derive(&ev(false, 0, 100, 0)), HealthState::Healthy);
    }

    #[test]
    fn machine_counts_transitions_and_recovers() {
        let mut m = HealthMachine::new();
        assert_eq!(m.observe(&ev(false, 0, 0, 4)), None);
        assert_eq!(
            m.observe(&ev(false, 3, 0, 4)),
            Some((HealthState::Healthy, HealthState::Pressured))
        );
        assert_eq!(m.observe(&ev(false, 3, 0, 4)), None);
        assert_eq!(
            m.observe(&ev(true, 3, 0, 4)),
            Some((HealthState::Pressured, HealthState::Resetting))
        );
        // Reset absorbed; pressure lifted: straight back to Healthy.
        assert_eq!(
            m.observe(&ev(false, 0, 0, 4)),
            Some((HealthState::Resetting, HealthState::Healthy))
        );
        assert_eq!(m.transitions(), 3);
        assert_eq!(m.batches_in(HealthState::Healthy), 2);
        assert_eq!(m.batches_in(HealthState::Pressured), 2);
        assert_eq!(m.batches_in(HealthState::Resetting), 1);
        assert_eq!(m.batches_in(HealthState::Degraded), 0);
    }

    #[test]
    fn only_healthy_allows_prefetch() {
        assert!(HealthState::Healthy.prefetch_allowed());
        assert!(!HealthState::Pressured.prefetch_allowed());
        assert!(!HealthState::Degraded.prefetch_allowed());
        assert!(!HealthState::Resetting.prefetch_allowed());
    }

    #[test]
    fn machine_serde_round_trips() {
        let mut m = HealthMachine::new();
        m.observe(&ev(false, 1, 0, 4));
        m.observe(&ev(false, 0, 0, 4));
        let json = serde_json::to_string(&m).expect("serialize");
        let back: HealthMachine = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back.state(), m.state());
        assert_eq!(back.transitions(), 2);
        assert_eq!(back.batches_in(HealthState::Pressured), 1);
    }
}
