//! Discrete-event simulation of mixed-criticality runtime behaviour.
//!
//! The analyses in [`crate::analysis`] answer the *design-time* question
//! ("is this set schedulable?"). This module answers the *runtime* questions
//! the paper's motivation section raises: how often does the system switch
//! to HI mode, how many LC jobs get dropped, and do HC deadlines actually
//! hold?
//!
//! The simulator implements the paper's §III operational model on a
//! preemptive uniprocessor. One event-calendar engine runs it over `L`
//! criticality levels; [`simulate`] is its dual-criticality case `L = 2`
//! and [`simulate_multi`] runs it with the task set's `L`:
//!
//! * the system starts in LO mode (mode 0) with every task admitted;
//! * jobs are dispatched by EDF over *virtual deadlines* (EDF-VD) while
//!   their level is above the mode, and over real deadlines otherwise;
//! * the instant a job executes past its current-mode budget (`C_LO` in
//!   the dual case), the system switches up one mode and the work below
//!   the new mode is dropped ([`LcPolicy::DropAll`], Baruah et al.) or
//!   degraded ([`LcPolicy::Degrade`], Liu et al.);
//! * the system returns to LO mode as soon as no job at or above the
//!   current mode is pending.

mod engine;
mod exec_model;
mod metrics;
pub mod multi;
#[cfg(test)]
mod reference;

pub use engine::{simulate, ModeSwitchPolicy, SimConfig};
pub use exec_model::JobExecModel;
pub use metrics::SimMetrics;
pub use multi::{simulate_multi, MultiExecModel, MultiSimConfig, MultiSimMetrics};

use serde::{Deserialize, Serialize};

/// What happens to low-criticality work when the system enters HI mode.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LcPolicy {
    /// Discard all ready LC jobs and reject LC releases while in HI mode
    /// (Baruah et al., RTNS 2012).
    DropAll,
    /// Keep LC jobs running with the given fraction of their LO-mode budget
    /// (Liu et al., RTSS 2016; the paper's experiments use `0.5`).
    Degrade(f64),
}

impl LcPolicy {
    /// Validates the policy (a degradation fraction must lie in `[0, 1]`).
    pub fn is_valid(&self) -> bool {
        match self {
            LcPolicy::DropAll => true,
            LcPolicy::Degrade(f) => f.is_finite() && (0.0..=1.0).contains(f),
        }
    }
}
