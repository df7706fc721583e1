//! Deterministic discrete-event network simulator for distributed mutual
//! exclusion protocols.
//!
//! The paper's evaluation (§3.3) ran an event-driven simulation of 10 nodes
//! generating Poisson request streams against constant message/execution
//! times. The authors' simulator is not available, so this crate rebuilds
//! that substrate: a virtual clock, an event heap with deterministic
//! tie-breaking, configurable delay/loss models, crash/recovery fault
//! plans, metrics with 95% confidence intervals, and structured trace
//! events in the `tokq-obs` vocabulary.
//!
//! Any [`tokq_protocol::api::Protocol`] implementation can be simulated;
//! the simulator enforces the mutual-exclusion invariant online and panics
//! the run on any violation.
//!
//! # Example
//!
//! ```
//! use tokq_protocol::arbiter::ArbiterConfig;
//! use tokq_simnet::arrivals::Poisson;
//! use tokq_simnet::sim::{SimConfig, Simulation};
//!
//! // 10 nodes, the paper's parameters, moderate load.
//! let report = Simulation::build(
//!     SimConfig::paper_defaults(10),
//!     ArbiterConfig::basic(),
//!     Poisson::new(2.0),
//! )
//! .run_until_cs(500);
//! assert!(report.messages_per_cs() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod arrivals;
pub mod explore;
pub mod fault;
pub mod metrics;
pub mod network;
pub mod replay;
pub mod sim;
pub mod time;

/// The seeded generator every simulation draws from; it lives in
/// `tokq-protocol`, which the runtime shares.
pub use tokq_protocol::rng;

pub use arrivals::{ArrivalProcess, ClosedLoop, Poisson, Scripted, WorkloadSpec};
pub use explore::{
    shrink_schedule, ExploreConfig, ExploreStats, Explorer, Violation, ViolationKind,
};
pub use fault::{Fault, FaultBudget, FaultPlan, Partition};
pub use metrics::Report;
pub use network::{DelayModel, Unreliability};
pub use replay::{random_schedule, replay, Replay, ReplayStep, Schedule, Step};
pub use rng::SimRng;
pub use sim::{SimConfig, Simulation};
pub use time::SimTime;
/// The trace vocabulary the simulator, the model checker and the runtime
/// emit; it lives in `tokq-obs`, which the runtime shares.
pub use tokq_obs::TraceKind;
