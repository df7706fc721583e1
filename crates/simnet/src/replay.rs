//! Serializable schedules and deterministic replay.
//!
//! The model checker in [`crate::explore`] reports counterexamples as a
//! [`Schedule`]: the algorithm label, the boot configuration (node count,
//! requesters, fault budgets), and the exact sequence of scheduling
//! decisions ([`Step`]s) that exposes the bug. A schedule is plain data —
//! serde-serializable, renderable as JSONL, and emittable through the
//! `tokq-obs` flight recorder — and [`replay`] re-executes one
//! step-for-step against a freshly booted system. The world evolves
//! deterministically from a schedule, so a replay always reproduces the
//! identical event sequence (pinned by `tests/model_checker.rs`).
//!
//! The record/replay workflow:
//!
//! 1. run the explorer (or any producer) with an [`tokq_obs::Obs`] handle
//!    that has a flight recorder attached; a violation emits its shrunk
//!    schedule as `schedule` / `schedule_step` events;
//! 2. dump the recorder ([`tokq_obs::FlightRecorder::dump_jsonl`]) or grab
//!    its snapshot;
//! 3. rebuild the schedule with [`Schedule::from_events`] (or
//!    [`Schedule::from_jsonl`]) and hand it to [`replay`] for step-level
//!    forensics.

use serde::{Deserialize, Serialize};
use tokq_obs::{Event, Level, Obs, TraceKind};
use tokq_protocol::api::{Protocol, ProtocolFactory};
use tokq_protocol::types::NodeId;

use crate::explore::{ViolationKind, World};
use crate::fault::FaultBudget;

/// One scheduling decision of the model checker.
///
/// Indices are positions into the respective queue (in-flight messages in
/// arrival order, pending timers in arming order) *at the moment the step
/// executes* — the same state the explorer saw, because replay evolves the
/// world identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Step {
    /// Deliver the in-flight message at `index`.
    Deliver {
        /// Position in the in-flight queue.
        index: usize,
    },
    /// Node `node` completes its critical section.
    CsDone {
        /// The node inside its CS.
        node: NodeId,
    },
    /// The pending timer at `index` fires.
    Timer {
        /// Position in the pending-timer list.
        index: usize,
    },
    /// Fault injection: node `node` fail-stops.
    Crash {
        /// The crashing node.
        node: NodeId,
    },
    /// Fault injection: crashed node `node` restarts.
    Recover {
        /// The recovering node.
        node: NodeId,
    },
    /// Fault injection: the in-flight message at `index` is lost.
    Drop {
        /// Position in the in-flight queue.
        index: usize,
    },
    /// Fault injection: the in-flight message at `index` is duplicated.
    Duplicate {
        /// Position in the in-flight queue.
        index: usize,
    },
}

impl Step {
    /// True for the fault-injection steps (crash, recover, drop,
    /// duplicate); false for ordinary scheduling decisions.
    pub fn is_fault(&self) -> bool {
        matches!(
            self,
            Step::Crash { .. } | Step::Recover { .. } | Step::Drop { .. } | Step::Duplicate { .. }
        )
    }
}

/// A complete, self-describing scheduling decision sequence.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    /// Algorithm label (diagnostic only; [`replay`] runs whatever factory
    /// you pass it).
    pub algorithm: String,
    /// Number of nodes in the system.
    pub n: usize,
    /// Nodes that issue one CS request each at boot, in issue order.
    pub requesters: Vec<usize>,
    /// The fault budgets the schedule was explored under; replay enforces
    /// the same limits, so a schedule cannot smuggle in extra faults.
    pub faults: FaultBudget,
    /// The scheduling decisions, in order.
    pub steps: Vec<Step>,
}

impl Schedule {
    /// Renders the schedule as `tokq-obs` events: one `schedule` header
    /// carrying the boot configuration, then one `schedule_step` event per
    /// step (target `explore`).
    pub fn to_events(&self) -> Vec<Event> {
        let mut events = Vec::with_capacity(self.steps.len() + 1);
        events.push(
            Event::new("explore", Level::Info, "schedule")
                .field("algorithm", &self.algorithm)
                .field("n", &self.n)
                .field("requesters", &self.requesters)
                .field("faults", &self.faults)
                .field("len", &self.steps.len()),
        );
        for (idx, step) in self.steps.iter().enumerate() {
            events.push(
                Event::new("explore", Level::Debug, "schedule_step")
                    .field("idx", &idx)
                    .field("step", step),
            );
        }
        events
    }

    /// Reconstructs a schedule from an event stream (e.g. a flight-recorder
    /// snapshot). Unrelated events are ignored; `schedule_step` events may
    /// arrive out of order (they carry their index) but must be gap-free
    /// and match the header's step count.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem: no header,
    /// a missing/mistyped field, duplicate or missing step indices.
    pub fn from_events(events: &[Event]) -> Result<Schedule, String> {
        let header = events
            .iter()
            .find(|e| e.name == "schedule")
            .ok_or("missing `schedule` header event")?;
        let field = |name: &str| {
            header
                .field_value(name)
                .ok_or_else(|| format!("schedule header missing `{name}`"))
        };
        let algorithm = String::deserialize(field("algorithm")?).map_err(|e| e.to_string())?;
        let n = usize::deserialize(field("n")?).map_err(|e| e.to_string())?;
        let requesters =
            Vec::<usize>::deserialize(field("requesters")?).map_err(|e| e.to_string())?;
        let faults = FaultBudget::deserialize(field("faults")?).map_err(|e| e.to_string())?;
        let len = usize::deserialize(field("len")?).map_err(|e| e.to_string())?;

        let mut steps: Vec<Option<Step>> = vec![None; len];
        for ev in events.iter().filter(|e| e.name == "schedule_step") {
            let idx =
                usize::deserialize(ev.field_value("idx").ok_or("schedule_step missing `idx`")?)
                    .map_err(|e| e.to_string())?;
            let step = Step::deserialize(
                ev.field_value("step")
                    .ok_or("schedule_step missing `step`")?,
            )
            .map_err(|e| e.to_string())?;
            let slot = steps
                .get_mut(idx)
                .ok_or_else(|| format!("schedule_step index {idx} out of range (len {len})"))?;
            if slot.replace(step).is_some() {
                return Err(format!("duplicate schedule_step index {idx}"));
            }
        }
        let steps = steps
            .into_iter()
            .enumerate()
            .map(|(i, s)| s.ok_or_else(|| format!("missing schedule_step index {i}")))
            .collect::<Result<Vec<Step>, String>>()?;
        Ok(Schedule {
            algorithm,
            n,
            requesters,
            faults,
            steps,
        })
    }

    /// The schedule as JSONL, one event per line (the flight-recorder
    /// schema).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.to_events() {
            out.push_str(&ev.to_jsonl());
            out.push('\n');
        }
        out
    }

    /// Parses a schedule back from JSONL. Lines that are not
    /// schedule-related events are ignored, so a raw flight-recorder dump
    /// containing one schedule can be fed in unfiltered.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line or structural
    /// problem (see [`Schedule::from_events`]).
    pub fn from_jsonl(text: &str) -> Result<Schedule, String> {
        let events = text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(Event::from_jsonl)
            .collect::<Result<Vec<Event>, String>>()?;
        Schedule::from_events(&events)
    }

    /// Emits the schedule through an [`Obs`] handle (and thus into any
    /// attached flight recorder).
    pub fn emit(&self, obs: &Obs) {
        for ev in self.to_events() {
            obs.emit(ev);
        }
    }
}

/// One replayed scheduling decision together with everything it caused,
/// in execution order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayStep {
    /// Position in the schedule.
    pub idx: usize,
    /// The decision.
    pub step: Step,
    /// The observable consequences: receptions, sends, CS transitions,
    /// protocol notes, crashes/recoveries.
    pub events: Vec<(NodeId, TraceKind)>,
}

/// The outcome of replaying a [`Schedule`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replay {
    /// Events produced while booting (Start inputs, then one RequestCs per
    /// requester).
    pub boot: Vec<(NodeId, TraceKind)>,
    /// The replayed steps with their consequences. Stops early at a
    /// violation.
    pub steps: Vec<ReplayStep>,
    /// Indices of schedule steps that were not applicable in the state
    /// reached (always empty for schedules the explorer produced; shrink
    /// candidates use the tolerance).
    pub skipped: Vec<usize>,
    /// A mutual-exclusion violation hit during replay, if any.
    pub violation: Option<ViolationKind>,
    /// Requesters left unserved in a quiescent final state, when the
    /// schedule is fault-free — the deadlock signature. Empty otherwise.
    pub starved: Vec<NodeId>,
    /// Total critical-section entries observed.
    pub cs_entries: u64,
}

impl Replay {
    /// True if this replay exhibits a violation of the same class as
    /// `kind` (the shrinker's acceptance test).
    pub fn reproduces(&self, kind: &ViolationKind) -> bool {
        match kind {
            ViolationKind::MutualExclusion { .. } => {
                matches!(self.violation, Some(ViolationKind::MutualExclusion { .. }))
            }
            ViolationKind::Deadlock { .. } => !self.starved.is_empty(),
        }
    }
}

/// Re-executes `schedule` step-for-step against a freshly booted system.
///
/// The world evolves deterministically, so two replays of the same
/// schedule produce identical [`Replay`] values bit for bit. Steps that
/// are not applicable in the reached state (possible only for hand-edited
/// or shrunk-candidate schedules) are skipped and recorded in
/// [`Replay::skipped`].
pub fn replay<F>(factory: &F, schedule: &Schedule) -> Replay
where
    F: ProtocolFactory,
    F::Node: Protocol + Clone,
{
    let (mut world, boot, boot_violation) =
        World::boot(factory, schedule.n, &schedule.requesters, schedule.faults);
    let mut rep = Replay {
        boot,
        steps: Vec::new(),
        skipped: Vec::new(),
        violation: boot_violation,
        starved: Vec::new(),
        cs_entries: 0,
    };
    if rep.violation.is_none() {
        for (idx, &step) in schedule.steps.iter().enumerate() {
            match world.apply(step) {
                Ok((events, violation)) => {
                    rep.steps.push(ReplayStep { idx, step, events });
                    if violation.is_some() {
                        rep.violation = violation;
                        break;
                    }
                }
                Err(_) => rep.skipped.push(idx),
            }
        }
    }
    rep.cs_entries = world.cs_entries();
    if rep.violation.is_none() && !schedule.steps.iter().any(|s| s.is_fault()) && world.quiescent()
    {
        rep.starved = world.starving();
    }
    rep
}

/// Drives a random but *valid* walk of the scheduling state space: each
/// choice selects among the currently enabled steps, so the resulting
/// schedule replays without skips. The walk stops at quiescence, at a
/// violation, or when `choices` runs out. Used by the schedule round-trip
/// proptest and handy for smoke-testing.
pub fn random_schedule<F>(
    factory: &F,
    n: usize,
    requesters: &[usize],
    faults: FaultBudget,
    choices: &[u16],
) -> Schedule
where
    F: ProtocolFactory,
    F::Node: Protocol + Clone,
{
    let (mut world, _, boot_violation) = World::boot(factory, n, requesters, faults);
    let algorithm = world.algorithm().to_owned();
    let mut steps = Vec::new();
    if boot_violation.is_none() {
        for &choice in choices {
            let enabled = world.enabled();
            if enabled.is_empty() {
                break;
            }
            let step = enabled[choice as usize % enabled.len()];
            let (_, violation) = world.apply(step).expect("enabled steps apply");
            steps.push(step);
            if violation.is_some() {
                break;
            }
        }
    }
    Schedule {
        algorithm,
        n,
        requesters: requesters.to_vec(),
        faults,
        steps,
    }
}
