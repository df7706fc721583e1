//! A stateful model checker for the protocol state machines.
//!
//! The Monte-Carlo simulator samples one schedule per seed; this module
//! instead *enumerates* scheduling decisions — message deliveries, timer
//! firings, CS completions, and (under a [`FaultBudget`]) injected node
//! crashes, recoveries, token drops, and message duplications — checking
//! the mutual-exclusion invariant in every reachable state and, on
//! fault-free paths, flagging quiescent states that leave a requester
//! starving (a deadlock).
//!
//! Two reductions make the search stateful rather than a naive tree walk:
//!
//! * **visited-state deduplication** — every [`Protocol`] contributes a
//!   canonical [`Protocol::fingerprint`]; the world fingerprint combines
//!   the per-node fingerprints with the in-flight message *multiset* (the
//!   queue order is irrelevant because the checker branches over every
//!   delivery order anyway), the pending-timer multiset, and the remaining
//!   fault budgets. Because the search is depth-bounded, each fingerprint
//!   stores the depth budget it was explored with: a state first reached
//!   near `max_depth` has a truncated subtree, so a later, shallower
//!   revisit (with more budget left) re-explores instead of being pruned
//!   against the truncated claim.
//! * **sleep sets** (a partial-order reduction) — two scheduling decisions
//!   targeting *different* nodes commute, so after exploring `t₁` before
//!   `t₂`, the redundant `t₂`-before-`t₁` orders are skipped. Fault
//!   injections are treated as dependent on everything and are never
//!   slept. Combining sleep sets with state caching is only sound with a
//!   subsumption check: a revisit is pruned only if the current sleep set
//!   *covers* the stored one (and no extra depth budget remains);
//!   otherwise the state is re-explored and the stored claim adjusted.
//!
//! A [`Violation`] carries a [`Schedule`] counterexample, shrunk by
//! delta-debugging ([`shrink_schedule`]) to a locally-minimal step
//! sequence, replayable deterministically with [`crate::replay::replay`],
//! and emittable through the `tokq-obs` flight recorder.
//!
//! # Example
//!
//! ```
//! use tokq_protocol::arbiter::ArbiterConfig;
//! use tokq_simnet::explore::{Explorer, ExploreConfig};
//!
//! // Three nodes, two of which request: every delivery order is safe.
//! let stats = Explorer::new(ExploreConfig::default())
//!     .check(ArbiterConfig::basic(), 3, &[0, 1])
//!     .expect("mutual exclusion holds in every interleaving");
//! assert!(stats.states_explored > 0);
//! ```

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};

use serde::{Deserialize, Serialize};
use tokq_obs::{Event, Level, Obs, TraceKind};
use tokq_protocol::api::{Protocol, ProtocolFactory, ProtocolMessage};
use tokq_protocol::event::{Action, Input};
use tokq_protocol::types::NodeId;

use crate::fault::{is_token_kind, FaultBudget};
use crate::replay::{replay, Schedule, Step};

/// Exploration bounds and feature switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreConfig {
    /// Maximum scheduling decisions along one execution path.
    pub max_depth: usize,
    /// Maximum total states visited (safety net against explosion).
    pub max_states: u64,
    /// Prune states whose canonical fingerprint was already visited.
    pub dedup: bool,
    /// Sleep-set partial-order reduction (skip redundant orderings of
    /// commuting steps). Sound together with `dedup` via sleep-set
    /// subsumption; meaningful coverage gains require `dedup` too.
    pub sleep_sets: bool,
    /// Fault-branching budgets; [`FaultBudget::NONE`] disables injection.
    pub faults: FaultBudget,
    /// On fault-free paths, report a quiescent state that leaves an alive
    /// requester unserved as a [`ViolationKind::Deadlock`].
    pub check_deadlock: bool,
    /// Shrink counterexamples to a locally-minimal schedule before
    /// reporting (see [`shrink_schedule`]).
    pub shrink: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_depth: 28,
            max_states: 2_000_000,
            dedup: true,
            sleep_sets: true,
            faults: FaultBudget::NONE,
            check_deadlock: true,
            shrink: true,
        }
    }
}

impl ExploreConfig {
    /// The naive enumerator: no deduplication, no partial-order reduction,
    /// no deadlock check — the pre-model-checker behaviour, kept as the
    /// baseline for the reduction benchmark and the differential test.
    pub fn naive() -> Self {
        ExploreConfig {
            dedup: false,
            sleep_sets: false,
            check_deadlock: false,
            ..Self::default()
        }
    }

    /// Sets the fault budgets, returning `self` for chaining.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultBudget) -> Self {
        self.faults = faults;
        self
    }
}

/// Statistics from a completed exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExploreStats {
    /// States visited (including re-visits that were then deduplicated).
    pub states_explored: u64,
    /// Visits pruned because the state fingerprint was already covered.
    pub dedup_hits: u64,
    /// Transitions skipped by the sleep-set reduction.
    pub sleep_pruned: u64,
    /// Paths cut off by the depth bound.
    pub depth_bound_hits: u64,
    /// Executions that ran to quiescence (no in-flight messages, timers,
    /// or open critical sections).
    pub quiescent_paths: u64,
    /// Fault-injection branches taken.
    pub fault_branches: u64,
    /// Deepest path reached.
    pub max_depth_reached: usize,
    /// Maximum critical-section entries observed along any path.
    pub cs_entries: u64,
    /// True if the `max_states` budget stopped the search before it was
    /// exhaustive (within the depth bound).
    pub truncated: bool,
}

/// What the checker found wrong.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ViolationKind {
    /// Two nodes inside their critical sections simultaneously.
    MutualExclusion {
        /// The node that was already in its CS.
        first: NodeId,
        /// The node that entered on top of it.
        second: NodeId,
    },
    /// A quiescent state — nothing in flight, no timers pending, no CS
    /// open — on a fault-free path, with alive requesters never served.
    Deadlock {
        /// The requesters left waiting forever.
        starving: Vec<NodeId>,
    },
}

/// A violation found by the explorer, with its counterexample.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Violation {
    /// What went wrong.
    pub kind: ViolationKind,
    /// A schedule exposing the violation — shrunk to a locally-minimal
    /// step sequence when [`ExploreConfig::shrink`] is on, and replayable
    /// with [`crate::replay::replay`].
    pub schedule: Schedule,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            ViolationKind::MutualExclusion { first, second } => write!(
                f,
                "mutual exclusion violated: {} and {} in CS simultaneously ({}-step schedule)",
                first,
                second,
                self.schedule.steps.len()
            ),
            ViolationKind::Deadlock { starving } => {
                let nodes: Vec<String> = starving.iter().map(ToString::to_string).collect();
                write!(
                    f,
                    "deadlock: requesters [{}] starve in a quiescent state ({}-step schedule)",
                    nodes.join(", "),
                    self.schedule.steps.len()
                )
            }
        }
    }
}

/// An in-flight message.
#[derive(Debug, Clone)]
pub(crate) struct Envelope<M> {
    pub(crate) from: NodeId,
    pub(crate) to: NodeId,
    pub(crate) msg: M,
}

/// A step could not be applied in the current state (only possible for
/// hand-edited or shrunk-candidate schedules).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Inapplicable;

/// What one applied step produced: observable events and any violation.
pub(crate) type Applied = (Vec<(NodeId, TraceKind)>, Option<ViolationKind>);

/// The complete system state the checker and the replay driver evolve:
/// protocol nodes plus the network (in-flight messages), pending timers,
/// CS occupancy, liveness bookkeeping, and remaining fault budgets.
#[derive(Clone)]
pub(crate) struct World<P: Protocol + Clone> {
    nodes: Vec<P>,
    in_flight: VecDeque<Envelope<P::Msg>>,
    timers: Vec<(NodeId, P::Timer)>,
    in_cs: Vec<bool>,
    alive: Vec<bool>,
    requested: Vec<bool>,
    served: Vec<bool>,
    budget: FaultBudget,
    cs_entries: u64,
}

impl<P: Protocol + Clone> World<P> {
    /// Boots an `n`-node system: `Start` for every node, then one
    /// `RequestCs` per requester (in order). Returns the world, the boot
    /// events, and any violation already hit during boot.
    pub(crate) fn boot<F>(
        factory: &F,
        n: usize,
        requesters: &[usize],
        budget: FaultBudget,
    ) -> (Self, Vec<(NodeId, TraceKind)>, Option<ViolationKind>)
    where
        F: ProtocolFactory<Node = P>,
    {
        assert!(n > 0, "explored system must have at least one node");
        let mut world = World {
            nodes: factory.build_all(n),
            in_flight: VecDeque::new(),
            timers: Vec::new(),
            in_cs: vec![false; n],
            alive: vec![true; n],
            requested: vec![false; n],
            served: vec![false; n],
            budget,
            cs_entries: 0,
        };
        let mut events = Vec::new();
        let mut violation = None;
        for i in 0..n {
            if violation.is_some() {
                break;
            }
            let acts = world.nodes[i].step(Input::Start);
            violation = world.dispatch(NodeId::from_index(i), acts, &mut events);
        }
        for &r in requesters {
            if violation.is_some() {
                break;
            }
            assert!(r < n, "requester {r} out of range for n={n}");
            let node = NodeId::from_index(r);
            world.requested[r] = true;
            events.push((node, TraceKind::Arrival));
            let acts = world.nodes[r].step(Input::RequestCs);
            violation = world.dispatch(node, acts, &mut events);
        }
        (world, events, violation)
    }

    /// Executes one node's emitted actions against the world, recording
    /// the observable consequences. Returns a violation if an `EnterCs`
    /// overlaps an open critical section (and stops there).
    fn dispatch(
        &mut self,
        src: NodeId,
        actions: Vec<Action<P::Msg, P::Timer>>,
        events: &mut Vec<(NodeId, TraceKind)>,
    ) -> Option<ViolationKind> {
        let n = self.nodes.len();
        for action in actions {
            match action {
                Action::Send { to, msg } => {
                    events.push((
                        src,
                        TraceKind::Sent {
                            to: to.0,
                            kind: msg.kind(),
                        },
                    ));
                    self.in_flight.push_back(Envelope { from: src, to, msg });
                }
                Action::Broadcast { msg, except } => {
                    for i in 0..n {
                        let to = NodeId::from_index(i);
                        if to != src && !except.contains(&to) {
                            events.push((
                                src,
                                TraceKind::Sent {
                                    to: to.0,
                                    kind: msg.kind(),
                                },
                            ));
                            self.in_flight.push_back(Envelope {
                                from: src,
                                to,
                                msg: msg.clone(),
                            });
                        }
                    }
                }
                Action::SetTimer { timer, .. } => {
                    // Replace a pending instance of the same timer identity.
                    self.timers
                        .retain(|(node, t)| !(*node == src && *t == timer));
                    self.timers.push((src, timer));
                }
                Action::CancelTimer(timer) => {
                    self.timers
                        .retain(|(node, t)| !(*node == src && *t == timer));
                }
                Action::EnterCs => {
                    if let Some(other) = self.in_cs.iter().position(|&c| c) {
                        return Some(ViolationKind::MutualExclusion {
                            first: NodeId::from_index(other),
                            second: src,
                        });
                    }
                    self.in_cs[src.index()] = true;
                    self.served[src.index()] = true;
                    self.cs_entries += 1;
                    events.push((src, TraceKind::EnterCs));
                }
                Action::Note(note) => {
                    events.push((src, TraceKind::Note(note.label())));
                }
            }
        }
        None
    }

    /// The scheduling decisions enabled in this state, in a deterministic
    /// order: deliveries, CS completions, timers, then fault injections
    /// (bounded by the remaining budgets).
    pub(crate) fn enabled(&self) -> Vec<Step> {
        let mut steps = Vec::new();
        for index in 0..self.in_flight.len() {
            steps.push(Step::Deliver { index });
        }
        for (i, &open) in self.in_cs.iter().enumerate() {
            if open {
                steps.push(Step::CsDone {
                    node: NodeId::from_index(i),
                });
            }
        }
        for index in 0..self.timers.len() {
            steps.push(Step::Timer { index });
        }
        if self.budget.crashes > 0 {
            for (i, &up) in self.alive.iter().enumerate() {
                if up {
                    steps.push(Step::Crash {
                        node: NodeId::from_index(i),
                    });
                }
            }
        }
        if self.budget.recoveries > 0 {
            for (i, &up) in self.alive.iter().enumerate() {
                if !up {
                    steps.push(Step::Recover {
                        node: NodeId::from_index(i),
                    });
                }
            }
        }
        if self.budget.drops > 0 {
            for (index, env) in self.in_flight.iter().enumerate() {
                if self.budget.drop_any || is_token_kind(env.msg.kind()) {
                    steps.push(Step::Drop { index });
                }
            }
        }
        if self.budget.duplicates > 0 {
            for (index, env) in self.in_flight.iter().enumerate() {
                if env.msg.duplication_tolerant() {
                    steps.push(Step::Duplicate { index });
                }
            }
        }
        steps
    }

    /// Applies one scheduling decision, returning the observable events
    /// and any violation it triggered.
    pub(crate) fn apply(&mut self, step: Step) -> Result<Applied, Inapplicable> {
        let mut events = Vec::new();
        let violation = match step {
            Step::Deliver { index } => {
                let env = self.in_flight.remove(index).ok_or(Inapplicable)?;
                if !self.alive[env.to.index()] {
                    // A message arriving at a crashed node is lost.
                    None
                } else {
                    events.push((
                        env.to,
                        TraceKind::Received {
                            from: env.from.0,
                            kind: env.msg.kind(),
                        },
                    ));
                    let acts = self.nodes[env.to.index()].step(Input::Deliver {
                        from: env.from,
                        msg: env.msg,
                    });
                    self.dispatch(env.to, acts, &mut events)
                }
            }
            Step::CsDone { node } => {
                let i = node.index();
                if i >= self.in_cs.len() || !self.in_cs[i] {
                    return Err(Inapplicable);
                }
                self.in_cs[i] = false;
                events.push((node, TraceKind::ExitCs));
                let acts = self.nodes[i].step(Input::CsDone);
                self.dispatch(node, acts, &mut events)
            }
            Step::Timer { index } => {
                if index >= self.timers.len() {
                    return Err(Inapplicable);
                }
                let (node, timer) = self.timers.remove(index);
                let acts = self.nodes[node.index()].step(Input::Timer(timer));
                self.dispatch(node, acts, &mut events)
            }
            Step::Crash { node } => {
                let i = node.index();
                if i >= self.alive.len() || !self.alive[i] || self.budget.crashes == 0 {
                    return Err(Inapplicable);
                }
                self.budget.crashes -= 1;
                self.alive[i] = false;
                self.in_cs[i] = false;
                self.timers.retain(|(n, _)| *n != node);
                events.push((node, TraceKind::Crashed));
                // Fail-stop: the dying node's actions are discarded.
                let _ = self.nodes[i].step(Input::Crash);
                None
            }
            Step::Recover { node } => {
                let i = node.index();
                if i >= self.alive.len() || self.alive[i] || self.budget.recoveries == 0 {
                    return Err(Inapplicable);
                }
                self.budget.recoveries -= 1;
                self.alive[i] = true;
                events.push((node, TraceKind::Recovered));
                let acts = self.nodes[i].step(Input::Recover);
                self.dispatch(node, acts, &mut events)
            }
            Step::Drop { index } => {
                let eligible = self.budget.drops > 0
                    && self
                        .in_flight
                        .get(index)
                        .is_some_and(|e| self.budget.drop_any || is_token_kind(e.msg.kind()));
                if !eligible {
                    return Err(Inapplicable);
                }
                self.budget.drops -= 1;
                let env = self.in_flight.remove(index).expect("index checked");
                events.push((
                    env.to,
                    TraceKind::Injected {
                        fault: "checker_dropped",
                        kind: env.msg.kind(),
                    },
                ));
                None
            }
            Step::Duplicate { index } => {
                let eligible = self.budget.duplicates > 0
                    && self
                        .in_flight
                        .get(index)
                        .is_some_and(|e| e.msg.duplication_tolerant());
                if !eligible {
                    return Err(Inapplicable);
                }
                self.budget.duplicates -= 1;
                let env = self.in_flight[index].clone();
                events.push((
                    env.to,
                    TraceKind::Injected {
                        fault: "checker_duplicated",
                        kind: env.msg.kind(),
                    },
                ));
                self.in_flight.push_back(env);
                None
            }
        };
        Ok((events, violation))
    }

    /// Canonical fingerprint of the full checker state. In-flight messages
    /// and pending timers are hashed as *multisets*: their queue order is
    /// scheduling history, not future behaviour, because the checker
    /// branches over every delivery/firing order anyway.
    pub(crate) fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.protocol_fingerprint().hash(&mut h);
        self.alive.hash(&mut h);
        self.requested.hash(&mut h);
        self.served.hash(&mut h);
        let mut msgs: Vec<u64> = self.in_flight.iter().map(envelope_key).collect();
        msgs.sort_unstable();
        msgs.hash(&mut h);
        let mut timers: Vec<u64> = self
            .timers
            .iter()
            .map(|(node, timer)| {
                let mut th = DefaultHasher::new();
                node.hash(&mut th);
                timer.hash(&mut th);
                th.finish()
            })
            .collect();
        timers.sort_unstable();
        timers.hash(&mut h);
        self.budget.hash(&mut h);
        h.finish()
    }

    /// Fingerprint of the protocol-visible state only (node state machines
    /// plus CS occupancy) — what the reduction-soundness differential test
    /// compares across explorer configurations.
    pub(crate) fn protocol_fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        for node in &self.nodes {
            node.fingerprint(&mut h);
        }
        self.in_cs.hash(&mut h);
        h.finish()
    }

    /// True when no ordinary scheduling decision is enabled: nothing in
    /// flight, no timers pending, no critical section open.
    pub(crate) fn quiescent(&self) -> bool {
        self.in_flight.is_empty() && self.timers.is_empty() && !self.in_cs.iter().any(|&c| c)
    }

    /// Alive requesters that were never served.
    pub(crate) fn starving(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .filter(|&i| self.requested[i] && !self.served[i] && self.alive[i])
            .map(NodeId::from_index)
            .collect()
    }

    /// Total critical-section entries along this path.
    pub(crate) fn cs_entries(&self) -> u64 {
        self.cs_entries
    }

    /// The algorithm label of the system under test.
    pub(crate) fn algorithm(&self) -> &'static str {
        self.nodes[0].algorithm()
    }
}

/// Content hash of an in-flight message (sender, receiver, payload) — the
/// canonical transition identity used by fingerprints and sleep sets. Two
/// byte-identical duplicates share a key, which is exactly right: they are
/// the same transition.
fn envelope_key<M: ProtocolMessage>(env: &Envelope<M>) -> u64 {
    let mut h = DefaultHasher::new();
    env.from.hash(&mut h);
    env.to.hash(&mut h);
    env.msg.hash(&mut h);
    h.finish()
}

/// Canonical identity and target node of a non-fault step; `None` for
/// fault injections (dependent on everything, never slept).
fn transition_id<P: Protocol + Clone>(world: &World<P>, step: Step) -> Option<(u64, NodeId)> {
    let mut h = DefaultHasher::new();
    match step {
        Step::Deliver { index } => {
            let env = &world.in_flight[index];
            0u8.hash(&mut h);
            envelope_key(env).hash(&mut h);
            Some((h.finish(), env.to))
        }
        Step::CsDone { node } => {
            1u8.hash(&mut h);
            node.hash(&mut h);
            Some((h.finish(), node))
        }
        Step::Timer { index } => {
            let (node, timer) = &world.timers[index];
            2u8.hash(&mut h);
            node.hash(&mut h);
            timer.hash(&mut h);
            Some((h.finish(), *node))
        }
        _ => None,
    }
}

/// A violation found mid-search, with the raw step path that reached it.
struct Found {
    kind: ViolationKind,
    steps: Vec<Step>,
}

/// What one visit to a fingerprint established: the depth budget that was
/// left when the state was explored and the sleep set it was explored
/// under. Both bound the stored coverage, so a revisit may only be pruned
/// if it asks for no more than this claim delivers.
struct VisitEntry {
    /// `max_depth − depth` at exploration time. A state first reached near
    /// the depth bound has a *truncated* subtree; recording the budget lets
    /// a shallower (larger-budget) revisit re-explore instead of being
    /// silently pruned against the truncated claim.
    remaining: usize,
    /// The sleep set the exploration ran under (its transitions were *not*
    /// explored from here).
    sleep: HashSet<u64>,
}

/// The recursive search state.
struct Search<'a> {
    cfg: ExploreConfig,
    stats: ExploreStats,
    /// State fingerprint → strongest coverage claim established for it. A
    /// revisit is pruned only if the stored claim subsumes it: at least as
    /// much remaining depth, and a stored sleep set the current one covers.
    visited: HashMap<u64, VisitEntry>,
    /// Optional sink collecting every visited protocol fingerprint (for
    /// the reduction-soundness differential test).
    fingerprints: Option<&'a mut BTreeSet<u64>>,
}

impl Search<'_> {
    fn dfs<P: Protocol + Clone>(
        &mut self,
        world: &World<P>,
        depth: usize,
        sleep: &HashMap<u64, NodeId>,
        path: &mut Vec<Step>,
        faulty: bool,
    ) -> Result<(), Found> {
        self.stats.states_explored += 1;
        self.stats.max_depth_reached = self.stats.max_depth_reached.max(depth);
        self.stats.cs_entries = self.stats.cs_entries.max(world.cs_entries);
        if let Some(fps) = self.fingerprints.as_deref_mut() {
            fps.insert(world.protocol_fingerprint());
        }
        if self.stats.states_explored > self.cfg.max_states {
            self.stats.truncated = true;
            return Ok(());
        }

        if self.cfg.dedup {
            let remaining = self.cfg.max_depth.saturating_sub(depth);
            let key = world.fingerprint();
            match self.visited.get_mut(&key) {
                Some(entry)
                    if entry.remaining >= remaining
                        && entry.sleep.iter().all(|t| sleep.contains_key(t)) =>
                {
                    // Everything we would explore here — to our remaining
                    // depth, minus our sleepers — was already explored.
                    self.stats.dedup_hits += 1;
                    return Ok(());
                }
                Some(entry) => {
                    if remaining > entry.remaining {
                        // The earlier visit sat closer to the depth bound,
                        // so its subtree was truncated shallower than ours
                        // will be: this re-exploration supersedes the
                        // stored claim entirely.
                        entry.remaining = remaining;
                        entry.sleep = sleep.keys().copied().collect();
                    } else if remaining == entry.remaining {
                        // Equal budgets, incomparable sleep sets: the joint
                        // coverage at this depth is the intersection.
                        entry.sleep.retain(|t| sleep.contains_key(t));
                    }
                    // remaining < entry.remaining: keep the stronger stored
                    // claim; this shallower revisit re-explores without
                    // weakening it (lowering the depth or intersecting the
                    // sleep set here would discard coverage the deeper
                    // visit really achieved).
                }
                None => {
                    self.visited.insert(
                        key,
                        VisitEntry {
                            remaining,
                            sleep: sleep.keys().copied().collect(),
                        },
                    );
                }
            }
        }

        if depth >= self.cfg.max_depth {
            self.stats.depth_bound_hits += 1;
            return Ok(());
        }

        let steps = world.enabled();
        let quiescent = !steps.iter().any(|s| !s.is_fault());
        if quiescent {
            self.stats.quiescent_paths += 1;
            if self.cfg.check_deadlock && !faulty {
                let starving = world.starving();
                if !starving.is_empty() {
                    return Err(Found {
                        kind: ViolationKind::Deadlock { starving },
                        steps: path.clone(),
                    });
                }
            }
        }

        // Transitions explored from this state so far; later siblings may
        // sleep them if independent.
        let mut explored: Vec<(u64, NodeId)> = Vec::new();
        for &step in steps.iter().filter(|s| !s.is_fault()) {
            let (tid, target) = transition_id(world, step).expect("non-fault steps have ids");
            if self.cfg.sleep_sets && sleep.contains_key(&tid) {
                self.stats.sleep_pruned += 1;
                continue;
            }
            let mut next = world.clone();
            let (_events, violation) = next.apply(step).expect("enabled step applies");
            path.push(step);
            if let Some(kind) = violation {
                return Err(Found {
                    kind,
                    steps: path.clone(),
                });
            }
            let child_sleep: HashMap<u64, NodeId> = if self.cfg.sleep_sets {
                // Inherited sleepers plus already-explored siblings, minus
                // anything dependent on (same target as) the step taken.
                sleep
                    .iter()
                    .map(|(k, t)| (*k, *t))
                    .chain(explored.iter().copied())
                    .filter(|(_, t)| *t != target)
                    .collect()
            } else {
                HashMap::new()
            };
            self.dfs(&next, depth + 1, &child_sleep, path, faulty)?;
            path.pop();
            explored.push((tid, target));
        }

        for &step in steps.iter().filter(|s| s.is_fault()) {
            self.stats.fault_branches += 1;
            let mut next = world.clone();
            let (_events, violation) = next.apply(step).expect("enabled step applies");
            path.push(step);
            if let Some(kind) = violation {
                return Err(Found {
                    kind,
                    steps: path.clone(),
                });
            }
            self.dfs(&next, depth + 1, &HashMap::new(), path, true)?;
            path.pop();
        }
        Ok(())
    }
}

/// The stateful model checker: a depth-first search over scheduling
/// decisions with visited-state deduplication, sleep-set reduction, and
/// budgeted fault branching.
pub struct Explorer {
    cfg: ExploreConfig,
    obs: Option<Obs>,
}

impl std::fmt::Debug for Explorer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Explorer")
            .field("cfg", &self.cfg)
            .field("obs", &self.obs.is_some())
            .finish()
    }
}

impl Explorer {
    /// Creates an explorer with the given configuration.
    pub fn new(cfg: ExploreConfig) -> Self {
        Explorer { cfg, obs: None }
    }

    /// Attaches an observability handle: a found violation emits its
    /// shrunk [`Schedule`] (and a `violation` summary event) through it,
    /// landing in any attached flight recorder for later
    /// [`Schedule::from_events`] reconstruction.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Explores an `n`-node system in which `requesters` issue one
    /// critical-section request each at time zero.
    ///
    /// Returns exploration statistics, or the first [`Violation`] found
    /// (with a shrunk, replayable counterexample schedule).
    ///
    /// # Errors
    ///
    /// Returns `Err(Violation)` when some schedule puts two nodes inside
    /// their critical sections simultaneously, or (with
    /// [`ExploreConfig::check_deadlock`]) starves a requester on a
    /// fault-free path.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or a requester index is out of range.
    // A `Violation` is a full counterexample schedule; it is large by
    // design and returned exactly once per search.
    #[allow(clippy::result_large_err)]
    pub fn check<F>(
        self,
        factory: F,
        n: usize,
        requesters: &[usize],
    ) -> Result<ExploreStats, Violation>
    where
        F: ProtocolFactory,
        F::Node: Protocol + Clone,
    {
        self.run(&factory, n, requesters, None)
    }

    /// Like [`Explorer::check`], but also returns the set of protocol
    /// fingerprints of every visited state — the reduction-soundness
    /// differential compares these sets across configurations.
    pub fn check_with_fingerprints<F>(
        self,
        factory: &F,
        n: usize,
        requesters: &[usize],
    ) -> (Result<ExploreStats, Violation>, BTreeSet<u64>)
    where
        F: ProtocolFactory,
        F::Node: Protocol + Clone,
    {
        let mut fps = BTreeSet::new();
        let result = self.run(factory, n, requesters, Some(&mut fps));
        (result, fps)
    }

    #[allow(clippy::result_large_err)]
    fn run<F>(
        self,
        factory: &F,
        n: usize,
        requesters: &[usize],
        fingerprints: Option<&mut BTreeSet<u64>>,
    ) -> Result<ExploreStats, Violation>
    where
        F: ProtocolFactory,
        F::Node: Protocol + Clone,
    {
        let (world, _boot_events, boot_violation) =
            World::boot(factory, n, requesters, self.cfg.faults);
        let algorithm = world.algorithm().to_owned();
        let mut stats = ExploreStats::default();
        let found = if let Some(kind) = boot_violation {
            Some(Found {
                kind,
                steps: Vec::new(),
            })
        } else {
            let mut search = Search {
                cfg: self.cfg,
                stats,
                visited: HashMap::new(),
                fingerprints,
            };
            let outcome = search.dfs(&world, 0, &HashMap::new(), &mut Vec::new(), false);
            stats = search.stats;
            outcome.err()
        };
        match found {
            None => Ok(stats),
            Some(found) => {
                let mut schedule = Schedule {
                    algorithm,
                    n,
                    requesters: requesters.to_vec(),
                    faults: self.cfg.faults,
                    steps: found.steps,
                };
                if self.cfg.shrink {
                    schedule = shrink_schedule(factory, &schedule, &found.kind);
                }
                let violation = Violation {
                    kind: found.kind,
                    schedule,
                };
                if let Some(obs) = &self.obs {
                    obs.emit(
                        Event::new("explore", Level::Info, "violation")
                            .field("detail", &violation.to_string()),
                    );
                    violation.schedule.emit(obs);
                }
                Err(violation)
            }
        }
    }
}

/// Shrinks `schedule` to a locally-minimal counterexample that still
/// exhibits a violation of the same class as `kind`, by greedy
/// delta-debugging: repeatedly delete step chunks (halving the chunk size
/// down to single steps) and keep any candidate whose replay still
/// reproduces. On return, deleting any single remaining step breaks the
/// reproduction.
pub fn shrink_schedule<F>(factory: &F, schedule: &Schedule, kind: &ViolationKind) -> Schedule
where
    F: ProtocolFactory,
    F::Node: Protocol + Clone,
{
    let reproduces = |s: &Schedule| replay(factory, s).reproduces(kind);
    let mut current = schedule.clone();
    if current.steps.is_empty() {
        return current;
    }
    debug_assert!(
        reproduces(&current),
        "shrink input must itself reproduce the violation"
    );
    let mut chunk = (current.steps.len() / 2).max(1);
    loop {
        let mut improved = false;
        let mut i = 0;
        while i < current.steps.len() {
            let mut candidate = current.clone();
            let end = (i + chunk).min(candidate.steps.len());
            candidate.steps.drain(i..end);
            if reproduces(&candidate) {
                current = candidate;
                improved = true;
                // The next chunk shifted into position `i`; retry there.
            } else {
                i += 1;
            }
        }
        if chunk == 1 && !improved {
            return current;
        }
        if !improved {
            chunk = (chunk / 2).max(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::replay;
    use tokq_protocol::centralized::CentralConfig;
    use tokq_protocol::ricart_agrawala::RaConfig;
    use tokq_protocol::suzuki_kasami::SkConfig;

    fn small() -> ExploreConfig {
        ExploreConfig {
            max_depth: 20,
            max_states: 400_000,
            ..ExploreConfig::default()
        }
    }

    #[test]
    fn ricart_agrawala_exhaustively_safe_2_requesters() {
        let stats = Explorer::new(small())
            .check(RaConfig, 3, &[0, 1])
            .expect("RA must be safe under all interleavings");
        assert!(stats.states_explored > 10);
        assert!(stats.quiescent_paths > 0);
        assert!(!stats.truncated);
    }

    #[test]
    fn suzuki_kasami_exhaustively_safe() {
        let stats = Explorer::new(small())
            .check(SkConfig::default(), 3, &[1, 2])
            .expect("SK must be safe under all interleavings");
        assert!(stats.states_explored > 10);
    }

    #[test]
    fn centralized_exhaustively_safe() {
        let stats = Explorer::new(small())
            .check(CentralConfig::default(), 3, &[0, 1, 2])
            .expect("centralized must be safe");
        assert!(stats.quiescent_paths > 0);
    }

    #[test]
    fn reduction_prunes_but_naive_agrees() {
        let naive = Explorer::new(ExploreConfig {
            max_depth: 12,
            ..ExploreConfig::naive()
        });
        let reduced = Explorer::new(ExploreConfig {
            max_depth: 12,
            check_deadlock: false,
            ..ExploreConfig::default()
        });
        let (r_naive, fp_naive) = naive.check_with_fingerprints(&RaConfig, 3, &[0, 1]);
        let (r_reduced, fp_reduced) = reduced.check_with_fingerprints(&RaConfig, 3, &[0, 1]);
        let s_naive = r_naive.expect("safe");
        let s_reduced = r_reduced.expect("safe");
        assert_eq!(fp_naive, fp_reduced, "reduction must preserve coverage");
        assert!(
            s_reduced.states_explored < s_naive.states_explored,
            "reduction must prune: naive {} vs reduced {}",
            s_naive.states_explored,
            s_reduced.states_explored
        );
        assert!(s_reduced.dedup_hits > 0);
        assert!(s_reduced.sleep_pruned > 0);
    }

    /// A deliberately broken protocol: grants itself the CS on request and
    /// also grants anyone who asks, with no coordination.
    #[derive(Clone, Hash)]
    struct Broken {
        id: NodeId,
        n: usize,
    }
    #[derive(Clone, Debug, PartialEq, Hash)]
    struct Nothing;
    impl tokq_protocol::api::ProtocolMessage for Nothing {
        fn kind(&self) -> &'static str {
            "NOTHING"
        }
    }
    impl Protocol for Broken {
        type Msg = Nothing;
        type Timer = u8;
        fn id(&self) -> NodeId {
            self.id
        }
        fn num_nodes(&self) -> usize {
            self.n
        }
        fn step(&mut self, input: Input<Nothing, u8>) -> Vec<Action<Nothing, u8>> {
            match input {
                Input::RequestCs => vec![Action::EnterCs],
                _ => vec![],
            }
        }
        fn holds_token(&self) -> bool {
            true
        }
        fn algorithm(&self) -> &'static str {
            "broken"
        }
        fn fingerprint(&self, mut h: &mut dyn std::hash::Hasher) {
            Hash::hash(self, &mut h);
        }
    }
    struct BrokenFactory;
    impl ProtocolFactory for BrokenFactory {
        type Node = Broken;
        fn build(&self, id: NodeId, n: usize) -> Broken {
            Broken { id, n }
        }
    }

    #[test]
    fn explorer_catches_broken_protocol() {
        let err = Explorer::new(small())
            .check(BrokenFactory, 2, &[0, 1])
            .expect_err("two unconditional grants must collide");
        let ViolationKind::MutualExclusion { first, second } = &err.kind else {
            panic!("expected mutual-exclusion violation, got {err}");
        };
        assert_ne!(first, second);
        let msg = err.to_string();
        assert!(msg.contains("mutual exclusion violated"), "{msg}");
        // The violation happens during boot: minimal schedule is empty,
        // and replay reproduces it.
        assert!(err.schedule.steps.is_empty());
        assert!(replay(&BrokenFactory, &err.schedule).reproduces(&err.kind));
    }

    #[test]
    fn fault_branching_respects_budgets() {
        let cfg = ExploreConfig {
            max_depth: 10,
            check_deadlock: false,
            ..ExploreConfig::default()
        }
        .with_faults(FaultBudget {
            crashes: 1,
            recoveries: 1,
            drops: 1,
            duplicates: 1,
            drop_any: true,
        });
        let stats = Explorer::new(cfg)
            .check(SkConfig::default(), 2, &[1])
            .expect("SK is safe under single crash/drop/duplicate");
        assert!(stats.fault_branches > 0, "fault branches must be explored");
    }
}
