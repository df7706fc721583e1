//! The discrete-event simulation driver.
//!
//! [`Simulation`] owns `n` protocol state machines, a virtual clock, an
//! event heap, a network model, a workload, and an optional fault plan. It
//! enforces the mutual-exclusion safety property *online*: any overlapping
//! critical sections abort the run immediately.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

use serde::{Deserialize, Serialize};
use tokq_obs::{Obs, Source, TraceKind};
use tokq_protocol::api::{Protocol, ProtocolFactory, ProtocolMessage};
use tokq_protocol::event::{Action, Input};
use tokq_protocol::types::{NodeId, TimeDelta};

use crate::arrivals::{ArrivalProcess, Pacing, WorkloadSpec};
use crate::fault::FaultPlan;
use crate::metrics::{Collector, Report};
use crate::network::{DelayModel, Unreliability};
use crate::rng::SimRng;
use crate::time::SimTime;

/// Static parameters of a simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Number of nodes.
    pub n: usize,
    /// Network delay model (`T_msg`).
    pub delay: DelayModel,
    /// Critical-section execution time (`T_exec`).
    pub t_exec: TimeDelta,
    /// RNG seed; equal seeds give bit-identical runs.
    pub seed: u64,
    /// Base network unreliability.
    pub unreliability: Unreliability,
    /// Critical sections discarded before measurement starts.
    pub warmup_cs: u64,
    /// Hard stop on virtual time, if any.
    pub max_sim_time: Option<SimTime>,
}

impl SimConfig {
    /// The paper's §3.3 parameters: `T_msg = T_exec = 0.1` units on a
    /// reliable network.
    pub fn paper_defaults(n: usize) -> Self {
        SimConfig {
            n,
            delay: DelayModel::paper(),
            t_exec: TimeDelta::from_millis(100),
            seed: 0xB1EF_CAFE,
            unreliability: Unreliability::reliable(),
            warmup_cs: 500,
            max_sim_time: None,
        }
    }

    /// Replaces the seed, returning `self` for chaining.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[derive(Debug)]
enum EventKind<M, T> {
    Deliver { to: NodeId, from: NodeId, msg: M },
    Timer { node: NodeId, timer: T, gen: u64 },
    Arrival { node: NodeId },
    CsExit { node: NodeId, gen: u64 },
    Crash { node: NodeId },
    Recover { node: NodeId },
}

struct HeapEntry<M, T> {
    at: SimTime,
    seq: u64,
    kind: EventKind<M, T>,
}

impl<M, T> PartialEq for HeapEntry<M, T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M, T> Eq for HeapEntry<M, T> {}
impl<M, T> PartialOrd for HeapEntry<M, T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M, T> Ord for HeapEntry<M, T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; reverse for earliest-first, with the
        // insertion sequence as a deterministic tie-break.
        Reverse((self.at, self.seq)).cmp(&Reverse((other.at, other.seq)))
    }
}

struct NodeDriver {
    alive: bool,
    in_cs: bool,
    cs_gen: u64,
    /// (arrived_at, requested_at) of the request inside the protocol.
    outstanding: Option<(SimTime, SimTime)>,
    /// Arrival timestamps waiting to be issued to the protocol.
    app_queue: VecDeque<SimTime>,
    process: Box<dyn ArrivalProcess>,
}

/// A deterministic discrete-event simulation of one protocol instance set.
///
/// # Examples
///
/// ```
/// use tokq_protocol::arbiter::ArbiterConfig;
/// use tokq_simnet::arrivals::Poisson;
/// use tokq_simnet::sim::{SimConfig, Simulation};
///
/// let report = Simulation::build(
///     SimConfig::paper_defaults(5),
///     ArbiterConfig::basic(),
///     Poisson::new(1.0),
/// )
/// .run_until_cs(200);
/// assert!(report.cs_measured >= 200);
/// ```
pub struct Simulation<P: Protocol> {
    cfg: SimConfig,
    nodes: Vec<P>,
    drivers: Vec<NodeDriver>,
    heap: BinaryHeap<HeapEntry<P::Msg, P::Timer>>,
    seq: u64,
    now: SimTime,
    rng: SimRng,
    timer_gen: HashMap<(u32, P::Timer), u64>,
    collector: Collector,
    obs: Obs,
    faults: FaultPlan,
    /// Remaining deterministic token drops: (active_from, remaining).
    token_drops: Vec<(SimTime, u32)>,
    /// Which node is currently inside its critical section, if any.
    cs_holder: Option<NodeId>,
}

impl<P: Protocol> std::fmt::Debug for Simulation<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("n", &self.cfg.n)
            .field("now", &self.now)
            .field("cs_total", &self.collector.cs_total())
            .finish_non_exhaustive()
    }
}

impl<P: Protocol> Simulation<P> {
    /// Builds a simulation over `factory`-built nodes fed by `workload`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.n == 0`.
    pub fn build<F, W>(cfg: SimConfig, factory: F, workload: W) -> Self
    where
        F: ProtocolFactory<Node = P>,
        W: WorkloadSpec,
    {
        assert!(cfg.n > 0, "simulation needs at least one node");
        let nodes = factory.build_all(cfg.n);
        let drivers: Vec<NodeDriver> = (0..cfg.n)
            .map(|i| NodeDriver {
                alive: true,
                in_cs: false,
                cs_gen: 0,
                outstanding: None,
                app_queue: VecDeque::new(),
                process: Box::new(workload.build(i, cfg.n)),
            })
            .collect();
        let collector = Collector::new(cfg.n, cfg.warmup_cs);
        Simulation {
            nodes,
            drivers,
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            timer_gen: HashMap::new(),
            collector,
            obs: Obs::disabled(Source::Sim),
            faults: FaultPlan::none(),
            token_drops: Vec::new(),
            cs_holder: None,
            rng: SimRng::new(cfg.seed).fork(),
            cfg,
        }
    }

    /// Routes every [`TraceKind`] occurrence, boot included, through an
    /// observability handle in the shared [`tokq_obs`] event schema
    /// (stamped with virtual time in the [`Source::Sim`] clock domain),
    /// and records request-to-grant latencies into its `span_ns/cs_grant`
    /// histogram — the same event and metric names the threaded runtime
    /// uses, so sim and runtime output can be compared directly. Attach a
    /// flight recorder to the handle to keep the events.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The observability handle events are routed to.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Installs a fault plan (crashes, loss windows, token drops).
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.token_drops = plan.token_drops().collect();
        self.faults = plan;
        self
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Runs until `target` critical sections have been *measured*
    /// (post-warmup), events run out, or the time bound hits.
    pub fn run_until_cs(mut self, target: u64) -> Report {
        self.pump(|sim| sim.collector.completed_after_warmup() >= target);
        self.finish()
    }

    /// Runs until virtual time `until` (or event exhaustion).
    pub fn run_until_time(mut self, until: SimTime) -> Report {
        self.pump(|sim| sim.now >= until);
        self.finish()
    }

    /// Runs until no events remain (finite workloads only).
    pub fn run_to_quiescence(mut self) -> Report {
        self.pump(|_| false);
        self.finish()
    }

    fn finish(self) -> Report {
        self.collector.finish(self.now, self.cfg.seed)
    }

    // ------------------------------------------------------------------
    // Event machinery
    // ------------------------------------------------------------------

    fn push_event(&mut self, at: SimTime, kind: EventKind<P::Msg, P::Timer>) {
        self.seq += 1;
        self.heap.push(HeapEntry {
            at,
            seq: self.seq,
            kind,
        });
    }

    /// Emits one occurrence to the obs stream when the filter (or the
    /// flight recorder) wants it.
    fn record(&self, node: NodeId, kind: TraceKind) {
        if self.obs.enabled(kind.target(), kind.level()) {
            self.obs.emit_at(self.now.as_secs_f64(), kind.event(node.0));
        }
    }

    /// Boots the system, then runs events until `stop` holds, events run
    /// out, or the time bound hits. Every `run_*` calls this exactly once.
    fn pump(&mut self, stop: impl Fn(&Self) -> bool) {
        // Boot: start every node, seed the first arrival of every stream,
        // then schedule the fault plan's crashes and recoveries.
        for i in 0..self.cfg.n {
            self.dispatch(NodeId::from_index(i), Input::Start);
        }
        for i in 0..self.cfg.n {
            self.schedule_next_arrival(NodeId::from_index(i));
        }
        let node_events: Vec<_> = self.faults.node_events().collect();
        for (at, node, is_crash) in node_events {
            let kind = if is_crash {
                EventKind::Crash { node }
            } else {
                EventKind::Recover { node }
            };
            self.push_event(at, kind);
        }
        if stop(self) {
            return;
        }
        while let Some(entry) = self.heap.pop() {
            if let Some(maxt) = self.cfg.max_sim_time {
                if entry.at > maxt {
                    self.now = maxt;
                    break;
                }
            }
            debug_assert!(entry.at >= self.now, "event heap went backwards");
            self.now = entry.at;
            match entry.kind {
                EventKind::Arrival { node } => self.on_arrival(node),
                EventKind::Deliver { to, from, msg } => {
                    if self.drivers[to.index()].alive {
                        self.record(
                            to,
                            TraceKind::Received {
                                from: from.0,
                                kind: msg.kind(),
                            },
                        );
                        self.dispatch(to, Input::Deliver { from, msg });
                    }
                }
                EventKind::Timer { node, timer, gen } => {
                    let live = self
                        .timer_gen
                        .get(&(node.0, timer))
                        .is_some_and(|&g| g == gen);
                    if live && self.drivers[node.index()].alive {
                        self.dispatch(node, Input::Timer(timer));
                    }
                }
                EventKind::CsExit { node, gen } => self.on_cs_exit(node, gen),
                EventKind::Crash { node } => self.on_crash(node),
                EventKind::Recover { node } => self.on_recover(node),
            }
            if stop(self) {
                break;
            }
        }
    }

    fn on_arrival(&mut self, node: NodeId) {
        let d = &mut self.drivers[node.index()];
        let alive = d.alive;
        if alive {
            self.collector.arrival();
            d.app_queue.push_back(self.now);
            self.record(node, TraceKind::Arrival);
        }
        // Open-loop streams keep their own cadence even across crashes;
        // closed-loop streams re-arm at completion instead.
        if self.drivers[node.index()].process.pacing() == Pacing::OpenLoop {
            self.schedule_next_arrival(node);
        }
        if alive {
            self.try_issue(node);
        }
    }

    fn schedule_next_arrival(&mut self, node: NodeId) {
        let d = &mut self.drivers[node.index()];
        if let Some(delay) = d.process.next_delay(&mut self.rng) {
            let at = self.now + delay;
            self.push_event(at, EventKind::Arrival { node });
        }
    }

    fn try_issue(&mut self, node: NodeId) {
        let d = &mut self.drivers[node.index()];
        if !d.alive || d.in_cs || d.outstanding.is_some() {
            return;
        }
        let Some(arrived_at) = d.app_queue.pop_front() else {
            return;
        };
        d.outstanding = Some((arrived_at, self.now));
        self.dispatch(node, Input::RequestCs);
    }

    fn on_cs_exit(&mut self, node: NodeId, gen: u64) {
        let d = &mut self.drivers[node.index()];
        if !d.alive || !d.in_cs || d.cs_gen != gen {
            return; // stale exit (crash intervened)
        }
        d.in_cs = false;
        debug_assert_eq!(self.cs_holder, Some(node));
        self.cs_holder = None;
        let (arrived_at, requested_at) = d
            .outstanding
            .take()
            .expect("a node in its CS has an outstanding request");
        self.collector
            .cs_completed(node, arrived_at, requested_at, self.now);
        self.record(node, TraceKind::ExitCs);
        self.dispatch(node, Input::CsDone);
        if self.drivers[node.index()].process.pacing() == Pacing::ClosedLoop {
            self.schedule_next_arrival(node);
        }
        self.try_issue(node);
    }

    fn on_crash(&mut self, node: NodeId) {
        let d = &mut self.drivers[node.index()];
        if !d.alive {
            return;
        }
        if d.in_cs {
            d.in_cs = false;
            d.cs_gen += 1;
            self.cs_holder = None;
        }
        d.outstanding = None;
        d.app_queue.clear();
        self.record(node, TraceKind::Crashed);
        self.dispatch(node, Input::Crash);
        self.drivers[node.index()].alive = false;
    }

    fn on_recover(&mut self, node: NodeId) {
        let d = &mut self.drivers[node.index()];
        if d.alive {
            return;
        }
        d.alive = true;
        self.record(node, TraceKind::Recovered);
        self.dispatch(node, Input::Recover);
    }

    fn dispatch(&mut self, node: NodeId, input: Input<P::Msg, P::Timer>) {
        let actions = self.nodes[node.index()].step(input);
        self.execute(node, actions);
    }

    fn execute(&mut self, src: NodeId, actions: Vec<Action<P::Msg, P::Timer>>) {
        for action in actions {
            match action {
                Action::Send { to, msg } => self.transmit(src, to, msg),
                Action::Broadcast { msg, except } => {
                    for i in 0..self.cfg.n {
                        let to = NodeId::from_index(i);
                        if to != src && !except.contains(&to) {
                            self.transmit(src, to, msg.clone());
                        }
                    }
                }
                Action::SetTimer { timer, after } => {
                    let gen = self.timer_gen.entry((src.0, timer)).or_insert(0);
                    *gen += 1;
                    let gen = *gen;
                    self.push_event(
                        self.now + after,
                        EventKind::Timer {
                            node: src,
                            timer,
                            gen,
                        },
                    );
                }
                Action::CancelTimer(timer) => {
                    *self.timer_gen.entry((src.0, timer)).or_insert(0) += 1;
                }
                Action::EnterCs => self.on_enter_cs(src),
                Action::Note(note) => {
                    self.collector.note(note);
                    self.record(src, TraceKind::Note(note.label()));
                }
            }
        }
    }

    fn on_enter_cs(&mut self, node: NodeId) {
        if let Some(holder) = self.cs_holder {
            panic!(
                "MUTUAL EXCLUSION VIOLATED at {}: {} entered while {} is inside \
                 (algorithm {}, seed {})",
                self.now,
                node,
                holder,
                self.nodes[node.index()].algorithm(),
                self.cfg.seed
            );
        }
        self.cs_holder = Some(node);
        let d = &mut self.drivers[node.index()];
        debug_assert!(d.alive, "dead node entered CS");
        d.in_cs = true;
        d.cs_gen += 1;
        let gen = d.cs_gen;
        let (_, requested_at) = d
            .outstanding
            .expect("EnterCs without an outstanding request");
        self.collector.cs_entered(requested_at, self.now);
        let waited_ns = self.now.since(requested_at).as_nanos();
        self.obs.record_latency("cs_grant", waited_ns);
        self.record(node, TraceKind::EnterCs);
        let at = self.now + self.cfg.t_exec;
        self.push_event(at, EventKind::CsExit { node, gen });
    }

    fn transmit(&mut self, from: NodeId, to: NodeId, msg: P::Msg) {
        let kind = msg.kind();
        self.collector.message(kind);
        self.record(from, TraceKind::Sent { to: to.0, kind });
        // Deterministic token-drop injection (paper §6's lost-token case).
        if crate::fault::is_token_kind(kind) {
            for drop in &mut self.token_drops {
                if self.now >= drop.0 && drop.1 > 0 {
                    drop.1 -= 1;
                    return;
                }
            }
        }
        if self.faults.crosses_partition(from, to, self.now) {
            return;
        }
        let loss = self
            .cfg
            .unreliability
            .loss
            .max(self.faults.extra_loss_at(self.now));
        if self.rng.chance(loss) {
            return;
        }
        let duplicate = self
            .rng
            .chance(self.cfg.unreliability.duplication)
            .then(|| msg.clone());
        let delay = self.cfg.delay.sample(&mut self.rng);
        self.push_event(self.now + delay, EventKind::Deliver { to, from, msg });
        if let Some(copy) = duplicate {
            let delay = self.cfg.delay.sample(&mut self.rng);
            self.push_event(
                self.now + delay,
                EventKind::Deliver {
                    to,
                    from,
                    msg: copy,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::{ClosedLoop, Poisson, Scripted};
    use tokq_protocol::centralized::CentralConfig;
    use tokq_protocol::ricart_agrawala::RaConfig;

    fn quick(n: usize) -> SimConfig {
        let mut c = SimConfig::paper_defaults(n).with_seed(42);
        c.warmup_cs = 0;
        c
    }

    #[test]
    fn run_until_cs_reaches_target() {
        let r = Simulation::build(quick(3), CentralConfig::default(), Poisson::new(2.0))
            .run_until_cs(500);
        assert!(r.cs_measured >= 500);
        assert!(r.sim_end_secs > 0.0);
    }

    #[test]
    fn max_sim_time_bounds_the_run() {
        let mut cfg = quick(3);
        cfg.max_sim_time = Some(SimTime::from_secs_f64(10.0));
        let r = Simulation::build(cfg, CentralConfig::default(), Poisson::new(1.0))
            .run_until_cs(1_000_000);
        assert!(r.sim_end_secs <= 10.0 + 1e-9);
        assert!(r.cs_measured < 1_000_000);
    }

    #[test]
    fn warmup_discards_early_sections() {
        let mut cfg = quick(2);
        cfg.warmup_cs = 100;
        let r =
            Simulation::build(cfg, CentralConfig::default(), Poisson::new(5.0)).run_until_cs(200);
        assert!(r.cs_total >= 300, "total includes warmup");
        assert!(r.cs_measured >= 200);
        assert!(r.messages_measured < r.messages_total);
    }

    #[test]
    fn scripted_workload_runs_to_quiescence() {
        use tokq_protocol::types::TimeDelta;
        let w = crate::arrivals::DynWorkload::new(|node, _| {
            if node == 1 {
                Box::new(Scripted::open_loop([TimeDelta::from_millis(10)]))
            } else {
                Box::new(Scripted::silent())
            }
        });
        let r = Simulation::build(quick(3), CentralConfig::default(), w).run_to_quiescence();
        assert_eq!(r.cs_total, 1);
        assert_eq!(r.per_node_cs, vec![0, 1, 0]);
        // Exactly REQUEST + GRANT + RELEASE.
        assert_eq!(r.messages_total, 3);
    }

    #[test]
    fn closed_loop_paces_on_completion() {
        use tokq_protocol::types::TimeDelta;
        let mut cfg = quick(2);
        cfg.max_sim_time = Some(SimTime::from_secs_f64(10.0));
        // Think time 0.9s + CS 0.1s (+ messages) => about 1 CS/sec/node.
        let r = Simulation::build(
            cfg,
            CentralConfig::default(),
            ClosedLoop {
                think: TimeDelta::from_millis(900),
            },
        )
        .run_until_cs(1_000_000);
        let per_sec = r.cs_total as f64 / r.sim_end_secs;
        assert!(
            (1.2..=2.2).contains(&per_sec),
            "closed loop rate {per_sec:.2} CS/s"
        );
    }

    #[test]
    fn loss_makes_permissionless_protocols_stall() {
        // RA with no recovery: a lost REPLY wedges the requester forever.
        let mut cfg = quick(4);
        cfg.unreliability = Unreliability::lossy(0.2);
        cfg.max_sim_time = Some(SimTime::from_secs_f64(2_000.0));
        let r = Simulation::build(cfg, RaConfig, Poisson::new(1.0)).run_until_cs(1_000_000);
        assert!(
            r.cs_measured < 1_000_000,
            "20% loss must eventually stall Ricart-Agrawala"
        );
    }

    #[test]
    fn duplication_does_not_violate_safety_for_centralized() {
        // The centralized coordinator queues duplicates but its single
        // grant token means safety holds; liveness holds because releases
        // regenerate grants.
        let mut cfg = quick(3);
        cfg.unreliability.duplication = 0.3;
        let r =
            Simulation::build(cfg, CentralConfig::default(), Poisson::new(2.0)).run_until_cs(300);
        assert!(r.cs_measured >= 300);
    }

    #[test]
    fn report_counts_messages_by_kind() {
        let r = Simulation::build(quick(3), CentralConfig::default(), Poisson::new(2.0))
            .run_until_cs(100);
        let req = r.kind_count("REQUEST");
        let grant = r.kind_count("GRANT");
        let rel = r.kind_count("RELEASE");
        assert!(req > 0 && grant > 0 && rel > 0);
        // Every remote grant pairs with a release.
        assert!((grant as i64 - rel as i64).abs() <= 1);
    }

    #[test]
    fn trace_capture_returns_events() {
        let obs = Obs::disabled(Source::Sim);
        let recorder = obs.attach_flight_recorder(4096, tokq_obs::Level::Trace);
        let r = Simulation::build(quick(2), CentralConfig::default(), Poisson::new(2.0))
            .with_obs(obs)
            .run_until_cs(20);
        assert!(r.cs_measured >= 20);
        let rendered = tokq_obs::timeline(&recorder.snapshot());
        assert!(rendered.contains("ENTERS"), "{rendered}");
    }
}
