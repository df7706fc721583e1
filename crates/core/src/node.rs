//! The per-node event loop: drives one [`ArbiterNode`] state machine *per
//! shard* with real messages, real timers, and application lock requests.
//!
//! A node owns `K` independent protocol instances (shards) but a single
//! inbox, a single thread, and a single transport. Like the paper's node
//! process, it reacts to one event at a time in arrival order: every inbox
//! event goes through one `handle` match, and a frame reaches its shard by
//! the shard id in its header. A wake-up handles up to [`BATCH`] queued
//! events before it looks at due timers.

use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::convert::identity;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use tokq_obs::{span, Event, Level, Obs, SpanGuard, TraceKind};
use tokq_protocol::api::{Protocol, ProtocolMessage};
use tokq_protocol::arbiter::{ArbiterMsg, ArbiterNode, ArbiterTimer};
use tokq_protocol::event::{Action, Input, Note};
use tokq_protocol::types::NodeId;

use crate::metrics::ClusterMetrics;
use crate::service::{LockError, ShardId};
use crate::transport::{Envelope, Wire};
use crate::wire;

/// Trace target for the arbiter phase spans.
const T_ARBITER: &str = "arbiter";
/// Trace target for frames the wire layer rejects.
const T_NET: &str = "net";

/// How many queued inbox events one wake-up handles before it checks the
/// timers.
const BATCH: usize = 128;

/// What an [`NodeEvent::Acquire`] waiter eventually hears back: the CS
/// generation of its grant, or a typed refusal.
pub(crate) type GrantReply = Result<u64, LockError>;

/// Events consumed by a node thread.
#[derive(Debug)]
pub(crate) enum NodeEvent {
    /// An encoded protocol frame arrived. The owning shard rides inside
    /// the frame header and is recovered at decode time.
    Wire { from: NodeId, frame: bytes::Bytes },
    /// An application thread wants the lock on `shard`; the sender
    /// receives the grant's CS generation when the critical section is
    /// granted, or a [`LockError`] if it never can be.
    Acquire {
        shard: ShardId,
        grant: Sender<GrantReply>,
    },
    /// The guard was dropped: the critical section on `shard` is over.
    /// Carries the generation the guard was granted under, so a stale
    /// guard from before a crash cannot release somebody else's critical
    /// section.
    Release {
        /// Shard the releasing guard belongs to.
        shard: ShardId,
        /// CS generation the releasing guard was granted under.
        gen: u64,
    },
    /// Simulated process crash (volatile state lost on every shard).
    Crash,
    /// Restart after a crash.
    Recover,
    /// Terminate the event loop.
    Shutdown,
}

/// A frame off the wire enters the node inbox as [`NodeEvent::Wire`]: the
/// channel transport delivers into node inboxes through this conversion.
impl From<Envelope> for NodeEvent {
    fn from(env: Envelope) -> Self {
        NodeEvent::Wire {
            from: env.from,
            frame: env.frame,
        }
    }
}

struct PendingTimer {
    due: Instant,
    gen: u64,
    shard: ShardId,
    timer: ArbiterTimer,
}

impl PartialEq for PendingTimer {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.gen == other.gen && self.shard == other.shard
    }
}
impl Eq for PendingTimer {}
impl PartialOrd for PendingTimer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingTimer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.gen.cmp(&self.gen))
            .then_with(|| other.shard.cmp(&self.shard))
    }
}

/// Per-shard protocol state: one independent arbiter instance plus the
/// lock-service bookkeeping that belongs to it.
struct ShardState {
    protocol: ArbiterNode,
    /// Pending grant channels paired with their acquire time, for the
    /// CS-grant latency histogram. Waiters survive a crash: on recovery
    /// the node re-requests the lock on their behalf.
    waiters: VecDeque<(Sender<GrantReply>, Instant)>,
    /// Open `request_collection` span while this shard's arbiter window
    /// collects requests (closed by the Q-list seal).
    collection_span: Option<SpanGuard>,
    /// Open `forwarding_phase` span while this shard relays late requests
    /// to its successor.
    forwarding_span: Option<SpanGuard>,
    engaged: bool,
    in_cs: bool,
    /// CS generation: bumped on every grant and on every crash, so a
    /// [`NodeEvent::Release`] from a guard granted in an earlier era is
    /// recognized as stale and ignored.
    cs_gen: u64,
}

impl ShardState {
    fn new(protocol: ArbiterNode) -> Self {
        ShardState {
            protocol,
            waiters: VecDeque::new(),
            collection_span: None,
            forwarding_span: None,
            engaged: false,
            in_cs: false,
            cs_gen: 0,
        }
    }
}

pub(crate) struct NodeLoop {
    id: NodeId,
    shards: Vec<ShardState>,
    rx: Receiver<NodeEvent>,
    transport: Arc<dyn Wire>,
    metrics: Arc<ClusterMetrics>,
    obs: Obs,
    n: usize,

    timers: BinaryHeap<PendingTimer>,
    timer_gen: HashMap<(ShardId, ArbiterTimer), u64>,

    alive: bool,
    /// Grants whose waiter had already given up when the critical section
    /// was entered, as `(shard, cs_gen)`: released at the top of the next
    /// loop pass so the token moves on.
    abandoned: VecDeque<(ShardId, u64)>,
}

impl NodeLoop {
    pub(crate) fn new(
        shards: Vec<ArbiterNode>,
        rx: Receiver<NodeEvent>,
        transport: Arc<dyn Wire>,
        metrics: Arc<ClusterMetrics>,
    ) -> Self {
        assert!(!shards.is_empty(), "a node runs at least one shard");
        let id = shards[0].id();
        let n = shards[0].num_nodes();
        let obs = metrics.obs().clone();
        NodeLoop {
            id,
            shards: shards.into_iter().map(ShardState::new).collect(),
            rx,
            transport,
            metrics,
            obs,
            n,
            timers: BinaryHeap::new(),
            timer_gen: HashMap::new(),
            alive: true,
            abandoned: VecDeque::new(),
        }
    }

    pub(crate) fn run(mut self) {
        for s in 0..self.shards.len() {
            self.dispatch(ShardId(s as u16), Input::Start);
        }
        loop {
            while let Some((shard, gen)) = self.abandoned.pop_front() {
                self.release(shard, gen);
            }
            self.fire_due_timers();
            let wait = self
                .timers
                .peek()
                .map(|t| t.due.saturating_duration_since(Instant::now()))
                .unwrap_or(Duration::from_millis(100));
            let first = match self.rx.recv_timeout(wait) {
                Ok(ev) => ev,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return,
            };
            if self.handle(first) {
                return;
            }
            for _ in 1..BATCH {
                let Ok(ev) = self.rx.try_recv() else { break };
                if self.handle(ev) {
                    return;
                }
            }
        }
    }

    /// Handles one inbox event. Returns `true` on shutdown.
    fn handle(&mut self, ev: NodeEvent) -> bool {
        match ev {
            NodeEvent::Wire { from, frame } => self.deliver(from, &frame),
            NodeEvent::Acquire { shard, grant } => self.acquire(shard, grant),
            NodeEvent::Release { shard, gen } => self.release(shard, gen),
            NodeEvent::Crash => self.crash(),
            NodeEvent::Recover => self.recover(),
            NodeEvent::Shutdown => return true,
        }
        false
    }

    /// Decodes a frame and steps its shard, or absorbs the frame like a
    /// lost message (dead-node traffic, corrupt frames, out-of-range
    /// shard ids).
    fn deliver(&mut self, from: NodeId, frame: &[u8]) {
        if !self.alive {
            return;
        }
        self.obs
            .registry()
            .counter("wire_bytes_in")
            .add(frame.len() as u64);
        let (shard, msg) = match wire::decode(frame) {
            Ok((shard, msg)) if shard.index() < self.shards.len() => (shard, msg),
            Ok((shard, _)) => {
                // A frame for a shard this cluster does not run: drop it
                // like a lost message rather than panic.
                self.metrics.note("wire_shard_out_of_range");
                if self.obs.enabled(T_NET, Level::Debug) {
                    self.obs.emit(
                        Event::new(T_NET, Level::Debug, "wire_shard_out_of_range")
                            .node(u64::from(self.id.0))
                            .shard(u64::from(shard.0))
                            .field("from", &from.0),
                    );
                }
                return;
            }
            Err(err) => {
                // A corrupt frame is dropped like a lost message.
                self.metrics.note("wire_decode_error");
                if self.obs.enabled(T_NET, Level::Debug) {
                    self.obs.emit(
                        Event::new(T_NET, Level::Debug, "wire_decode_error")
                            .node(u64::from(self.id.0))
                            .field("from", &from.0)
                            .field("error", &format!("{err:?}")),
                    );
                }
                return;
            }
        };
        let kind = msg.kind();
        self.trace(
            Some(shard),
            TraceKind::Received { from: from.0, kind },
            |ev| ev.field("bytes", &(frame.len() as u64)),
        );
        let hist = self.obs.registry().histogram_with("handle_ns", kind);
        let start = Instant::now();
        self.dispatch(shard, Input::Deliver { from, msg });
        hist.record_duration(start.elapsed());
    }

    /// Queues an application waiter on `shard` and requests the critical
    /// section for it if the shard is idle.
    fn acquire(&mut self, shard: ShardId, grant: Sender<GrantReply>) {
        if shard.index() >= self.shards.len() {
            let _ = grant.send(Err(LockError::ShuttingDown));
            return;
        }
        if !self.alive {
            // New demand on a crashed node fails fast; waiters enqueued
            // *before* the crash still survive it.
            self.metrics.note("acquire_on_crashed_node");
            let _ = grant.send(Err(LockError::NodeDown));
            return;
        }
        self.metrics.cs_requested(shard);
        self.shards[shard.index()]
            .waiters
            .push_back((grant, Instant::now()));
        self.pump_lock(shard);
    }

    /// Ends the critical section on `shard` granted under generation `gen`.
    fn release(&mut self, shard: ShardId, gen: u64) {
        let Some(st) = self.shards.get_mut(shard.index()) else {
            return;
        };
        if gen != st.cs_gen {
            // A guard from before a crash (or an abandoned grant from an
            // earlier era): its critical section no longer exists, so
            // releasing would end somebody else's.
            self.metrics.note("stale_release_ignored");
            return;
        }
        if st.in_cs {
            st.in_cs = false;
            st.engaged = false;
            self.metrics.cs_completed(shard);
            self.trace(Some(shard), TraceKind::ExitCs, identity);
            self.dispatch(shard, Input::CsDone);
            self.pump_lock(shard);
        }
    }

    /// Simulated process crash: volatile state is lost on every shard.
    fn crash(&mut self) {
        if !self.alive {
            return;
        }
        for s in 0..self.shards.len() {
            self.dispatch(ShardId(s as u16), Input::Crash);
        }
        self.alive = false;
        for st in &mut self.shards {
            st.in_cs = false;
            st.engaged = false;
            // Invalidate any outstanding guard: its release (or an
            // in-flight grant consumed late) must not close a
            // post-recovery critical section.
            st.cs_gen += 1;
            // Waiters survive: their application threads are still
            // blocked on the grant channel, so the recovered node
            // re-requests on their behalf instead of stranding them.
            st.collection_span = None;
            st.forwarding_span = None;
        }
        self.timers.clear();
        self.timer_gen.clear();
        self.trace(None, TraceKind::Crashed, identity);
    }

    /// Restart after a crash with fresh state on every shard.
    fn recover(&mut self) {
        if self.alive {
            return;
        }
        self.alive = true;
        self.trace(None, TraceKind::Recovered, identity);
        for s in 0..self.shards.len() {
            self.dispatch(ShardId(s as u16), Input::Recover);
        }
        for s in 0..self.shards.len() {
            let shard = ShardId(s as u16);
            if !self.shards[s].waiters.is_empty() {
                // Re-issue the lock request for waiters that survived the
                // crash, counted separately from fresh demand.
                self.metrics.cs_rerequested(shard);
                self.shards[s].engaged = true;
                self.dispatch(shard, Input::RequestCs);
            }
        }
    }

    fn pump_lock(&mut self, shard: ShardId) {
        let st = &self.shards[shard.index()];
        if self.alive && !st.engaged && !st.in_cs && !st.waiters.is_empty() {
            self.shards[shard.index()].engaged = true;
            self.dispatch(shard, Input::RequestCs);
        }
    }

    fn fire_due_timers(&mut self) {
        loop {
            let now = Instant::now();
            let Some(top) = self.timers.peek() else {
                return;
            };
            if top.due > now {
                return;
            }
            let t = self.timers.pop().expect("peeked");
            let live = self
                .timer_gen
                .get(&(t.shard, t.timer))
                .is_some_and(|&g| g == t.gen);
            if live && self.alive {
                self.dispatch(t.shard, Input::Timer(t.timer));
            }
        }
    }

    fn dispatch(&mut self, shard: ShardId, input: Input<ArbiterMsg, ArbiterTimer>) {
        let actions = self.shards[shard.index()].protocol.step(input);
        self.execute(shard, actions);
    }

    fn execute(&mut self, shard: ShardId, actions: Vec<Action<ArbiterMsg, ArbiterTimer>>) {
        for action in actions {
            match action {
                Action::Send { to, msg } => self.transmit(shard, to, &msg),
                Action::Broadcast { msg, except } => {
                    for i in 0..self.n {
                        let to = NodeId::from_index(i);
                        if to != self.id && !except.contains(&to) {
                            self.transmit(shard, to, &msg);
                        }
                    }
                }
                Action::SetTimer { timer, after } => {
                    let gen = self.timer_gen.entry((shard, timer)).or_insert(0);
                    *gen += 1;
                    self.timers.push(PendingTimer {
                        due: Instant::now() + after.into(),
                        gen: *gen,
                        shard,
                        timer,
                    });
                }
                Action::CancelTimer(timer) => {
                    *self.timer_gen.entry((shard, timer)).or_insert(0) += 1;
                }
                Action::EnterCs => {
                    let st = &mut self.shards[shard.index()];
                    st.in_cs = true;
                    st.cs_gen += 1;
                    let cs_gen = st.cs_gen;
                    match st.waiters.pop_front() {
                        Some((grant, since)) if grant.send(Ok(cs_gen)).is_ok() => {
                            let waited = since.elapsed();
                            self.obs
                                .registry()
                                .histogram_with("span_ns", "cs_grant")
                                .record_duration(waited);
                            self.trace(Some(shard), TraceKind::EnterCs, |ev| {
                                let wait_ns = waited.as_nanos().min(u128::from(u64::MAX)) as u64;
                                ev.field("wait_ns", &wait_ns)
                            });
                        }
                        _ => {
                            // The waiter gave up (timeout) or vanished:
                            // release at the top of the next loop pass so
                            // the token moves on. Releasing here would
                            // re-enter `dispatch` once per abandoned waiter.
                            self.abandoned.push_back((shard, cs_gen));
                        }
                    }
                }
                Action::Note(note) => {
                    self.metrics.note(note.label());
                    self.trace(Some(shard), TraceKind::Note(note.label()), |ev| {
                        ev.field("detail", &note)
                    });
                    // Phase notes open/close wall-clock spans: dropping a
                    // guard emits `span_close` and records the duration in
                    // the `span_ns/<name>` histogram.
                    let st = &mut self.shards[shard.index()];
                    match note {
                        Note::CollectionOpened => {
                            st.collection_span = Some(
                                span!(self.obs, T_ARBITER, "request_collection")
                                    .on_node(u64::from(self.id.0)),
                            );
                        }
                        Note::QListSealed { .. } => st.collection_span = None,
                        Note::ForwardingOpened { .. } => {
                            st.forwarding_span = Some(
                                span!(self.obs, T_ARBITER, "forwarding_phase")
                                    .on_node(u64::from(self.id.0)),
                            );
                        }
                        Note::ForwardingClosed => st.forwarding_span = None,
                        _ => {}
                    }
                }
            }
        }
    }

    fn transmit(&self, shard: ShardId, to: NodeId, msg: &ArbiterMsg) {
        let kind = msg.kind();
        self.metrics.message(shard, kind);
        let frame = wire::encode(shard, msg);
        self.obs
            .registry()
            .counter("wire_bytes_out")
            .add(frame.len() as u64);
        self.trace(Some(shard), TraceKind::Sent { to: to.0, kind }, |ev| {
            ev.field("bytes", &(frame.len() as u64))
        });
        self.transport.send(Envelope {
            from: self.id,
            to,
            frame,
        });
    }

    /// Emits one vocabulary event for this node, tagged with `shard` and
    /// with the runtime-only fields `extra` adds, when obs wants it.
    fn trace(&self, shard: Option<ShardId>, kind: TraceKind, extra: impl FnOnce(Event) -> Event) {
        if self.obs.enabled(kind.target(), kind.level()) {
            let mut ev = kind.event(self.id.0);
            if let Some(shard) = shard {
                ev = ev.shard(u64::from(shard.0));
            }
            self.obs.emit(extra(ev));
        }
    }
}
