//! In-process transports moving encoded frames between node threads.
//!
//! Transports are **shard-oblivious**: a frame is an opaque byte string
//! whose [`crate::wire`] header already carries the shard tag, so one
//! transport mesh serves every protocol instance of a sharded cluster and
//! demultiplexing happens in the node event loop, not here.
//!
//! The default [`ChannelTransport`] delivers frames over crossbeam
//! channels, optionally through a network thread that applies configurable
//! delay and loss — the same unreliability surface the simulator models,
//! but in real time against real threads. On top of the static
//! [`NetOptions`], every frame consults a runtime-mutable
//! [`FaultPanel`]: blocked links (partitions)
//! and injected loss bursts are applied at send time, mirroring the
//! simulator's partition semantics.

use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use tokq_obs::{Counter, Gauge, Obs, Source};
use tokq_protocol::rng::SimRng;
use tokq_protocol::types::NodeId;

use crate::fault::FaultPanel;

/// Network behaviour applied by the transport.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetOptions {
    /// Fixed delivery delay applied to every frame.
    pub delay: Duration,
    /// Additional uniformly-distributed jitter on top of `delay`.
    pub jitter: Duration,
    /// Probability a frame is silently dropped.
    pub loss: f64,
    /// Seed for the loss/jitter stream.
    pub seed: u64,
}

impl Default for NetOptions {
    fn default() -> Self {
        NetOptions {
            delay: Duration::ZERO,
            jitter: Duration::ZERO,
            loss: 0.0,
            seed: 1,
        }
    }
}

impl NetOptions {
    /// Instant, reliable delivery (the default).
    pub fn instant() -> Self {
        Self::default()
    }

    /// Delayed delivery with jitter.
    pub fn delayed(delay: Duration, jitter: Duration) -> Self {
        NetOptions {
            delay,
            jitter,
            ..Self::default()
        }
    }

    /// Lossy delivery.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a probability.
    pub fn lossy(mut self, loss: f64) -> Self {
        assert!((0.0..=1.0).contains(&loss), "loss must be a probability");
        self.loss = loss;
        self
    }
}

/// Anything that can carry an envelope toward its destination node.
///
/// Implemented by the in-process [`ChannelTransport`] and by the TCP
/// transport in [`crate::tcp`]; node event loops are generic over it.
pub trait Wire: Send + Sync + 'static {
    /// Best-effort delivery of one envelope.
    ///
    /// **Must not block the caller on network I/O.** Protocol threads
    /// call this while driving request collection and token forwarding;
    /// an implementation that performs connects or writes inline couples
    /// every shard's latency to the slowest peer. The TCP transport only
    /// enqueues into a bounded per-peer outbox and hands the frame to a
    /// writer thread; the channel transport forwards over an unbounded
    /// in-process channel. Both are O(enqueue) on the calling thread.
    fn send(&self, env: Envelope);
}

/// A frame addressed to a node.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Sender node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Encoded message frame.
    pub frame: Bytes,
}

/// Delivers envelopes to per-node inboxes, applying [`NetOptions`].
///
/// Frames pass through a dedicated network thread when any delay, jitter,
/// or loss is configured; otherwise they are forwarded synchronously.
///
/// An inbox carries any item built from an [`Envelope`] (`T:
/// From<Envelope>`), so a cluster hands its node event inboxes straight to
/// the transport and a frame reaches its node loop in one channel hop.
pub struct ChannelTransport<T = Envelope> {
    direct: Vec<Sender<T>>,
    net_tx: Option<Sender<Envelope>>,
    net_thread: Option<std::thread::JoinHandle<()>>,
    panel: FaultPanel,
}

impl<T> std::fmt::Debug for ChannelTransport<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelTransport")
            .field("nodes", &self.direct.len())
            .field("has_net_thread", &self.net_thread.is_some())
            .finish()
    }
}

struct Delayed {
    due: Instant,
    seq: u64,
    env: Envelope,
}

impl PartialEq for Delayed {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for Delayed {}
impl PartialOrd for Delayed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Delayed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap by due time.
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Transport-level counters the network thread maintains.
struct NetStats {
    /// Frames dropped by simulated loss.
    dropped: Counter,
    /// Frames delivered after their delay elapsed.
    delivered: Counter,
    /// Frames currently queued in the delay heap.
    inflight: Gauge,
}

impl NetStats {
    fn on(obs: &Obs) -> Self {
        NetStats {
            dropped: obs.registry().counter("net_dropped"),
            delivered: obs.registry().counter("net_delivered"),
            inflight: obs.registry().gauge("net_inflight"),
        }
    }
}

impl<T: From<Envelope> + Send + 'static> ChannelTransport<T> {
    /// Builds a transport delivering into `inboxes` under `opts`.
    pub fn new(inboxes: Vec<Sender<T>>, opts: NetOptions) -> Self {
        let panel = FaultPanel::detached(inboxes.len());
        Self::with_panel(inboxes, opts, &Obs::disabled(Source::Runtime), panel)
    }

    /// Like [`ChannelTransport::new`], recording loss/delay counters
    /// (`net_dropped`, `net_delivered`, `net_inflight`) into `obs` and
    /// sharing an externally owned [`FaultPanel`] so partitions and loss
    /// bursts can be injected while the transport runs.
    pub fn with_panel(
        inboxes: Vec<Sender<T>>,
        opts: NetOptions,
        obs: &Obs,
        panel: FaultPanel,
    ) -> Self {
        let needs_thread =
            opts.delay > Duration::ZERO || opts.jitter > Duration::ZERO || opts.loss > 0.0;
        if !needs_thread {
            return ChannelTransport {
                direct: inboxes,
                net_tx: None,
                net_thread: None,
                panel,
            };
        }
        let stats = NetStats::on(obs);
        let (tx, rx) = unbounded::<Envelope>();
        let thread_panel = panel.clone();
        let thread = std::thread::Builder::new()
            .name("tokq-net".into())
            .spawn(move || net_thread(rx, inboxes, opts, stats, thread_panel))
            .expect("spawn network thread");
        ChannelTransport {
            direct: Vec::new(),
            net_tx: Some(tx),
            net_thread: Some(thread),
            panel,
        }
    }

    /// Sends one envelope; delivery is best-effort (dead inboxes,
    /// simulated losses, and faulted links are silently dropped).
    pub fn send(&self, env: Envelope) {
        if let Some(tx) = &self.net_tx {
            let _ = tx.send(env);
        } else {
            if !self.panel.admits(env.from.index(), env.to.index()) {
                return;
            }
            if let Some(inbox) = self.direct.get(env.to.index()) {
                let _ = inbox.send(env.into());
            }
        }
    }
}

impl<T> ChannelTransport<T> {
    /// The fault panel this transport consults on every frame.
    pub fn fault_panel(&self) -> &FaultPanel {
        &self.panel
    }

    /// Stops the network thread (if any), dropping queued frames.
    pub fn shutdown(&mut self) {
        self.net_tx = None;
        if let Some(t) = self.net_thread.take() {
            let _ = t.join();
        }
    }
}

impl<T: From<Envelope> + Send + 'static> Wire for ChannelTransport<T> {
    fn send(&self, env: Envelope) {
        ChannelTransport::send(self, env);
    }
}

impl<T> Drop for ChannelTransport<T> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn net_thread<T: From<Envelope>>(
    rx: Receiver<Envelope>,
    inboxes: Vec<Sender<T>>,
    opts: NetOptions,
    stats: NetStats,
    panel: FaultPanel,
) {
    let mut heap: BinaryHeap<Delayed> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut rng = SimRng::new(opts.seed);
    loop {
        // Deliver everything due.
        let now = Instant::now();
        while heap.peek().is_some_and(|d| d.due <= now) {
            let d = heap.pop().expect("peeked");
            stats.inflight.sub(1);
            stats.delivered.inc();
            if let Some(inbox) = inboxes.get(d.env.to.index()) {
                let _ = inbox.send(d.env.into());
            }
        }
        let wait = heap
            .peek()
            .map(|d| d.due.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_millis(50));
        match rx.recv_timeout(wait) {
            Ok(env) => {
                if !panel.admits(env.from.index(), env.to.index()) {
                    continue;
                }
                if opts.loss > 0.0 && rng.next_f64() < opts.loss {
                    stats.dropped.inc();
                    continue;
                }
                let jitter = if opts.jitter > Duration::ZERO {
                    opts.jitter.mul_f64(rng.next_f64())
                } else {
                    Duration::ZERO
                };
                seq += 1;
                stats.inflight.add(1);
                heap.push(Delayed {
                    due: Instant::now() + opts.delay + jitter,
                    seq,
                    env,
                });
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                // Flush what remains, then exit.
                while let Some(d) = heap.pop() {
                    std::thread::sleep(d.due.saturating_duration_since(Instant::now()));
                    stats.inflight.sub(1);
                    stats.delivered.inc();
                    if let Some(inbox) = inboxes.get(d.env.to.index()) {
                        let _ = inbox.send(d.env.into());
                    }
                }
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeEvent;

    /// An inbox item the transport delivers into, read back as the sender
    /// and frame it carries. Tests run once per item type: bare envelopes
    /// (a standalone transport) and node events (a cluster's node inboxes).
    trait Inbox: From<Envelope> + Send + 'static {
        fn open(self) -> (NodeId, Bytes);
    }

    impl Inbox for Envelope {
        fn open(self) -> (NodeId, Bytes) {
            (self.from, self.frame)
        }
    }

    impl Inbox for NodeEvent {
        fn open(self) -> (NodeId, Bytes) {
            match self {
                NodeEvent::Wire { from, frame } => (from, frame),
                other => panic!("frame arrived as {other:?}, not NodeEvent::Wire"),
            }
        }
    }

    /// A transport with one inbox (node 0) and that inbox's receiver.
    fn one_inbox<T: Inbox>(opts: NetOptions) -> (ChannelTransport<T>, Receiver<T>) {
        let (tx, rx) = unbounded();
        (ChannelTransport::new(vec![tx], opts), rx)
    }

    fn env(from: u32, to: u32, payload: &[u8]) -> Envelope {
        Envelope {
            from: NodeId(from),
            to: NodeId(to),
            frame: Bytes::copy_from_slice(payload),
        }
    }

    #[test]
    fn direct_transport_delivers_synchronously() {
        fn check<T: Inbox>() {
            let (t, rx) = one_inbox::<T>(NetOptions::instant());
            t.send(env(0, 0, b"hello"));
            let (from, frame) = rx.try_recv().expect("delivered").open();
            assert_eq!((from, &frame[..]), (NodeId(0), &b"hello"[..]));
        }
        check::<Envelope>();
        check::<NodeEvent>();
    }

    #[test]
    fn delayed_transport_takes_time() {
        let (t, rx) = one_inbox::<Envelope>(NetOptions::delayed(
            Duration::from_millis(30),
            Duration::ZERO,
        ));
        let start = Instant::now();
        t.send(env(0, 0, b"x"));
        let got = rx.recv_timeout(Duration::from_secs(2)).expect("delivered");
        assert_eq!(&got.frame[..], b"x");
        assert!(
            start.elapsed() >= Duration::from_millis(25),
            "took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn total_loss_drops_everything() {
        let (t, rx) = one_inbox::<Envelope>(NetOptions::instant().lossy(1.0));
        for _ in 0..10 {
            t.send(env(0, 0, b"y"));
        }
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
    }

    #[test]
    fn out_of_range_destination_is_ignored() {
        let (t, rx) = one_inbox::<Envelope>(NetOptions::instant());
        t.send(env(0, 5, b"z"));
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn blocked_link_drops_on_direct_path_and_heals() {
        fn check<T: Inbox>() {
            let (t, rx) = one_inbox::<T>(NetOptions::instant());
            t.fault_panel().block(0, 0);
            t.send(env(0, 0, b"cut"));
            assert!(rx.try_recv().is_err());
            assert_eq!(t.fault_panel().blocked_drops(), 1);
            t.fault_panel().heal();
            t.send(env(0, 0, b"whole"));
            assert_eq!(&rx.try_recv().expect("healed").open().1[..], b"whole");
        }
        check::<Envelope>();
        check::<NodeEvent>();
    }

    #[test]
    fn blocked_link_drops_through_net_thread() {
        fn check<T: Inbox>() {
            let (t, rx) = one_inbox::<T>(NetOptions::delayed(
                Duration::from_millis(1),
                Duration::ZERO,
            ));
            t.fault_panel().block(0, 0);
            t.send(env(0, 0, b"cut"));
            assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
            t.fault_panel().heal();
            t.send(env(0, 0, b"whole"));
            let got = rx.recv_timeout(Duration::from_secs(2)).expect("healed");
            assert_eq!(&got.open().1[..], b"whole");
        }
        check::<Envelope>();
        check::<NodeEvent>();
    }

    #[test]
    fn injected_total_loss_drops_everything_until_cleared() {
        let (t, rx) = one_inbox::<Envelope>(NetOptions::instant());
        t.fault_panel().set_loss(1.0);
        for _ in 0..10 {
            t.send(env(0, 0, b"y"));
        }
        assert!(rx.try_recv().is_err());
        t.fault_panel().set_loss(0.0);
        t.send(env(0, 0, b"z"));
        assert!(rx.try_recv().is_ok());
    }

    /// Frames from two senders interleave into one inbox; each link's
    /// frames arrive in the order they were sent, on the direct path and
    /// through the delaying network thread alike.
    #[test]
    fn ordering_preserved_with_constant_delay() {
        fn check<T: Inbox>(opts: NetOptions) {
            let (t, rx) = one_inbox::<T>(opts);
            for i in 0..20u8 {
                t.send(env(u32::from(i % 2), 0, &[i]));
            }
            let mut per_link = [Vec::new(), Vec::new()];
            for _ in 0..20 {
                let (from, frame) = rx.recv_timeout(Duration::from_secs(2)).unwrap().open();
                per_link[from.index()].push(frame[0]);
            }
            let evens: Vec<u8> = (0..20).step_by(2).collect();
            let odds: Vec<u8> = (1..20).step_by(2).collect();
            assert_eq!(per_link, [evens, odds], "under {opts:?}");
        }
        let delayed = NetOptions::delayed(Duration::from_millis(5), Duration::ZERO);
        for opts in [NetOptions::instant(), delayed] {
            check::<Envelope>(opts);
            check::<NodeEvent>(opts);
        }
    }
}
