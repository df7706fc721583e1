//! TCP transport: the cluster's nodes exchange frames over real loopback
//! (or LAN) sockets instead of in-process channels.
//!
//! The framing is `[u32 len][u32 sender][payload]` (big-endian), with the
//! payload being the [`crate::wire`] encoding of the protocol message —
//! including its shard tag, so the frames of every shard of a sharded
//! cluster interleave on one socket per peer and the receiving node loop
//! routes each to its protocol instance.
//!
//! # Send pipeline
//!
//! The protocol thread never touches a socket. [`Wire::send`] only
//! enqueues the frame into a bounded per-peer outbox (drop-oldest on
//! overflow, counted in `tcp_frames_abandoned`) and kicks that peer's
//! dedicated writer thread. The writer owns the connection outright: it
//! connects lazily, coalesces everything queued into a single buffered
//! write per wakeup (one syscall for a batch of header+frame pairs
//! instead of two `write_all`s per frame), and on failure parks the
//! unsent tail and backs off exponentially with jitter
//! ([`BackoffPolicy`]). There is no timed polling: writers sleep on their
//! kick channel and wake on new frames, on the backoff deadline, or on a
//! fault-panel transition. A dead or slow peer therefore costs its own
//! writer thread some blocking time — never the protocol thread, and
//! never the other peers' links.
//!
//! Partitions come from the shared [`FaultPanel`], consulted by the
//! writer at flush time — the moment the frame would enter the network.
//! A blocked link holds its frames (and every later frame on the same
//! link, preserving per-link order) in the outbox; a heal wakes the
//! writer, which drains them in order. Injected panel loss, by contrast,
//! drops a frame outright, rolled exactly once per frame at its first
//! flush attempt (TCP cannot resurrect a frame the application never
//! wrote), mirroring the simulator's loss semantics. Only queue overflow
//! abandons frames (oldest first) — sustained unreachability then
//! degrades to the lossy-network behaviour the fault-tolerant protocol
//! configuration already handles.

use std::collections::VecDeque;
use std::io::{Read, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use tokq_obs::{Counter, Gauge, Histogram, Obs, Source};
use tokq_protocol::rng::SharedRng;
use tokq_protocol::types::NodeId;

use crate::fault::FaultPanel;
use crate::node::NodeEvent;
use crate::transport::{Envelope, Wire};

/// Maximum accepted frame payload (a PRIVILEGE for thousands of nodes is
/// far below this; anything bigger is corruption).
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// How long reader threads wait on a quiet socket before re-checking the
/// receiver's stop flag; bounds how long `TcpReceiver::shutdown` blocks.
const READ_TICK: Duration = Duration::from_millis(100);

/// Cap on the accept-error backoff (EMFILE and friends must not spin the
/// accept thread at 100% CPU, but recovery should still be prompt).
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(100);

/// Upper bound on one blocking socket write; a peer that accepts the
/// connection but never drains is treated as failed (frames park and the
/// writer backs off) instead of pinning its writer thread forever.
const WRITE_STALL_TIMEOUT: Duration = Duration::from_secs(2);

/// Reconnect/backoff behaviour of a [`TcpSender`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackoffPolicy {
    /// Delay before the first retry after a send failure.
    pub base: Duration,
    /// Upper bound on the backoff delay.
    pub max: Duration,
    /// Uniform jitter added to each delay, as a fraction of the delay
    /// (`0.5` adds up to +50%). Decorrelates reconnect storms when many
    /// peers fail at once.
    pub jitter: f64,
    /// Per-peer outbox bound; overflow drops the oldest frame.
    pub queue_cap: usize,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base: Duration::from_millis(10),
            max: Duration::from_secs(1),
            jitter: 0.5,
            queue_cap: 512,
        }
    }
}

impl BackoffPolicy {
    /// The delay following `current` in the exponential schedule.
    fn next_delay(&self, current: Duration) -> Duration {
        if current.is_zero() {
            self.base
        } else {
            (current * 2).min(self.max)
        }
    }
}

/// A frame parked in a peer's outbox.
struct QueuedFrame {
    env: Envelope,
    /// Whether this frame was already counted in `tcp_frames_requeued`.
    /// Set on the first flush attempt that could not send it (failed
    /// write or blocked link); later re-parks are not recounted, so the
    /// counter reads "frames that ever had to wait", matching the old
    /// send-path semantics.
    requeued: bool,
    /// Whether injected loss was already rolled for this frame. Loss is
    /// evaluated at flush time but exactly once per frame, so retries do
    /// not compound the configured probability.
    loss_rolled: bool,
}

/// The outbox shared between the enqueuing protocol threads and one
/// writer thread. The mutex is held only for queue surgery
/// (push/pop/trim) — never across a connect or write syscall.
struct PeerOutbox {
    queue: Mutex<VecDeque<QueuedFrame>>,
    /// Frames logically pending for this peer: queued plus popped into a
    /// writer's in-flight batch. Kept outside the queue so
    /// `pending_frames` and the overflow check see in-flight frames too.
    depth: AtomicUsize,
    /// Wakes the peer's writer thread.
    kick: Sender<()>,
}

/// Connection state owned exclusively by one writer thread — no lock
/// guards it because nothing else may touch the socket.
struct WriterConn {
    conn: Option<TcpStream>,
    /// Current backoff delay; zero while the link is healthy.
    delay: Duration,
    /// Earliest instant the writer may retry after a failure.
    next_attempt: Instant,
    /// Whether a connection was ever established (distinguishes
    /// reconnects from first connects).
    ever_connected: bool,
    /// Reusable coalescing buffer: header+frame pairs for a whole batch.
    buf: Vec<u8>,
    /// End offset of each frame within `buf`, for partial-write
    /// accounting.
    bounds: Vec<usize>,
}

impl WriterConn {
    fn new() -> Self {
        WriterConn {
            conn: None,
            delay: Duration::ZERO,
            next_attempt: Instant::now(),
            ever_connected: false,
            buf: Vec::new(),
            bounds: Vec::new(),
        }
    }
}

/// What a flush pass left behind, deciding how the writer sleeps.
enum FlushState {
    /// Outbox empty: sleep until kicked.
    Idle,
    /// Frames held behind blocked links only: sleep until kicked (the
    /// fault panel kicks on every transition, so a heal wakes us).
    Parked,
    /// A send failed: sleep until the backoff deadline or a kick.
    Backoff(Instant),
}

struct SenderInner {
    addrs: Vec<SocketAddr>,
    peers: Vec<PeerOutbox>,
    policy: BackoffPolicy,
    connect_timeout: Duration,
    panel: FaultPanel,
    stop: AtomicBool,
    /// Stream for backoff jitter.
    rng: SharedRng,
    /// Successful outbound connection establishments (incl. reconnects).
    connects: Counter,
    /// Connection establishments after a previous failure or disconnect.
    reconnects: Counter,
    /// Frames that had to wait in an outbox past their first flush
    /// attempt (failed send or blocked link), counted once per frame.
    frames_requeued: Counter,
    /// Frames dropped because an outbox overflowed its bound.
    frames_abandoned: Counter,
    /// Frames currently pending across all outboxes.
    outbox_depth: Gauge,
    /// Frames coalesced into each successful batch write.
    frames_per_flush: Histogram,
    /// Nanoseconds the caller spends inside `Wire::send` (enqueue only).
    enqueue_ns: Histogram,
}

impl SenderInner {
    fn jittered(&self, delay: Duration) -> Duration {
        if self.policy.jitter <= 0.0 {
            return delay;
        }
        delay + delay.mul_f64(self.policy.jitter * self.rng.next_f64())
    }

    /// Schedules the writer's next retry one backoff step out.
    fn back_off(&self, w: &mut WriterConn) {
        w.delay = self.policy.next_delay(w.delay);
        w.next_attempt = Instant::now() + self.jittered(w.delay);
    }

    /// Removes `n` frames from peer `idx`'s logical depth (sent, dropped
    /// by loss, or abandoned).
    fn sub_depth(&self, idx: usize, n: usize) {
        self.peers[idx].depth.fetch_sub(n, Ordering::Relaxed);
        self.outbox_depth.sub(n as i64);
    }

    /// Counts `f` as requeued exactly once over its lifetime.
    fn mark_requeued(&self, f: &mut QueuedFrame) {
        if !f.requeued {
            f.requeued = true;
            self.frames_requeued.inc();
        }
    }

    /// One flush pass over peer `idx`: repeatedly splits the outbox into
    /// held frames (blocked links, kept in order) and a sendable batch,
    /// and writes the batch as a single coalesced buffer. Returns how the
    /// writer should sleep.
    fn flush_peer(&self, idx: usize, w: &mut WriterConn) -> FlushState {
        loop {
            if self.stop.load(Ordering::SeqCst) {
                return FlushState::Idle;
            }
            if Instant::now() < w.next_attempt {
                // Inside a backoff window the link is known-bad: leave
                // everything parked until the deadline.
                return if self.peers[idx].queue.lock().is_empty() {
                    FlushState::Idle
                } else {
                    FlushState::Backoff(w.next_attempt)
                };
            }
            let mut batch: Vec<QueuedFrame> = Vec::new();
            let held_any;
            {
                let mut q = self.peers[idx].queue.lock();
                if q.is_empty() {
                    return FlushState::Idle;
                }
                let mut kept: VecDeque<QueuedFrame> = VecDeque::with_capacity(q.len());
                // Source nodes with a held frame earlier in the scan: all
                // their later frames must hold too, so a link healing
                // mid-scan cannot reorder that link's frames.
                let mut held_links: Vec<u32> = Vec::new();
                while let Some(mut f) = q.pop_front() {
                    let from = f.env.from;
                    if held_links.contains(&from.0) || self.panel.is_blocked(from.index(), idx) {
                        self.mark_requeued(&mut f);
                        if !held_links.contains(&from.0) {
                            held_links.push(from.0);
                        }
                        kept.push_back(f);
                    } else if !f.loss_rolled && self.panel.rolls_loss_drop() {
                        self.sub_depth(idx, 1); // injected loss: frame gone
                    } else {
                        f.loss_rolled = true;
                        batch.push(f);
                    }
                }
                held_any = !kept.is_empty();
                *q = kept;
            }
            if batch.is_empty() {
                return if held_any {
                    FlushState::Parked
                } else {
                    FlushState::Idle
                };
            }
            match self.write_batch(idx, w, &batch) {
                Ok(()) => {
                    w.delay = Duration::ZERO;
                    self.sub_depth(idx, batch.len());
                    self.frames_per_flush.record(batch.len() as u64);
                    // Go around: more frames may have queued while the
                    // batch was on the wire.
                }
                Err(sent) => {
                    self.sub_depth(idx, sent);
                    if sent > 0 {
                        self.frames_per_flush.record(sent as u64);
                    }
                    let mut q = self.peers[idx].queue.lock();
                    for mut f in batch.into_iter().skip(sent).rev() {
                        self.mark_requeued(&mut f);
                        q.push_front(f);
                    }
                    // Frames enqueued during the failed write may have
                    // pushed the outbox past its bound: drop-oldest back
                    // under the cap.
                    while self.peers[idx].depth.load(Ordering::Relaxed) > self.policy.queue_cap {
                        if q.pop_front().is_none() {
                            break;
                        }
                        self.sub_depth(idx, 1);
                        self.frames_abandoned.inc();
                    }
                    drop(q);
                    self.back_off(w);
                    return FlushState::Backoff(w.next_attempt);
                }
            }
        }
    }

    /// Connects (if needed) and writes the whole batch as one coalesced
    /// buffer. On failure returns `Err(sent)` with the count of frames
    /// whose bytes were fully accepted; the boundary frame and everything
    /// after it must be retried — a partially-written frame was never
    /// framed on the peer, so resending it cannot duplicate delivery.
    fn write_batch(
        &self,
        idx: usize,
        w: &mut WriterConn,
        batch: &[QueuedFrame],
    ) -> Result<(), usize> {
        if w.conn.is_none() {
            match TcpStream::connect_timeout(&self.addrs[idx], self.connect_timeout) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_write_timeout(Some(WRITE_STALL_TIMEOUT));
                    self.connects.inc();
                    if w.ever_connected {
                        self.reconnects.inc();
                    }
                    w.ever_connected = true;
                    w.conn = Some(stream);
                }
                Err(_) => return Err(0),
            }
        }
        w.buf.clear();
        w.bounds.clear();
        for f in batch {
            w.buf
                .extend_from_slice(&(f.env.frame.len() as u32).to_be_bytes());
            w.buf.extend_from_slice(&f.env.from.0.to_be_bytes());
            w.buf.extend_from_slice(&f.env.frame);
            w.bounds.push(w.buf.len());
        }
        let stream = w.conn.as_mut().expect("just connected");
        let mut off = 0usize;
        let mut failed = false;
        while off < w.buf.len() {
            match stream.write(&w.buf[off..]) {
                Ok(0) => {
                    failed = true;
                    break;
                }
                Ok(n) => off += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    failed = true;
                    break;
                }
            }
        }
        if !failed {
            return Ok(());
        }
        w.conn = None; // reconnect on the next attempt
        Err(w.bounds.iter().filter(|&&b| b <= off).count())
    }

    fn pending_frames(&self) -> usize {
        self.peers
            .iter()
            .map(|p| p.depth.load(Ordering::Relaxed))
            .sum()
    }
}

/// One writer thread per peer: sleeps on the kick channel, flushes on
/// wakeup. Kicks arrive from `Wire::send` (new frame), `shutdown`, and
/// every fault-panel transition (so a heal drains parked frames
/// immediately, with no timed polling anywhere).
fn writer_loop(inner: Arc<SenderInner>, idx: usize, kick: Receiver<()>) {
    let mut w = WriterConn::new();
    loop {
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        let received = match inner.flush_peer(idx, &mut w) {
            FlushState::Idle | FlushState::Parked => {
                kick.recv().map_err(|_| RecvTimeoutError::Disconnected)
            }
            FlushState::Backoff(until) => {
                kick.recv_timeout(until.saturating_duration_since(Instant::now()))
            }
        };
        match received {
            Ok(()) => {
                // Coalesce a kick storm into one flush pass.
                while kick.try_recv().is_ok() {}
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// The sending half: a bounded outbox plus a dedicated writer thread per
/// peer. `send` never performs socket I/O on the calling thread.
pub struct TcpSender {
    inner: Arc<SenderInner>,
    writers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for TcpSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpSender")
            .field("peers", &self.inner.addrs.len())
            .field("pending_frames", &self.inner.pending_frames())
            .finish()
    }
}

impl TcpSender {
    /// A sender that can reach every address in `addrs` (indexed by node).
    pub fn new(addrs: Vec<SocketAddr>) -> Self {
        let panel = FaultPanel::detached(addrs.len());
        Self::with_panel(
            addrs,
            &Obs::disabled(Source::Runtime),
            panel,
            BackoffPolicy::default(),
        )
    }

    /// Full-control constructor: pipeline telemetry recorded into `obs`
    /// (connection churn counters `tcp_connects`, `tcp_reconnects`,
    /// `tcp_frames_requeued`, `tcp_frames_abandoned`, the
    /// `tcp_outbox_depth` gauge, and the `tcp_frames_per_flush` /
    /// `send_enqueue_ns` histograms), an external [`FaultPanel`] (shared
    /// with the fault-injecting side) and an explicit [`BackoffPolicy`].
    /// Spawns one `tokq-tcp-write-<peer>` thread per address.
    pub fn with_panel(
        addrs: Vec<SocketAddr>,
        obs: &Obs,
        panel: FaultPanel,
        policy: BackoffPolicy,
    ) -> Self {
        let mut peers = Vec::with_capacity(addrs.len());
        let mut kick_rxs = Vec::with_capacity(addrs.len());
        for _ in 0..addrs.len() {
            let (tx, rx) = unbounded::<()>();
            peers.push(PeerOutbox {
                queue: Mutex::new(VecDeque::new()),
                depth: AtomicUsize::new(0),
                kick: tx,
            });
            kick_rxs.push(rx);
        }
        let inner = Arc::new(SenderInner {
            addrs,
            peers,
            policy,
            connect_timeout: Duration::from_millis(500),
            panel,
            stop: AtomicBool::new(false),
            rng: SharedRng::new(0x7C9A_B0FF),
            connects: obs.registry().counter("tcp_connects"),
            reconnects: obs.registry().counter("tcp_reconnects"),
            frames_requeued: obs.registry().counter("tcp_frames_requeued"),
            frames_abandoned: obs.registry().counter("tcp_frames_abandoned"),
            outbox_depth: obs.registry().gauge("tcp_outbox_depth"),
            frames_per_flush: obs.registry().histogram("tcp_frames_per_flush"),
            enqueue_ns: obs.registry().histogram("send_enqueue_ns"),
        });
        // Any fault transition wakes every writer: parked frames drain
        // the instant their link heals.
        let kicks: Vec<Sender<()>> = inner.peers.iter().map(|p| p.kick.clone()).collect();
        inner.panel.add_waker(Box::new(move || {
            for k in &kicks {
                let _ = k.send(());
            }
        }));
        let writers = kick_rxs
            .into_iter()
            .enumerate()
            .map(|(idx, rx)| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("tokq-tcp-write-{idx}"))
                    .spawn(move || writer_loop(inner, idx, rx))
                    .expect("spawn tcp writer thread")
            })
            .collect();
        TcpSender {
            inner,
            writers: Mutex::new(writers),
        }
    }

    /// The fault panel this sender's writers consult on every flush.
    pub fn fault_panel(&self) -> &FaultPanel {
        &self.inner.panel
    }

    /// Frames currently pending (queued or in a writer's in-flight batch)
    /// across all peers.
    pub fn pending_frames(&self) -> usize {
        self.inner.pending_frames()
    }

    /// Stops and joins every writer thread; pending frames are dropped.
    /// Called automatically on drop.
    pub fn shutdown(&self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        for p in &self.inner.peers {
            let _ = p.kick.send(());
        }
        for t in self.writers.lock().drain(..) {
            let _ = t.join();
        }
    }
}

impl Wire for TcpSender {
    fn send(&self, env: Envelope) {
        let started = Instant::now();
        let idx = env.to.index();
        if idx >= self.inner.addrs.len() {
            return; // no such peer: drop, like the channel transport
        }
        let peer = &self.inner.peers[idx];
        {
            let mut q = peer.queue.lock();
            // Drop-oldest at the bound. With every queued frame in a
            // writer's in-flight batch there is nothing to pop; the bound
            // is restored by the writer's post-failure trim.
            if peer.depth.load(Ordering::Relaxed) >= self.inner.policy.queue_cap
                && q.pop_front().is_some()
            {
                self.inner.sub_depth(idx, 1);
                self.inner.frames_abandoned.inc();
            }
            q.push_back(QueuedFrame {
                env,
                requeued: false,
                loss_rolled: false,
            });
            peer.depth.fetch_add(1, Ordering::Relaxed);
            self.inner.outbox_depth.add(1);
        }
        let _ = peer.kick.send(());
        self.inner
            .enqueue_ns
            .record(started.elapsed().as_nanos() as u64);
    }
}

impl Drop for TcpSender {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The receiving half: accepts connections and pumps decoded frames into a
/// node's event inbox.
#[derive(Debug)]
pub struct TcpReceiver {
    local: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    readers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl TcpReceiver {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting; every received frame becomes a [`NodeEvent::Wire`] on
    /// `inbox`.
    ///
    /// # Errors
    ///
    /// Returns any socket-binding error.
    pub(crate) fn bind(addr: SocketAddr, inbox: Sender<NodeEvent>) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));
        let stop2 = Arc::clone(&stop);
        let readers2 = Arc::clone(&readers);
        let accept_thread = std::thread::Builder::new()
            .name("tokq-tcp-accept".into())
            .spawn(move || accept_loop(listener, inbox, stop2, readers2))?;
        Ok(TcpReceiver {
            local,
            stop,
            accept_thread: Some(accept_thread),
            readers,
        })
    }

    /// The actually-bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Stops accepting and joins the accept thread and every reader
    /// thread. Readers poll the stop flag between socket reads (via a
    /// read timeout), so the join completes within one tick even while
    /// peers stay connected.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept() with a dummy connection.
        let _ = TcpStream::connect_timeout(&self.local, Duration::from_millis(200));
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for t in self.readers.lock().drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for TcpReceiver {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    inbox: Sender<NodeEvent>,
    stop: Arc<AtomicBool>,
    readers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    let mut backoff = Duration::from_millis(1);
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                backoff = Duration::from_millis(1);
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                // The timeout lets read_loop notice the stop flag on a
                // quiet connection, so shutdown() can join it.
                let _ = stream.set_read_timeout(Some(READ_TICK));
                let inbox = inbox.clone();
                let stop = Arc::clone(&stop);
                if let Ok(handle) = std::thread::Builder::new()
                    .name("tokq-tcp-read".into())
                    .spawn(move || read_loop(stream, inbox, stop))
                {
                    readers.lock().push(handle);
                }
            }
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                // Persistent accept errors (EMFILE, ENFILE) must not
                // busy-spin this thread at 100% CPU.
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
            }
        }
    }
}

/// Reads exactly `buf.len()` bytes, treating the read timeout installed
/// by the accept loop as a cue to re-check `stop` rather than an error.
/// Returns `false` on EOF, a real error, or shutdown.
fn read_full(stream: &mut TcpStream, buf: &mut [u8], stop: &AtomicBool) -> bool {
    let mut off = 0;
    while off < buf.len() {
        if stop.load(Ordering::SeqCst) {
            return false;
        }
        match stream.read(&mut buf[off..]) {
            Ok(0) => return false,
            Ok(n) => off += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(_) => return false,
        }
    }
    true
}

fn read_loop(mut stream: TcpStream, inbox: Sender<NodeEvent>, stop: Arc<AtomicBool>) {
    let mut header = [0u8; 8];
    loop {
        if !read_full(&mut stream, &mut header, &stop) {
            return;
        }
        let len = u32::from_be_bytes(header[..4].try_into().expect("4 bytes"));
        let from = u32::from_be_bytes(header[4..].try_into().expect("4 bytes"));
        if len > MAX_FRAME {
            return; // corrupt stream: drop the connection
        }
        let mut payload = vec![0u8; len as usize];
        if !read_full(&mut stream, &mut payload, &stop) {
            return;
        }
        if inbox
            .send(NodeEvent::Wire {
                from: NodeId(from),
                frame: Bytes::from(payload),
            })
            .is_err()
        {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;

    fn loopback() -> SocketAddr {
        "127.0.0.1:0".parse().expect("valid addr")
    }

    fn env_to0(from: u32, payload: &[u8]) -> Envelope {
        Envelope {
            from: NodeId(from),
            to: NodeId(0),
            frame: Bytes::copy_from_slice(payload),
        }
    }

    fn recv_frame(rx: &crossbeam::channel::Receiver<NodeEvent>, timeout: Duration) -> Bytes {
        match rx.recv_timeout(timeout).expect("frame") {
            NodeEvent::Wire { frame, .. } => frame,
            other => panic!("unexpected event {other:?}"),
        }
    }

    /// Polls `cond` for up to five seconds; the writer pipeline is
    /// asynchronous, so queue-state assertions need a grace window.
    fn eventually(cond: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        false
    }

    #[test]
    fn frame_roundtrips_over_loopback() {
        let (tx, rx) = unbounded();
        let recv = TcpReceiver::bind(loopback(), tx).expect("bind");
        let sender = TcpSender::new(vec![recv.local_addr()]);
        sender.send(Envelope {
            from: NodeId(7),
            to: NodeId(0),
            frame: Bytes::from_static(b"hello tcp"),
        });
        let ev = rx.recv_timeout(Duration::from_secs(5)).expect("delivered");
        match ev {
            NodeEvent::Wire { from, frame } => {
                assert_eq!(from, NodeId(7));
                assert_eq!(&frame[..], b"hello tcp");
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn many_frames_keep_order_per_connection() {
        let (tx, rx) = unbounded();
        let recv = TcpReceiver::bind(loopback(), tx).expect("bind");
        let sender = TcpSender::new(vec![recv.local_addr()]);
        for i in 0..100u8 {
            sender.send(env_to0(1, &[i]));
        }
        for i in 0..100u8 {
            assert_eq!(recv_frame(&rx, Duration::from_secs(5))[0], i);
        }
    }

    #[test]
    fn send_to_dead_peer_queues_without_blocking() {
        // Bind and immediately shut down to get a dead address.
        let (tx, _rx) = unbounded();
        let mut recv = TcpReceiver::bind(loopback(), tx).expect("bind");
        let addr = recv.local_addr();
        recv.shutdown();
        drop(recv);
        let sender = TcpSender::new(vec![addr]);
        // Must not panic or hang; the frame parks for retry.
        sender.send(env_to0(0, b"x"));
        assert_eq!(sender.pending_frames(), 1);
    }

    #[test]
    fn queue_overflow_abandons_oldest() {
        let (tx, _rx) = unbounded();
        let mut recv = TcpReceiver::bind(loopback(), tx).expect("bind");
        let addr = recv.local_addr();
        recv.shutdown();
        drop(recv);
        let obs = Obs::disabled(Source::Runtime);
        let policy = BackoffPolicy {
            queue_cap: 4,
            ..BackoffPolicy::default()
        };
        let sender = TcpSender::with_panel(vec![addr], &obs, FaultPanel::detached(1), policy);
        for i in 0..10u8 {
            sender.send(env_to0(0, &[i]));
        }
        // The writer trims any transient over-cap backlog on its next
        // failed flush, so poll rather than assert instantaneously.
        assert!(
            eventually(|| {
                sender.pending_frames() <= 4
                    && obs.registry().snapshot().counters["tcp_frames_abandoned"] >= 6
            }),
            "pending={} counters={:?}",
            sender.pending_frames(),
            obs.registry().snapshot().counters
        );
    }

    #[test]
    fn peer_reset_triggers_reconnect_and_redelivery() {
        // Raw listener so the test controls the server side of the
        // connection: accepting and dropping with data unread sends an
        // RST, deterministically killing the sender's cached stream.
        let obs = Obs::disabled(Source::Runtime);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let sender = TcpSender::with_panel(
            vec![addr],
            &obs,
            FaultPanel::detached(1),
            BackoffPolicy {
                base: Duration::from_millis(5),
                ..BackoffPolicy::default()
            },
        );
        sender.send(env_to0(0, b"doomed"));
        let (first_conn, _) = listener.accept().expect("accept");
        drop(first_conn); // unread data → RST
        std::thread::sleep(Duration::from_millis(50));
        // The cached stream is now dead. A write into it can still land in
        // the kernel buffer if the RST races us (that frame is lost — TCP
        // semantics), so send a sacrificial probe first and give the
        // writer a beat to flush it separately; the failing write forces a
        // reconnect and every later frame arrives on the fresh connection.
        sender.send(env_to0(0, b"probe"));
        std::thread::sleep(Duration::from_millis(30));
        sender.send(env_to0(0, b"after reset"));
        let (mut conn, _) = listener.accept().expect("re-accept");
        let mut seen = Vec::new();
        loop {
            let mut header = [0u8; 8];
            conn.read_exact(&mut header).expect("header");
            let len = u32::from_be_bytes(header[..4].try_into().expect("4 bytes")) as usize;
            let mut payload = vec![0u8; len];
            conn.read_exact(&mut payload).expect("payload");
            if payload == b"after reset" {
                break;
            }
            seen.push(payload);
            assert!(seen.len() < 3, "unexpected frames before redelivery");
        }
        let counters = obs.registry().snapshot().counters;
        assert!(counters["tcp_reconnects"] >= 1, "{counters:?}");
        assert_eq!(counters["tcp_connects"], 2, "{counters:?}");
    }

    #[test]
    fn blocked_link_parks_frames_and_heals_in_order() {
        let obs = Obs::disabled(Source::Runtime);
        let (tx, rx) = unbounded();
        let recv = TcpReceiver::bind(loopback(), tx).expect("bind");
        let panel = FaultPanel::detached(2);
        let sender = TcpSender::with_panel(
            vec![recv.local_addr(), recv.local_addr()],
            &obs,
            panel.clone(),
            BackoffPolicy::default(),
        );
        panel.block(1, 0);
        for i in 0..5u8 {
            sender.send(env_to0(1, &[i]));
        }
        assert!(rx.recv_timeout(Duration::from_millis(80)).is_err());
        assert_eq!(sender.pending_frames(), 5);
        panel.heal();
        for i in 0..5u8 {
            assert_eq!(recv_frame(&rx, Duration::from_secs(5))[0], i);
        }
        assert!(eventually(|| sender.pending_frames() == 0));
        assert_eq!(obs.registry().snapshot().counters["tcp_frames_requeued"], 5);
    }

    #[test]
    fn send_stays_enqueue_only_and_batches_coalesce() {
        // Block the link first so every send is a pure enqueue, then heal:
        // the whole backlog must leave in one coalesced batch write.
        let obs = Obs::disabled(Source::Runtime);
        let (tx, rx) = unbounded();
        let recv = TcpReceiver::bind(loopback(), tx).expect("bind");
        let panel = FaultPanel::detached(2);
        let sender = TcpSender::with_panel(
            vec![recv.local_addr(), recv.local_addr()],
            &obs,
            panel.clone(),
            BackoffPolicy::default(),
        );
        panel.block(1, 0);
        for i in 0..32u8 {
            sender.send(env_to0(1, &[i]));
        }
        panel.heal();
        for i in 0..32u8 {
            assert_eq!(recv_frame(&rx, Duration::from_secs(5))[0], i);
        }
        let snap = obs.registry().snapshot();
        let enqueue = &snap.histograms["send_enqueue_ns"];
        assert_eq!(enqueue.count, 32, "every send recorded its enqueue time");
        let per_flush = &snap.histograms["tcp_frames_per_flush"];
        assert!(
            per_flush.max >= 2,
            "parked backlog should coalesce into a multi-frame batch: {per_flush:?}"
        );
        assert!(eventually(|| obs
            .registry()
            .gauge("tcp_outbox_depth")
            .get()
            == 0));
    }

    #[test]
    fn shutdown_joins_writers_promptly_with_dead_peer() {
        let (tx, _rx) = unbounded();
        let mut recv = TcpReceiver::bind(loopback(), tx).expect("bind");
        let addr = recv.local_addr();
        recv.shutdown();
        drop(recv);
        let sender = TcpSender::new(vec![addr]);
        sender.send(env_to0(0, b"x"));
        let started = Instant::now();
        sender.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(3),
            "shutdown hung: {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn receiver_shutdown_joins_readers_with_live_connection() {
        let (tx, _rx) = unbounded();
        let mut recv = TcpReceiver::bind(loopback(), tx).expect("bind");
        // A connected-but-quiet peer used to leave its reader thread
        // blocked in read_exact forever; now readers poll the stop flag.
        let _client = TcpStream::connect(recv.local_addr()).expect("connect");
        std::thread::sleep(Duration::from_millis(30)); // let accept run
        let started = Instant::now();
        recv.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "shutdown hung: {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn oversized_frame_drops_connection_not_process() {
        let (tx, rx) = unbounded();
        let recv = TcpReceiver::bind(loopback(), tx).expect("bind");
        // Hand-craft a corrupt header claiming a gigantic frame.
        let mut s = TcpStream::connect(recv.local_addr()).expect("connect");
        let mut header = [0u8; 8];
        header[..4].copy_from_slice(&u32::MAX.to_be_bytes());
        s.write_all(&header).expect("write");
        // The reader must simply drop the connection; nothing delivered.
        assert!(rx.recv_timeout(Duration::from_millis(300)).is_err());
    }
}
