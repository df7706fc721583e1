//! `rt_chan` and `rt_tcp`: lock-grant latency on a live 4-node cluster.
//!
//! The cluster runs its default protocol configuration
//! (`ArbiterConfig::fault_tolerant()`: the §4.1 monitor and §6 recovery
//! are on) with only the phase windows scaled to the measured hop. Load is
//! a closed loop of two client threads on one resource; each request's
//! origin node is drawn from the seeded RNG, so nearly every grant moves
//! the token. Every critical section is checked by the runtime's own
//! `SafetyChecker` and bumps a plain (non-atomic read-modify-write)
//! counter that must end equal to the granted locks.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use serde::value::Value;
use tokq_core::{Cluster, LockError, MutexHandle, SafetyChecker};
use tokq_obs::{Obs, Source};
use tokq_protocol::arbiter::ArbiterConfig;
use tokq_protocol::types::TimeDelta;
use tokq_simnet::arrivals::ClosedLoop;
use tokq_simnet::rng::SimRng;
use tokq_simnet::{DelayModel, SimConfig, Simulation};

use crate::layers::{self, Delta, CODEC_KINDS};
use crate::stats::{Latencies, Spans, Windows, WINDOW};
use crate::Outcome;

/// Cluster size.
pub const NODES: usize = 4;
/// Client threads: one closed-loop load generator on at most two CPUs.
const CLIENTS: usize = 2;
/// `T_req`: one paper time unit, taken as the measured client→grant hop
/// on this runtime (a few tens of µs on channels) rounded up.
const T_REQ: Duration = Duration::from_micros(100);
/// `T_fwd`: Eq. 7's drop-free condition asks for at least two hops plus
/// slack; 2 ms leaves room for scheduler jitter on a loaded 2-CPU host.
const T_FWD: Duration = Duration::from_millis(2);
/// The latency limit of one `try_lock_for` call. Healthy grants take well
/// under a millisecond (the slowest of a run a few ms), so 100 ms is far
/// out of the way of normal service. A call that misses it is *late*: the
/// client draws another origin node and asks again, so a stalled request
/// costs the run a tenth of a second instead of a second per client.
const LIMIT: Duration = Duration::from_millis(100);
/// An operation is one lock acquisition, however many calls it takes; it
/// fails if no call was granted within this time from its first call. The
/// protocol's own request retry (2 s) would have fired several times over.
const OP_LIMIT: Duration = Duration::from_secs(10);
/// Seconds of each sans-io probe (checker, heavy and light simulation)
/// in the `rt_chan` traced run.
const PROBE_SECS: f64 = 3.0;
/// Cluster set-ups on each side of the measured load; `setup_s` is the
/// fastest of them. A start takes about a millisecond, so a busy moment
/// of a shared host covers a whole batch and moves their median threefold,
/// while the fastest start stays within a few percent: the noise only
/// ever slows a start down.
const SETUPS: usize = 40;

fn config() -> ArbiterConfig {
    ArbiterConfig::fault_tolerant()
        .with_t_collect(TimeDelta::from_micros(T_REQ.as_micros() as u64))
        .with_t_forward(TimeDelta::from_micros(T_FWD.as_micros() as u64))
}

fn build(tcp: bool) -> Cluster {
    let b = Cluster::builder(NODES)
        .config(config())
        .obs(Obs::disabled(Source::Runtime));
    if tcp {
        b.tcp().build()
    } else {
        b.build()
    }
}

/// Starts a cluster and takes the lock once from every node, so lazy
/// connections and first grants are part of set-up, not of the
/// measurement.
fn start(tcp: bool) -> Result<(Cluster, Duration), String> {
    let t0 = Instant::now();
    let cluster = build(tcp);
    for node in 0..NODES {
        let handle = cluster.handle(node).map_err(|e| e.to_string())?;
        let guard = handle
            .try_lock_for(Duration::from_secs(10))
            .map_err(|e| format!("warm-up lock on node {node}: {e}"))?;
        drop(guard);
    }
    Ok((cluster, t0.elapsed()))
}

/// Starts and shuts down `n` clusters; each start's time in seconds.
fn setups(tcp: bool, n: usize) -> Result<Vec<f64>, String> {
    (0..n)
        .map(|_| {
            let (cluster, took) = start(tcp)?;
            cluster.shutdown();
            Ok(took.as_secs_f64())
        })
        .collect()
}

/// What the clients saw during one measured segment.
struct Load {
    /// Operations (lock acquisitions), timed from their first call.
    windows: Windows,
    granted: u64,
    /// `try_lock_for` calls made.
    calls: u64,
    /// Calls that missed [`LIMIT`].
    late: u64,
    /// Summed time of the granted calls alone.
    granted_call_ns: u64,
    errors: Vec<String>,
    spans: Spans,
}

impl Load {
    fn new(start: Instant, secs: f64) -> Self {
        Load {
            windows: Windows::new(start, secs),
            granted: 0,
            calls: 0,
            late: 0,
            granted_call_ns: 0,
            errors: Vec::new(),
            spans: Spans::default(),
        }
    }

    /// Every attempted operation of the segment.
    fn all(&self) -> Latencies {
        self.windows.all()
    }

    /// Mean time of a granted call, from the call to its grant.
    fn granted_call_mean_ns(&self) -> f64 {
        self.granted_call_ns as f64 / self.granted.max(1) as f64
    }

    /// Late calls over calls made.
    fn late_frac(&self) -> f64 {
        self.late as f64 / self.calls.max(1) as f64
    }
}

/// Runs the closed loop for `secs` seconds: each client repeatedly takes
/// the lock at an origin node picked from its seeded stream, and after a
/// late call at a fresh pick. With `traced`, the release
/// (`drop(LockGuard)`) is timed as a span.
fn drive(
    handles: &[MutexHandle],
    seed: u64,
    secs: f64,
    checker: &SafetyChecker,
    counter: &AtomicU64,
    traced: bool,
) -> Load {
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(secs);
    let mut root = SimRng::new(seed);
    let loads: Vec<Load> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let mut rng = root.fork();
                s.spawn(move || {
                    let mut load = Load::new(t0, secs);
                    while Instant::now() < deadline {
                        let asked = Instant::now();
                        let granted = loop {
                            let node = rng.below(handles.len() as u64) as usize;
                            load.calls += 1;
                            let called = Instant::now();
                            match handles[node].try_lock_for(LIMIT) {
                                Ok(guard) => {
                                    load.granted_call_ns += called.elapsed().as_nanos() as u64;
                                    break Some((node, guard));
                                }
                                Err(LockError::Timeout) => {
                                    load.late += 1;
                                    if asked.elapsed() >= OP_LIMIT {
                                        break None;
                                    }
                                }
                                Err(e) => {
                                    load.errors.push(format!("node {node}: {e}"));
                                    break None;
                                }
                            }
                        };
                        let now = Instant::now();
                        let window = load.windows.at(now);
                        let Some((node, guard)) = granted else {
                            window.lat.fail();
                            continue;
                        };
                        window.lat.ok(now - asked);
                        window.work += 1.0;
                        let ticket = checker.enter(node);
                        // A plain read-modify-write: two holders at once
                        // would lose an update.
                        let v = counter.load(Ordering::Relaxed);
                        counter.store(v + 1, Ordering::Relaxed);
                        checker.exit(ticket);
                        load.granted += 1;
                        if traced {
                            let released = Instant::now();
                            drop(guard);
                            load.spans.record("cluster.release", released.elapsed());
                        } else {
                            drop(guard);
                        }
                    }
                    load
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    let mut total = Load::new(t0, secs);
    for l in loads {
        total.windows.merge(l.windows);
        total.granted += l.granted;
        total.calls += l.calls;
        total.late += l.late;
        total.granted_call_ns += l.granted_call_ns;
        total.errors.extend(l.errors);
        total.spans.merge(&l.spans);
    }
    total
}

fn us(ns: Option<u64>) -> f64 {
    // A failed operation missed its limit: rank it at the limit itself.
    ns.unwrap_or(OP_LIMIT.as_nanos() as u64) as f64 / 1_000.0
}

/// A measured segment on a started cluster, with its correctness checks.
struct Segment {
    load: Load,
    delta: Delta,
    /// Start times of the clusters set up before the load, the measured
    /// one last.
    setups: Vec<f64>,
}

fn segment(
    tcp: bool,
    seed: u64,
    secs: f64,
    traced: bool,
    out: &mut Outcome,
) -> Option<(Segment, Cluster)> {
    let started = setups(tcp, SETUPS - 1).and_then(|mut times| {
        let (cluster, took) = start(tcp)?;
        times.push(took.as_secs_f64());
        Ok((cluster, times))
    });
    let (cluster, setups) = match started {
        Ok(started) => started,
        Err(e) => {
            out.problems.push(e);
            return None;
        }
    };
    let handles: Vec<MutexHandle> = (0..NODES)
        .map(|n| cluster.handle(n).expect("node in range"))
        .collect();
    let checker = SafetyChecker::new(NODES);
    let counter = AtomicU64::new(0);
    let registry = cluster.obs().registry();
    let mut delta = Delta::start(registry);
    let load = drive(&handles, seed, secs, &checker, &counter, traced);
    delta.finish(registry);

    let granted = load.granted;
    out.check(checker.is_safe(), || {
        format!("safety checker: {:?}", checker.violations())
    });
    out.check(checker.clean_entries() == granted, || {
        format!(
            "checker saw {} clean critical sections for {granted} grants",
            checker.clean_entries()
        )
    });
    let counted = counter.load(Ordering::Relaxed);
    out.check(counted == granted, || {
        format!("counter reads {counted} after {granted} grants")
    });
    out.check(load.errors.is_empty(), || {
        format!("lock errors on a fault-free cluster: {:?}", load.errors)
    });
    out.check(granted > 0, || "no lock was granted".to_owned());
    Some((
        Segment {
            load,
            delta,
            setups,
        },
        cluster,
    ))
}

/// Shuts the cluster down and checks that every grant was released: the
/// runtime's completed critical sections cover the warm-up, every grant,
/// and at most one auto-release per abandoned (late) call.
fn finish(cluster: Cluster, load: &Load, out: &mut Outcome) {
    let (granted, late) = (load.granted, load.late);
    let metrics = cluster.metrics_handle();
    cluster.shutdown();
    let done = metrics.cs_completed_total();
    let floor = granted + NODES as u64;
    out.check(done >= floor && done <= floor + late, || {
        format!(
            "runtime completed {done} critical sections for {granted} grants and {late} late calls"
        )
    });
}

pub fn run(tcp: bool, seed: u64, secs: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    out.meta("nodes", Value::U64(NODES as u64));
    out.meta("shards", Value::U64(1));
    out.meta("clients", Value::U64(CLIENTS as u64));
    out.meta("t_req_us", Value::U64(T_REQ.as_micros() as u64));
    out.meta("t_fwd_us", Value::U64(T_FWD.as_micros() as u64));
    out.meta("limit_ms", Value::U64(LIMIT.as_millis() as u64));
    out.meta("op_limit_s", Value::U64(OP_LIMIT.as_secs()));
    out.meta(
        "transport",
        Value::Str(if tcp { "tcp" } else { "channel" }.into()),
    );
    out.meta("config", Value::Str("fault_tolerant".into()));
    if trace {
        traced_run(tcp, seed, secs, &mut out);
    } else {
        untraced_run(tcp, seed, secs, &mut out);
    }
    out
}

fn untraced_run(tcp: bool, seed: u64, secs: f64, out: &mut Outcome) {
    let Some((seg, cluster)) = segment(tcp, seed, secs, false, out) else {
        return;
    };
    let mut all = seg.load.all();
    out.attempted = all.attempted();
    out.failed = all.failed();
    let summary = seg.load.windows.summary(|w| w.work / WINDOW.as_secs_f64());
    out.set("latency_p50_us", us(summary.p50_ns));
    out.set("latency_p99_us", us(summary.p99_ns));
    out.set("throughput_per_s", summary.per_s);
    let p99_all = us(all.percentile(99.0));
    let p999_all = us(all.percentile(99.9));
    out.report.push(format!(
        "{} grants, {} failed (limit {OP_LIMIT:?}); {} of {} calls late (limit {LIMIT:?}); \
         over all operations p99 {p99_all:.0} us, \
         p99.9 {p999_all:.0} us, max {:.0} us; {:.3} msgs/cs",
        seg.load.granted,
        out.failed,
        seg.load.late,
        seg.load.calls,
        all.max_ok_ns() as f64 / 1e3,
        seg.delta.counter("messages_total") as f64
            / seg.delta.counter("cs_completed").max(1) as f64
    ));
    let notes: Vec<String> = seg
        .delta
        .counters_under("note")
        .into_iter()
        .filter(|&(_, n)| n > 0)
        .map(|(label, n)| format!("{label}={n}"))
        .collect();
    out.report
        .push(format!("protocol notes: {}", notes.join(" ")));
    let per_window: Vec<String> = seg
        .load
        .windows
        .work()
        .iter()
        .map(|w| format!("{w:.0}"))
        .collect();
    out.report
        .push(format!("grants per window: {}", per_window.join(" ")));
    for p in [90.0, 99.0] {
        let tails: Vec<String> = seg
            .load
            .windows
            .percentiles(p)
            .into_iter()
            .map(|ns| format!("{:.0}", us(ns)))
            .collect();
        out.report
            .push(format!("p{p} per window (us): {}", tails.join(" ")));
    }
    finish(cluster, &seg.load, out);
    // Set-ups after the load too, so that the host is sampled at both
    // ends of the run.
    match setups(tcp, SETUPS) {
        Ok(after) => {
            let fastest = seg
                .setups
                .into_iter()
                .chain(after)
                .fold(f64::INFINITY, f64::min);
            out.set("setup_s", fastest);
        }
        Err(e) => out.problems.push(e),
    }
}

/// The traced run: an untraced segment, a traced segment on a fresh
/// cluster (their p50 difference is the tracing overhead), and on
/// `rt_tcp` a channel-transport reference segment for `tcp.share_us`;
/// then the per-layer probes.
fn traced_run(tcp: bool, seed: u64, secs: f64, out: &mut Outcome) {
    let parts = if tcp { 3.0 } else { 2.0 };
    let Some((plain, cluster)) = segment(tcp, seed, secs / parts, false, out) else {
        return;
    };
    let mut plain_all = plain.load.all();
    let plain_p50 = us(plain_all.percentile(50.0));
    finish(cluster, &plain.load, out);

    let Some((seg, cluster)) = segment(tcp, seed, secs / parts, true, out) else {
        return;
    };
    let mut lat = seg.load.all();
    out.attempted = plain_all.attempted() + lat.attempted();
    out.failed = plain_all.failed() + lat.failed();
    let traced_p50 = us(lat.percentile(50.0));
    out.set("trace.overhead_frac", traced_p50 / plain_p50 - 1.0);

    let d = &seg.delta;
    let cs = d.counter("cs_completed").max(1) as f64;
    let grant_wait_ns = d.hist_mean("span_ns/cs_grant");
    out.set("node.grant_wait_us", grant_wait_ns / 1e3);
    out.set(
        "cluster.client_hop_us",
        (seg.load.granted_call_mean_ns() - grant_wait_ns) / 1e3,
    );
    out.set(
        "cluster.release_ns",
        seg.load.spans.get("cluster.release").mean_ns(),
    );
    out.set("cluster.lock_fail_frac", seg.load.late_frac());
    out.set("cluster.grant_max_us", lat.max_ok_ns() as f64 / 1e3);
    out.set("cluster.grant_p99_all_us", us(lat.percentile(99.0)));
    for kind in CODEC_KINDS {
        out.set(
            &format!("node.handle_ns.{kind}"),
            d.hist_mean(&format!("handle_ns/{kind}")),
        );
    }
    let by_kind = d.counters_under("msg_sent");
    let total_msgs = d.counter("messages_total") as f64;
    out.set("protocol.msgs_per_cs", total_msgs / cs);
    let mut recovery = 0;
    for (kind, &count) in &by_kind {
        match kind.as_str() {
            "REQUEST" | "PRIVILEGE" | "NEW-ARBITER" | "MONITOR-SUBMIT" => {
                out.set(&format!("protocol.msgs_per_cs.{kind}"), count as f64 / cs)
            }
            _ => recovery += count,
        }
    }
    out.set("protocol.msgs_per_cs.recovery", recovery as f64 / cs);
    out.set(
        "protocol.retransmits_per_request",
        d.counter("note/request_retransmitted") as f64 / d.counter("cs_requests").max(1) as f64,
    );
    out.set(
        "protocol.drops_per_kcs",
        d.counter("note/request_dropped") as f64 * 1e3 / cs,
    );
    out.set(
        "protocol.monitor_visits_per_cs",
        d.counter("note/monitor_visit") as f64 / cs,
    );
    out.set("wire.bytes_per_cs", d.counter("wire_bytes_out") as f64 / cs);
    if tcp {
        out.set("tcp.send_enqueue_ns", d.hist_mean("send_enqueue_ns"));
        out.set("tcp.frames_per_flush", d.hist_mean("tcp_frames_per_flush"));
        out.set("tcp.connects", d.counter_end("tcp_connects") as f64);
        out.set(
            "tcp.frames_requeued",
            d.counter("tcp_frames_requeued") as f64,
        );
        out.set(
            "tcp.frames_abandoned",
            d.counter("tcp_frames_abandoned") as f64,
        );
        out.set(
            "tcp.outbox_depth_end",
            d.gauge_end("tcp_outbox_depth") as f64,
        );
    }
    layers::obs_lookup(cluster.obs().registry(), &mut out.metrics);
    out.spans.merge(&seg.load.spans);
    finish(cluster, &seg.load, out);

    if tcp {
        // The same load on the channel transport: the TCP share of p50.
        if let Some((reference, cluster)) = segment(false, seed, secs / parts, false, out) {
            let mut chan = reference.load.all();
            out.set("tcp.share_us", traced_p50 - us(chan.percentile(50.0)));
            finish(cluster, &reference.load, out);
        }
    } else {
        out.set("transport.chan_hop_ns", layers::chan_hop_ns(20_000));
        // The model checker and the simulator, probed here because their
        // speed is the host's CPU speed and too unsteady to gate.
        crate::explore::probe(PROBE_SECS, out);
        crate::sim::probe(seed, PROBE_SECS, out);
    }
    if let Err(e) = layers::wire_codec(NODES, &mut out.metrics) {
        out.problems.push(e);
    }
    paper_table(&by_kind, cs, out);
}

/// "Paper on hardware": the runtime's messages per CS by kind next to the
/// simulator's at the same N and protocol configuration under saturation,
/// and next to Eq. 4 (3 − 2/N). Reported, not gated.
fn paper_table(rt_by_kind: &BTreeMap<String, u64>, rt_cs: f64, out: &mut Outcome) {
    let mut cfg = SimConfig::paper_defaults(NODES).with_seed(1);
    // Virtual time on the runtime's scale: a 20 µs hop and a 1 µs CS.
    cfg.delay = DelayModel::Constant(TimeDelta::from_micros(20));
    cfg.t_exec = TimeDelta::from_micros(1);
    let report = Simulation::build(cfg, config(), ClosedLoop::saturating()).run_until_cs(20_000);
    let sim_cs = report.cs_total.max(1) as f64;
    let eq4 = tokq_analysis::formulas::arbiter_messages_heavy(NODES);
    out.set(
        "paper.sim_msgs_per_cs",
        report.messages_total as f64 / sim_cs,
    );
    out.set("paper.eq4_msgs_per_cs", eq4);
    out.report.push(format!(
        "paper on hardware (N={NODES}, fault_tolerant, T_req {T_REQ:?}, T_fwd {T_FWD:?}): msgs/CS"
    ));
    out.report.push(format!(
        "  {:<16} {:>10} {:>10} {:>10}",
        "kind", "runtime", "simulator", "Eq. 4"
    ));
    let mut kinds: Vec<&String> = rt_by_kind
        .keys()
        .chain(report.messages_by_kind.keys())
        .collect();
    kinds.sort();
    kinds.dedup();
    for kind in kinds {
        let rt = rt_by_kind.get(kind).copied().unwrap_or(0) as f64 / rt_cs;
        let sim = report.messages_by_kind.get(kind).copied().unwrap_or(0) as f64 / sim_cs;
        out.report
            .push(format!("  {kind:<16} {rt:>10.3} {sim:>10.3} {:>10}", "-"));
    }
    let rt_total: u64 = rt_by_kind.values().sum();
    out.report.push(format!(
        "  {:<16} {:>10.3} {:>10.3} {:>10.3}",
        "total",
        rt_total as f64 / rt_cs,
        report.messages_total as f64 / sim_cs,
        eq4
    ));
}
