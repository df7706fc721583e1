//! End-to-end tests of the threaded runtime (`tokq-core`): real threads,
//! real timers, encoded frames, delayed/lossy transport, RAII guards.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tokq::core::{Cluster, LockError, NetOptions, SafetyChecker};
use tokq::protocol::arbiter::{ArbiterConfig, RecoveryConfig};
use tokq::protocol::rng::SimRng;
use tokq::protocol::types::TimeDelta;

fn quick() -> ArbiterConfig {
    ArbiterConfig::basic()
        .with_t_collect(TimeDelta::from_millis(1))
        .with_t_forward(TimeDelta::from_millis(1))
}

fn quick_ft() -> ArbiterConfig {
    ArbiterConfig {
        recovery: Some(RecoveryConfig {
            token_wait_base: TimeDelta::from_millis(100),
            token_wait_per_position: TimeDelta::from_millis(25),
            enquiry_timeout: TimeDelta::from_millis(50),
            handover_watch: TimeDelta::from_millis(200),
            probe_timeout: TimeDelta::from_millis(50),
        }),
        ..quick()
    }
}

/// Asserts no two guards coexist by counting concurrent holders.
fn hammer(cluster: &Cluster, rounds: u32) -> u64 {
    let inside = Arc::new(AtomicU32::new(0));
    let total = Arc::new(AtomicU64::new(0));
    let mut joins = Vec::new();
    for node in 0..cluster.len() {
        let handle = cluster.handle(node).expect("node in range");
        let inside = Arc::clone(&inside);
        let total = Arc::clone(&total);
        joins.push(std::thread::spawn(move || {
            for _ in 0..rounds {
                let guard = handle.lock().expect("granted");
                let was = inside.fetch_add(1, Ordering::SeqCst);
                assert_eq!(was, 0, "mutual exclusion violated on the runtime");
                std::thread::sleep(Duration::from_micros(100));
                inside.fetch_sub(1, Ordering::SeqCst);
                total.fetch_add(1, Ordering::SeqCst);
                drop(guard);
            }
        }));
    }
    for j in joins {
        j.join().expect("worker panicked");
    }
    total.load(Ordering::SeqCst)
}

#[test]
fn mutual_exclusion_on_instant_network() {
    let cluster = Cluster::builder(5).config(quick()).build();
    let metrics = cluster.metrics_handle();
    assert_eq!(hammer(&cluster, 20), 100);
    cluster.shutdown(); // joins node threads: all releases processed
    assert_eq!(metrics.cs_completed_total(), 100);
}

#[test]
fn mutual_exclusion_with_delay_and_jitter() {
    let cluster = Cluster::builder(4)
        .config(quick())
        .net(NetOptions::delayed(
            Duration::from_millis(1),
            Duration::from_millis(1),
        ))
        .build();
    assert_eq!(hammer(&cluster, 10), 40);
    cluster.shutdown();
}

#[test]
fn mutual_exclusion_with_lossy_network_and_recovery() {
    let cluster = Cluster::builder(4)
        .config(quick_ft())
        .net(
            NetOptions::delayed(Duration::from_micros(300), Duration::from_micros(200)).lossy(0.01),
        )
        .build();
    assert_eq!(hammer(&cluster, 10), 40);
    cluster.shutdown();
}

#[test]
fn reentrant_sequential_locking_from_one_handle() {
    let cluster = Cluster::builder(3).config(quick()).build();
    let metrics = cluster.metrics_handle();
    let h = cluster.handle(2).expect("node in range");
    for _ in 0..50 {
        let g = h.lock().expect("granted");
        drop(g);
    }
    cluster.shutdown();
    assert_eq!(metrics.cs_completed_total(), 50);
}

#[test]
fn competing_threads_on_the_same_node_queue_up() {
    let cluster = Arc::new(Cluster::builder(2).config(quick()).build());
    let inside = Arc::new(AtomicU32::new(0));
    let mut joins = Vec::new();
    for _ in 0..4 {
        let handle = cluster.handle(0).expect("node in range");
        let inside = Arc::clone(&inside);
        joins.push(std::thread::spawn(move || {
            for _ in 0..10 {
                let _g = handle.lock().expect("granted");
                let was = inside.fetch_add(1, Ordering::SeqCst);
                assert_eq!(was, 0);
                inside.fetch_sub(1, Ordering::SeqCst);
            }
        }));
    }
    for j in joins {
        j.join().expect("worker");
    }
    let cluster = Arc::try_unwrap(cluster).expect("workers joined");
    let metrics = cluster.metrics_handle();
    cluster.shutdown();
    assert_eq!(metrics.cs_completed_total(), 40);
}

#[test]
fn try_lock_for_times_out_while_lock_is_held() {
    let cluster = Cluster::builder(2).config(quick()).build();
    let a = cluster.handle(0).expect("node in range");
    let b = cluster.handle(1).expect("node in range");
    let g = a.lock().expect("granted");
    let start = std::time::Instant::now();
    assert_eq!(
        b.try_lock_for(Duration::from_millis(80)).err(),
        Some(LockError::Timeout)
    );
    assert!(start.elapsed() >= Duration::from_millis(75));
    drop(g);
    assert!(b.try_lock_for(Duration::from_secs(10)).is_ok());
    cluster.shutdown();
}

#[test]
fn crash_and_recovery_on_the_runtime() {
    let cluster = Arc::new(Cluster::builder(4).config(quick_ft()).build());
    // Warm up: everybody locks once.
    for node in 0..4 {
        let g = cluster
            .handle(node)
            .expect("in range")
            .lock()
            .expect("granted");
        drop(g);
    }
    // Crash node 0 (initial arbiter); the others must still acquire.
    cluster.crash(0).expect("crash node 0");
    let h = cluster.handle(2).expect("node in range");
    let got = h.try_lock_for(Duration::from_secs(20));
    assert!(got.is_ok(), "lock unavailable after crashing node 0");
    drop(got);
    // Recover node 0 and let it lock again.
    cluster.recover(0).expect("recover node 0");
    let g = cluster
        .handle(0)
        .expect("node in range")
        .try_lock_for(Duration::from_secs(20))
        .expect("recovered node must reacquire");
    drop(g);
    match Arc::try_unwrap(cluster) {
        Ok(c) => c.shutdown(),
        Err(_) => panic!("outstanding refs"),
    }
}

#[test]
fn metrics_reflect_protocol_traffic() {
    let cluster = Cluster::builder(3).config(quick()).build();
    let metrics = cluster.metrics_handle();
    for node in 0..3 {
        let g = cluster
            .handle(node)
            .expect("in range")
            .lock()
            .expect("granted");
        drop(g);
    }
    cluster.shutdown();
    assert_eq!(metrics.cs_completed_total(), 3);
    let kinds = metrics.by_kind();
    assert!(kinds.contains_key("PRIVILEGE"), "kinds: {kinds:?}");
    assert!(kinds.contains_key("NEW-ARBITER"), "kinds: {kinds:?}");
}

#[test]
fn guard_drop_after_cluster_shutdown_is_harmless() {
    let cluster = Cluster::builder(2).config(quick()).build();
    let g = cluster
        .handle(0)
        .expect("in range")
        .lock()
        .expect("granted");
    cluster.shutdown();
    drop(g); // must not panic
}

#[test]
fn mutual_exclusion_over_real_tcp_sockets() {
    let cluster = Cluster::builder(4).config(quick_ft()).tcp().build();
    let metrics = cluster.metrics_handle();
    assert_eq!(hammer(&cluster, 10), 40);
    cluster.shutdown();
    assert_eq!(metrics.cs_completed_total(), 40);
    // Real frames moved: the PRIVILEGE counter is non-zero.
    assert!(metrics.by_kind().contains_key("PRIVILEGE"));
}

#[test]
fn tcp_cluster_survives_crash_and_recovery() {
    let cluster = Cluster::builder(3).config(quick_ft()).tcp().build();
    let g = cluster
        .handle(1)
        .expect("in range")
        .lock()
        .expect("granted");
    drop(g);
    cluster.crash(0).expect("crash node 0");
    let got = cluster
        .handle(2)
        .expect("in range")
        .try_lock_for(Duration::from_secs(20));
    assert!(got.is_ok(), "lock unavailable after crash over TCP");
    drop(got);
    cluster.recover(0).expect("recover node 0");
    let g = cluster
        .handle(0)
        .expect("in range")
        .try_lock_for(Duration::from_secs(20))
        .expect("recovered node reacquires over TCP");
    drop(g);
    cluster.shutdown();
}

/// The repository benchmark's load, bounded to 2,000 operations: a 4-node
/// `fault_tolerant()` cluster with only the phase windows scaled
/// (T_req = 100 µs, T_fwd = 2 ms) and two closed-loop clients, each
/// operation at a seeded random origin node. A call that misses 100 ms is
/// late and is abandoned (its grant auto-releases); the operation retries
/// at a freshly drawn node. Every operation must be granted within 10 s of
/// its first call, no two critical sections may overlap, and the runtime
/// must complete every grant plus at most one abandoned grant per late
/// call.
fn benchmark_shaped_load_stays_live(tcp: bool) {
    const NODES: usize = 4;
    const CLIENTS: usize = 2;
    const OPS_PER_CLIENT: u64 = 1_000;
    const LIMIT: Duration = Duration::from_millis(100);
    const OP_LIMIT: Duration = Duration::from_secs(10);
    let config = ArbiterConfig::fault_tolerant()
        .with_t_collect(TimeDelta::from_micros(100))
        .with_t_forward(TimeDelta::from_millis(2));
    let builder = Cluster::builder(NODES).config(config);
    let cluster = if tcp {
        builder.tcp().build()
    } else {
        builder.build()
    };
    let metrics = cluster.metrics_handle();
    let handles: Vec<_> = (0..NODES)
        .map(|n| cluster.handle(n).expect("node in range"))
        .collect();
    let checker = SafetyChecker::new(NODES);
    let mut root = SimRng::new(9000);
    let late: u64 = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let mut rng = root.fork();
                let (handles, checker) = (&handles, &checker);
                s.spawn(move || {
                    let mut late = 0u64;
                    for op in 0..OPS_PER_CLIENT {
                        let asked = Instant::now();
                        let (node, guard) = loop {
                            let node = rng.below(NODES as u64) as usize;
                            match handles[node].try_lock_for(LIMIT) {
                                Ok(guard) => break (node, guard),
                                Err(LockError::Timeout) => late += 1,
                                Err(e) => panic!("lock error on a fault-free cluster: {e}"),
                            }
                            assert!(
                                asked.elapsed() < OP_LIMIT,
                                "operation {op} not granted within {OP_LIMIT:?}"
                            );
                        };
                        let waited = asked.elapsed();
                        assert!(waited < OP_LIMIT, "operation {op} took {waited:?}");
                        let ticket = checker.enter(node);
                        checker.exit(ticket);
                        drop(guard);
                    }
                    late
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client panicked"))
            .sum()
    });
    assert!(checker.is_safe(), "{:?}", checker.violations());
    let granted = CLIENTS as u64 * OPS_PER_CLIENT;
    assert_eq!(checker.clean_entries(), granted);
    cluster.shutdown();
    let done = metrics.cs_completed_total();
    assert!(
        (granted..=granted + late).contains(&done),
        "completed {done} critical sections for {granted} grants and {late} late calls"
    );
}

#[test]
fn benchmark_shaped_load_stays_live_on_channels() {
    benchmark_shaped_load_stays_live(false);
}

#[test]
fn benchmark_shaped_load_stays_live_over_tcp() {
    benchmark_shaped_load_stays_live(true);
}
