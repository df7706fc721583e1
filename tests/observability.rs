//! The unified observability layer end to end: flight-recorder dumps
//! after induced recovery, span/event sequences, and the JSONL schema and
//! event vocabulary shared by the simulator and the threaded runtime.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use tokq::obs::{CollectSink, Event, Level, Obs, Source, TraceFilter};
use tokq::protocol::arbiter::{ArbiterConfig, RecoveryConfig};
use tokq::protocol::types::TimeDelta;
use tokq::simnet::{FaultPlan, SimConfig, SimTime, Simulation};
use tokq::workload::{fig2_script, Workload};

fn ft() -> ArbiterConfig {
    ArbiterConfig {
        recovery: Some(RecoveryConfig::default()),
        ..ArbiterConfig::basic()
    }
}

/// Fault-tolerant config with millisecond-scale phases and recovery
/// timeouts so runtime crash/recovery completes quickly.
fn quick_ft() -> ArbiterConfig {
    ArbiterConfig {
        recovery: Some(RecoveryConfig {
            token_wait_base: TimeDelta::from_millis(100),
            token_wait_per_position: TimeDelta::from_millis(25),
            enquiry_timeout: TimeDelta::from_millis(50),
            handover_watch: TimeDelta::from_millis(200),
            probe_timeout: TimeDelta::from_millis(50),
        }),
        ..ArbiterConfig::basic()
            .with_t_collect(TimeDelta::from_millis(2))
            .with_t_forward(TimeDelta::from_millis(2))
    }
}

/// Index of the first event with `name` (panics when absent).
fn first_index(events: &[Event], name: &str) -> usize {
    events
        .iter()
        .position(|e| e.name == name)
        .unwrap_or_else(|| panic!("no `{name}` event in {} records", events.len()))
}

/// `name -> (target, level)` over one event stream, asserting each name
/// keeps a single target and level within the stream.
fn vocabulary(events: &[Event]) -> BTreeMap<String, (String, Level)> {
    let mut table = BTreeMap::new();
    for e in events {
        let entry = (e.target.clone(), e.level);
        let seen = table.entry(e.name.clone()).or_insert_with(|| entry.clone());
        assert_eq!(*seen, entry, "`{}` changes target or level", e.name);
    }
    table
}

#[test]
fn sim_flight_recorder_captures_recovery_sequence() {
    // Drop the token mid-run: the fault-tolerant protocol must notice
    // (token_warning), run the two-phase invalidation, and regenerate.
    let mut cfg = SimConfig::paper_defaults(10).with_seed(1);
    cfg.warmup_cs = 0;
    cfg.max_sim_time = Some(SimTime::from_secs_f64(500_000.0));

    let obs = Obs::disabled(Source::Sim);
    let recorder = obs.attach_flight_recorder(262_144, Level::Debug);

    let report = Simulation::build(cfg, ft(), Workload::poisson(0.5))
        .with_obs(obs.clone())
        .with_faults(FaultPlan::none().drop_token(SimTime::from_secs_f64(20.0), 1))
        .run_until_cs(500);

    assert!(report.cs_measured >= 500, "run stalled after token drop");
    assert_eq!(
        report.note_count("token_regenerated"),
        1,
        "{:?}",
        report.notes
    );

    // The recorder held every Debug-level event; the recovery transition
    // must appear in causal order: a waiter warns, the arbiter starts the
    // invalidation, then the token is regenerated and a fresh Q-list is
    // sealed so normal operation resumes.
    let events = recorder.snapshot();
    let warning = first_index(&events, "token_warning");
    let invalidation = first_index(&events, "invalidation_started");
    let regenerated = first_index(&events, "token_regenerated");
    assert!(warning < invalidation, "warning after invalidation");
    assert!(
        invalidation < regenerated,
        "invalidation after regeneration"
    );
    assert!(
        events[regenerated..]
            .iter()
            .any(|e| e.name == "qlist_sealed"),
        "no seal after regeneration: operation did not resume"
    );

    // Virtual timestamps are monotone and in the sim clock domain.
    assert!(events.windows(2).all(|w| w[0].ts <= w[1].ts));
    assert!(events.iter().all(|e| e.src == Source::Sim));

    // Every dumped line reparses losslessly (the JSONL schema is total).
    let dump = recorder.dump_jsonl();
    for line in dump.lines() {
        let back = Event::from_jsonl(line).expect("reparse");
        assert_eq!(back.to_jsonl(), line);
    }

    // The sim mirrored grant waits into the same histogram the runtime
    // uses, so latency tables are comparable across the two drivers.
    let grants = obs.registry().snapshot().histograms["span_ns/cs_grant"].count;
    assert!(grants >= report.cs_total, "{grants} < {}", report.cs_total);
}

#[test]
fn runtime_flight_recorder_captures_crash_recover_and_spans() {
    let cluster = tokq::core::Cluster::builder(4)
        .config(quick_ft())
        .flight_recorder(8192, Level::Debug)
        .build();

    let wait = Duration::from_secs(30);
    // Warm up: everybody locks once so every node has joined the rotation
    // before the fault is injected.
    for node in 0..4 {
        let h = cluster.handle(node).expect("in range");
        drop(h.try_lock_for(wait).expect("warmup"));
    }
    let h0 = cluster.handle(0).expect("in range");
    let h1 = cluster.handle(1).expect("in range");
    for _ in 0..3 {
        drop(h0.try_lock_for(wait).expect("h0 grant"));
        drop(h1.try_lock_for(wait).expect("h1 grant"));
    }
    // Induce the recovery path: node 2 crashes, the others keep working,
    // node 2 comes back and locks again.
    cluster.crash(2).expect("crash node 2");
    for _ in 0..3 {
        drop(h0.try_lock_for(wait).expect("grant while node 2 down"));
    }
    cluster.recover(2).expect("recover node 2");
    // Keep lock traffic flowing while node 2 rejoins: the recovered node
    // re-learns the current arbiter from NEW-ARBITER broadcasts, which only
    // happen while critical sections are being granted.
    let stop = Arc::new(AtomicBool::new(false));
    let traffic = {
        let stop = Arc::clone(&stop);
        let h = cluster.handle(0).expect("in range");
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                drop(h.try_lock_for(Duration::from_secs(5)).ok());
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };
    let h2 = cluster.handle(2).expect("in range");
    let got = h2.try_lock_for(wait);
    stop.store(true, Ordering::Relaxed);
    if got.is_err() {
        let dump = cluster.flight_recorder().expect("recorder").dump_jsonl();
        let tail: Vec<&str> = dump.lines().rev().take(60).collect();
        panic!("grant after recovery timed out; last events:\n{}", {
            let mut t = tail;
            t.reverse();
            t.join("\n")
        });
    }
    drop(got);
    traffic.join().expect("traffic thread");

    let recorder = cluster.flight_recorder().expect("recorder attached");
    cluster.shutdown();

    let events = recorder.snapshot();
    let crashed = first_index(&events, "crashed");
    let recovered = first_index(&events, "recovered");
    assert!(crashed < recovered, "crash must precede recovery");
    assert_eq!(events[crashed].node, Some(2));
    assert_eq!(events[recovered].node, Some(2));
    // Work continued between the two: grants happened in the gap.
    assert!(
        events[crashed..recovered]
            .iter()
            .any(|e| e.name == "cs_granted"),
        "no grants while node 2 was down"
    );
    assert!(
        events[recovered..]
            .iter()
            .any(|e| e.name == "cs_granted" && e.node == Some(2)),
        "node 2 never got the lock after recovering"
    );

    // The arbiter phases show up as spans: every close pairs with an
    // earlier open naming the same span.
    let opens = events.iter().filter(|e| e.name == "span_open").count();
    let closes = events.iter().filter(|e| e.name == "span_close").count();
    assert!(opens > 0, "no spans recorded");
    assert!(closes <= opens);
    assert!(
        events.iter().any(|e| e.name == "span_open"
            && e.fields
                .iter()
                .any(|(k, v)| k == "span" && v.as_str() == Some("request_collection"))),
        "request_collection span missing"
    );
}

#[test]
fn sim_and_runtime_jsonl_schemas_are_compatible() {
    // Simulator side: stream everything, wire traffic included, into a
    // collecting sink.
    let obs = Obs::with_filter(Source::Sim, TraceFilter::with_default(Level::Trace));
    let sink = CollectSink::new();
    obs.add_sink(sink.clone());
    let mut cfg = SimConfig::paper_defaults(3).with_seed(7);
    cfg.warmup_cs = 0;
    let report = Simulation::build(cfg, ft(), Workload::poisson(1.0))
        .with_obs(obs)
        .run_until_cs(30);
    let sim_events = sink.events();

    // Runtime side: the same schema out of a real threaded cluster.
    let cluster = tokq::core::Cluster::builder(3)
        .config(quick_ft())
        .flight_recorder(65_536, Level::Trace)
        .build();
    for node in 0..3 {
        let h = cluster.handle(node).expect("in range");
        drop(h.try_lock_for(Duration::from_secs(30)).expect("granted"));
    }
    let recorder = cluster.flight_recorder().expect("recorder");
    cluster.shutdown();
    let rt_events = recorder.snapshot();

    // Both sides speak one vocabulary: a name either emits carries the
    // same target and level in both, the shared events appear in both,
    // and the simulator adds only arrivals and protocol notes.
    let sim = vocabulary(&sim_events);
    let rt = vocabulary(&rt_events);
    for (name, sim_meta) in &sim {
        match rt.get(name) {
            Some(rt_meta) => assert_eq!(sim_meta, rt_meta, "`{name}` differs"),
            None => assert!(
                name == "arrival" || report.note_count(name) > 0,
                "sim-only `{name}` is neither an arrival nor a protocol note"
            ),
        }
    }
    for name in [
        "msg_sent",
        "msg_recv",
        "cs_granted",
        "cs_released",
        "qlist_sealed",
    ] {
        assert!(sim.contains_key(name), "sim lacks {name}");
        assert!(rt.contains_key(name), "runtime lacks {name}");
    }
    assert!(sim_events.iter().all(|e| e.src == Source::Sim));
    assert!(rt_events.iter().all(|e| e.src == Source::Runtime));

    // Every line from either driver reparses through the shared schema.
    for e in sim_events.iter().chain(rt_events.iter()) {
        let back = Event::from_jsonl(&e.to_jsonl()).expect("schema");
        assert_eq!(&back, e);
    }
}

#[test]
fn with_obs_sees_the_boot_events() {
    // The Figure 2 run: node 0 becomes arbiter at boot (t = 0), before any
    // arrival, and a sink attached through `with_obs` must hear it.
    let mut cfg = SimConfig::paper_defaults(5);
    cfg.warmup_cs = 0;
    cfg.max_sim_time = Some(SimTime::from_secs_f64(5.0));
    let obs = Obs::with_filter(Source::Sim, TraceFilter::with_default(Level::Trace));
    let sink = CollectSink::new();
    obs.add_sink(sink.clone());
    let report = Simulation::build(cfg, ArbiterConfig::basic(), fig2_script())
        .with_obs(obs)
        .run_to_quiescence();
    assert_eq!(report.cs_total, 4);

    let events = sink.events();
    let first = &events[0];
    assert_eq!(
        (first.name.as_str(), first.node, first.ts),
        ("became_arbiter", Some(0), 0.0)
    );
    assert_eq!(events.len(), 61, "every Figure 2 event reaches the sink");
}
