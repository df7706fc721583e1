//! The model-checker probe of a traced run: `Explorer::check` run
//! exhaustively on the 3-node basic arbiter with requesters {1, 2} to a
//! fixed depth, through the timing wrapper. It is the only code path that
//! fingerprints states, clones them and fills the visited set. The search
//! is deterministic, so every check must explore the same states.
//!
//! The checker is not a gated workload: like the simulator its speed is
//! the host's CPU speed, which on a shared 2-vCPU host drifted by a
//! quarter within ten 30-second runs, beyond what a 0.25 bound allows.

use std::time::{Duration, Instant};

use tokq_protocol::arbiter::ArbiterConfig;
use tokq_simnet::{ExploreConfig, ExploreStats, Explorer};

use crate::stats::median;
use crate::timed::TimedFactory;
use crate::Outcome;

/// Nodes in the explored system.
const N: usize = 3;
/// The nodes that each request the critical section once.
pub const REQUESTERS: [usize; 2] = [1, 2];
/// Depth bound: about 75 ms per check (13 703 states) on a 2-vCPU host.
const DEPTH: usize = 9;

/// The checker configuration: defaults (dedup, sleep sets, deadlock
/// check) at [`DEPTH`], with a state budget far above what it needs.
pub fn explore_config() -> ExploreConfig {
    ExploreConfig {
        max_depth: DEPTH,
        max_states: 10_000_000,
        ..ExploreConfig::default()
    }
}

/// Runs timed checks for `secs` seconds (at least one) and reports the
/// `explore.*`, `protocol.step_ns.*`, `protocol.fingerprint_ns` and
/// `protocol.clone_ns` metrics. A failed, truncated or non-deterministic
/// search is a correctness problem.
pub fn probe(secs: f64, out: &mut Outcome) {
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let mut self_s = Vec::new();
    let mut first: Option<ExploreStats> = None;
    while first.is_none() || Instant::now() < deadline {
        let factory = TimedFactory::new(ArbiterConfig::basic());
        let times = factory.times();
        let t0 = Instant::now();
        let result = Explorer::new(explore_config()).check(factory, N, &REQUESTERS);
        let took = t0.elapsed();
        let stats = match result {
            Ok(stats) if !stats.truncated => stats,
            Ok(stats) => {
                out.problems.push(format!(
                    "exploration truncated after {} states",
                    stats.states_explored
                ));
                return;
            }
            Err(v) => {
                out.problems.push(format!("model checker found: {v}"));
                return;
            }
        };
        times.record_into(&mut out.spans);
        self_s.push(took.as_secs_f64() - times.total_ns() as f64 / 1e9);
        if let Some(f) = &first {
            out.check(*f == stats, || {
                format!("non-deterministic search: {stats:?} after {f:?}")
            });
        }
        first.get_or_insert(stats);
    }
    let s = first.expect("the loop runs at least one check");
    out.set("explore.states", s.states_explored as f64);
    out.set("explore.dedup_hits", s.dedup_hits as f64);
    out.set("explore.sleep_pruned", s.sleep_pruned as f64);
    out.set("explore.self_s", median(&self_s));
    for input in ["Deliver", "Timer", "RequestCs", "CsDone"] {
        let agg = out.spans.get(&format!("protocol.step.{input}"));
        out.set(&format!("protocol.step_ns.{input}"), agg.mean_ns());
    }
    let fingerprint = out.spans.get("protocol.fingerprint").mean_ns();
    let clone = out.spans.get("protocol.clone").mean_ns();
    out.set("protocol.fingerprint_ns", fingerprint);
    out.set("protocol.clone_ns", clone);
    out.report.push(format!(
        "model checker (N={N}, requesters {REQUESTERS:?}, depth {DEPTH}): {} checks, \
         {} states, {} dedup hits, {} sleep-pruned, median {:.1} ms self time",
        self_s.len(),
        s.states_explored,
        s.dedup_hits,
        s.sleep_pruned,
        median(&self_s) * 1e3
    ));
}
