//! A [`ProtocolFactory`] wrapper that times every call the simulator and
//! the model checker make into the protocol layer: `step` per input kind,
//! `fingerprint`, and `clone`. The wrapped node forwards every call
//! unchanged, so a timed run executes the same protocol steps as an
//! untimed one (the tests below check that the simulator's `Report` and
//! the checker's `ExploreStats` are equal with and without it).

use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tokq_protocol::api::{Protocol, ProtocolFactory};
use tokq_protocol::event::{Action, Input};
use tokq_protocol::types::NodeId;

use crate::stats::Spans;

/// Input kinds, in the order of [`StepTimes`]' slots.
pub const INPUTS: [&str; 7] = [
    "Start",
    "Deliver",
    "Timer",
    "RequestCs",
    "CsDone",
    "Crash",
    "Recover",
];

fn input_slot<M, T>(input: &Input<M, T>) -> usize {
    match input {
        Input::Start => 0,
        Input::Deliver { .. } => 1,
        Input::Timer(_) => 2,
        Input::RequestCs => 3,
        Input::CsDone => 4,
        Input::Crash => 5,
        Input::Recover => 6,
    }
}

#[derive(Debug, Default)]
struct Slot {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl Slot {
    fn add(&self, since: Instant) {
        let ns = since.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        // Statistics only: no other data is published through these.
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
    }

    fn get(&self) -> (u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.ns.load(Ordering::Relaxed),
        )
    }
}

/// Call counts and summed nanoseconds of the timed protocol calls.
#[derive(Debug, Default)]
pub struct StepTimes {
    steps: [Slot; INPUTS.len()],
    fingerprint: Slot,
    clone: Slot,
}

impl StepTimes {
    /// Adds the timed calls to `spans`: `protocol.step.<input>`,
    /// `protocol.fingerprint` and `protocol.clone`, for calls that ran.
    pub fn record_into(&self, spans: &mut Spans) {
        let named = INPUTS
            .iter()
            .map(|input| format!("protocol.step.{input}"))
            .zip(&self.steps)
            .chain([
                ("protocol.fingerprint".to_owned(), &self.fingerprint),
                ("protocol.clone".to_owned(), &self.clone),
            ]);
        for (name, slot) in named {
            let (calls, ns) = slot.get();
            if calls > 0 {
                spans.record_ns(&name, ns, calls);
            }
        }
    }

    /// Nanoseconds spent inside every timed call.
    pub fn total_ns(&self) -> u64 {
        self.steps
            .iter()
            .chain([&self.fingerprint, &self.clone])
            .map(|s| s.get().1)
            .sum()
    }
}

/// Builds [`Timed`] nodes around the nodes `inner` builds.
#[derive(Debug, Clone)]
pub struct TimedFactory<F> {
    inner: F,
    times: Arc<StepTimes>,
}

impl<F> TimedFactory<F> {
    pub fn new(inner: F) -> Self {
        TimedFactory {
            inner,
            times: Arc::new(StepTimes::default()),
        }
    }

    pub fn times(&self) -> Arc<StepTimes> {
        Arc::clone(&self.times)
    }
}

impl<F: ProtocolFactory> ProtocolFactory for TimedFactory<F> {
    type Node = Timed<F::Node>;

    fn build(&self, id: NodeId, n: usize) -> Self::Node {
        Timed {
            inner: self.inner.build(id, n),
            times: Arc::clone(&self.times),
        }
    }
}

/// A protocol node whose calls are timed into a shared [`StepTimes`].
#[derive(Debug)]
pub struct Timed<P> {
    inner: P,
    times: Arc<StepTimes>,
}

impl<P: Clone> Clone for Timed<P> {
    fn clone(&self) -> Self {
        let start = Instant::now();
        let inner = self.inner.clone();
        self.times.clone.add(start);
        Timed {
            inner,
            times: Arc::clone(&self.times),
        }
    }
}

impl<P: Protocol> Protocol for Timed<P> {
    type Msg = P::Msg;
    type Timer = P::Timer;

    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn step(&mut self, input: Input<P::Msg, P::Timer>) -> Vec<Action<P::Msg, P::Timer>> {
        let slot = input_slot(&input);
        let start = Instant::now();
        let actions = self.inner.step(input);
        self.times.steps[slot].add(start);
        actions
    }

    fn holds_token(&self) -> bool {
        self.inner.holds_token()
    }

    fn algorithm(&self) -> &'static str {
        self.inner.algorithm()
    }

    fn fingerprint(&self, h: &mut dyn Hasher) {
        let start = Instant::now();
        self.inner.fingerprint(h);
        self.times.fingerprint.add(start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tokq_protocol::arbiter::ArbiterConfig;
    use tokq_simnet::arrivals::Poisson;
    use tokq_simnet::{ExploreConfig, Explorer, Simulation};

    #[test]
    fn timed_simulation_report_equals_untimed() {
        for (lambda, cs) in [
            (crate::sim::HEAVY_LAMBDA, 3_000),
            (crate::sim::LIGHT_LAMBDA, 1_000),
        ] {
            let cfg = crate::sim::sim_config(11);
            let plain =
                Simulation::build(cfg.clone(), ArbiterConfig::basic(), Poisson::new(lambda))
                    .run_until_cs(cs);
            let factory = TimedFactory::new(ArbiterConfig::basic());
            let times = factory.times();
            let timed = Simulation::build(cfg, factory, Poisson::new(lambda)).run_until_cs(cs);
            assert_eq!(plain, timed, "lambda {lambda}");
            let mut spans = Spans::default();
            times.record_into(&mut spans);
            assert!(
                spans.get("protocol.step.Deliver").calls > 0,
                "deliveries were timed"
            );
        }
    }

    #[test]
    fn timed_exploration_stats_equal_untimed() {
        let cfg = ExploreConfig {
            max_depth: 9,
            ..crate::explore::explore_config()
        };
        let plain = Explorer::new(cfg)
            .check(ArbiterConfig::basic(), 3, &crate::explore::REQUESTERS)
            .expect("arbiter is safe");
        let factory = TimedFactory::new(ArbiterConfig::basic());
        let times = factory.times();
        let timed = Explorer::new(cfg)
            .check(factory, 3, &crate::explore::REQUESTERS)
            .expect("arbiter is safe");
        assert_eq!(plain, timed);
        let mut spans = Spans::default();
        times.record_into(&mut spans);
        assert!(spans.get("protocol.fingerprint").calls > 0);
        assert!(spans.get("protocol.clone").calls > 0);
    }
}
