//! The simulator probe of a traced run: the discrete-event simulator at
//! the paper's §3.3 model (N = 10, T_msg = T_exec = T_req = T_fwd = 0.1,
//! the basic arbiter, Poisson arrivals at every node), driven through the
//! timing wrapper.
//!
//! Two phases use the protocol in opposite ways. Heavy load (λ = 1)
//! keeps Q-lists full: Eq. 4's regime of 3 − 2/N = 2.8 messages per
//! critical section, mostly token passes. Light load (λ = 0.125) is Eq.
//! 1's regime, dominated by NEW-ARBITER broadcasts. One operation is one
//! simulation of a fixed number of measured critical sections; every
//! operation draws its own seed from `--seed`.
//!
//! The simulator is not a gated workload: its wall-clock speed follows
//! the host's, which on a shared 2-vCPU host can stay 1.5× slower for a
//! whole 25-second run, beyond what a 0.25 bound allows.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use tokq_analysis::formulas;
use tokq_protocol::api::{Protocol, ProtocolFactory};
use tokq_protocol::arbiter::ArbiterConfig;
use tokq_simnet::arrivals::Poisson;
use tokq_simnet::rng::SimRng;
use tokq_simnet::{Report, SimConfig, Simulation};

use crate::stats::{median, Spans};
use crate::timed::TimedFactory;
use crate::Outcome;

/// Nodes in the paper's simulation.
pub const N: usize = 10;
/// Per-node arrival rate of the heavy phase.
pub const HEAVY_LAMBDA: f64 = 1.0;
/// Per-node arrival rate of the light phase.
pub const LIGHT_LAMBDA: f64 = 0.125;
/// Heavy load must reproduce Eq. 4 to this many messages per CS.
const EQ4_TOLERANCE: f64 = 1e-3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Heavy,
    Light,
}

impl Phase {
    fn lambda(self) -> f64 {
        match self {
            Phase::Heavy => HEAVY_LAMBDA,
            Phase::Light => LIGHT_LAMBDA,
        }
    }

    /// Measured critical sections per operation: about 50 ms of host time
    /// in either phase on a 2-vCPU host.
    fn cs_per_op(self) -> u64 {
        match self {
            Phase::Heavy => 20_000,
            Phase::Light => 8_000,
        }
    }
}

/// The §3.3 simulation parameters with the given seed.
pub fn sim_config(seed: u64) -> SimConfig {
    SimConfig::paper_defaults(N).with_seed(seed)
}

/// One operation: build a simulation and run it to the phase's number of
/// measured critical sections; the run (not the build) is timed.
fn one_op<F>(factory: F, phase: Phase, seed: u64) -> Result<(Duration, Report), String>
where
    F: ProtocolFactory,
    F::Node: Protocol,
{
    catch_unwind(AssertUnwindSafe(|| {
        let sim = Simulation::build(sim_config(seed), factory, Poisson::new(phase.lambda()));
        let t0 = Instant::now();
        let report = sim.run_until_cs(phase.cs_per_op());
        (t0.elapsed(), report)
    }))
    .map_err(|_| format!("simulation with seed {seed} panicked (see stderr)"))
}

/// Checks one operation's critical-section count, and a light-load
/// operation's message rate against the paper's model (the heavy-load
/// rate is checked over the whole run in [`check_heavy`]).
fn check(phase: Phase, seed: u64, report: &Report, out: &mut Outcome) {
    out.check(report.cs_measured >= phase.cs_per_op(), || {
        format!(
            "seed {seed}: {} of {} critical sections",
            report.cs_measured,
            phase.cs_per_op()
        )
    });
    if phase == Phase::Light {
        // Light load lies between the heavy-load floor and Eq. 1.
        let m = report.messages_per_cs();
        let (eq4, eq1) = (
            formulas::arbiter_messages_heavy(N),
            formulas::arbiter_messages_light(N),
        );
        out.check(m > eq4 && m <= eq1, || {
            format!("seed {seed}: light load sent {m:.6} msgs/CS, outside ({eq4}, {eq1}]")
        });
    }
}

/// Heavy load must reproduce Eq. 4 over the run's measured sections.
fn check_heavy(ops: &Ops, out: &mut Outcome) {
    let m = ops.messages as f64 / ops.cs.max(1) as f64;
    let eq4 = formulas::arbiter_messages_heavy(N);
    out.check((m - eq4).abs() <= EQ4_TOLERANCE, || {
        format!("heavy load sent {m:.6} msgs/CS, Eq. 4 says {eq4}")
    });
}

/// Timed operations of one phase, run back to back until `secs` elapse
/// (at least one).
struct Ops {
    count: u64,
    /// Simulated critical sections, warm-up included, and the time spent
    /// simulating them.
    work: f64,
    busy: Duration,
    cs: u64,
    messages: u64,
    spans: Spans,
    self_s: Vec<f64>,
}

fn run_ops(phase: Phase, seed: u64, secs: f64, out: &mut Outcome) -> Ops {
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let mut seeds = SimRng::new(seed);
    let mut ops = Ops {
        count: 0,
        work: 0.0,
        busy: Duration::ZERO,
        cs: 0,
        messages: 0,
        spans: Spans::default(),
        self_s: Vec::new(),
    };
    while ops.count == 0 || Instant::now() < deadline {
        let op_seed = seeds.next_u64();
        let factory = TimedFactory::new(ArbiterConfig::basic());
        let times = factory.times();
        match one_op(factory, phase, op_seed) {
            Ok((took, report)) => {
                check(phase, op_seed, &report, out);
                times.record_into(&mut ops.spans);
                ops.self_s
                    .push(took.as_secs_f64() - times.total_ns() as f64 / 1e9);
                ops.work += report.cs_total as f64;
                ops.busy += took;
                ops.count += 1;
                ops.cs += report.cs_measured;
                ops.messages += report.messages_measured;
            }
            Err(e) => {
                out.problems.push(e);
                break;
            }
        }
    }
    if phase == Phase::Heavy {
        check_heavy(&ops, out);
    }
    ops
}

/// The simulator probe of a traced run: `secs` seconds of each phase
/// through the timing wrapper, with the phases' correctness checks.
/// Reports `sim.*`: simulated critical sections per second of simulation
/// time, messages per measured CS, the mean protocol step, and self time.
pub fn probe(seed: u64, secs: f64, out: &mut Outcome) {
    let mut self_s = Vec::new();
    let mut steps = Spans::default();
    for phase in [Phase::Heavy, Phase::Light] {
        let ops = run_ops(phase, seed, secs, out);
        let name = match phase {
            Phase::Heavy => "heavy",
            Phase::Light => "light",
        };
        let cs_per_s = ops.work / ops.busy.as_secs_f64();
        let msgs = ops.messages as f64 / ops.cs.max(1) as f64;
        out.set(&format!("sim.{name}_cs_per_s"), cs_per_s);
        out.set(&format!("sim.{name}_msgs_per_cs"), msgs);
        out.report.push(format!(
            "simulator, {name} (lambda {}, N={N}): {} operations of {} CS, {cs_per_s:.0} CS/s, \
             {msgs:.4} msgs/CS (Eq. 4: {:.4}, Eq. 1: {:.4})",
            phase.lambda(),
            ops.count,
            phase.cs_per_op(),
            formulas::arbiter_messages_heavy(N),
            formulas::arbiter_messages_light(N)
        ));
        self_s.extend(ops.self_s);
        steps.merge(&ops.spans);
    }
    let (calls, ns) = steps
        .iter()
        .filter(|(name, _)| name.starts_with("protocol.step."))
        .fold((0, 0), |(c, t), (_, a)| (c + a.calls, t + a.total_ns));
    out.set("sim.step_ns", ns as f64 / calls.max(1) as f64);
    out.set("sim.self_s", median(&self_s));
}
