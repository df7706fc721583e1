//! The paper's §2.2 illustrative example (Figure 2), replayed on the
//! simulator with a flight recorder keeping every trace event.
//!
//! Run with: `cargo run --release --example fig2_walkthrough`

use tokq::obs::{timeline, Level, Obs, Source};
use tokq::protocol::arbiter::ArbiterConfig;
use tokq::simnet::{SimConfig, SimTime, Simulation};
use tokq::workload::fig2_script;

fn main() {
    let mut cfg = SimConfig::paper_defaults(5);
    cfg.warmup_cs = 0;
    cfg.max_sim_time = Some(SimTime::from_secs_f64(5.0));
    let obs = Obs::disabled(Source::Sim);
    let recorder = obs.attach_flight_recorder(4096, Level::Trace);
    let report = Simulation::build(cfg, ArbiterConfig::basic(), fig2_script())
        .with_obs(obs)
        .run_to_quiescence();

    println!("paper §2.2 walkthrough — node 1 is the initial arbiter;");
    println!("nodes 2 and 5 request during its collection phase, node 4 during");
    println!("forwarding, and node 3 at the next arbiter (ids are 0-based here):\n");
    print!("{}", timeline(&recorder.snapshot()));
    println!("\ncritical sections completed: {}", report.cs_total);
    println!("message counts: {:?}", report.messages_by_kind);
    assert_eq!(report.cs_total, 4, "nodes 2, 5, 4 and 3 each enter once");
}
