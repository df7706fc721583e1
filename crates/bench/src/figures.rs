//! One function per paper artifact (Figures 2–6, the analytic table, and
//! the extension experiments).

use tokq_analysis::formulas::{self, ModelParams};
use tokq_analysis::queueing;
use tokq_analysis::report::Table;
use tokq_obs::{timeline, Level, Obs, Source};
use tokq_protocol::arbiter::{ArbiterConfig, MonitorConfig, MonitorPeriod, RecoveryConfig};
use tokq_protocol::types::{NodeId, TimeDelta};
use tokq_simnet::fault::FaultPlan;
use tokq_simnet::sim::Simulation;
use tokq_simnet::time::SimTime;
use tokq_workload::{fig2_script, LoadSweep, Workload};

use crate::runner::{Algo, RunSettings};

/// Figure 2: the §2.2 illustrative example, rendered as an event timeline.
///
/// Five nodes; node 1 (paper numbering) starts as arbiter; nodes 2, 5
/// request during the collection phase, node 4 during forwarding, node 3
/// at the next arbiter — reproducing the narrative of the example.
pub fn fig2() -> String {
    let mut cfg = tokq_simnet::sim::SimConfig::paper_defaults(5);
    cfg.warmup_cs = 0;
    cfg.max_sim_time = Some(SimTime::from_secs_f64(5.0));
    let obs = Obs::disabled(Source::Sim);
    let recorder = obs.attach_flight_recorder(4096, Level::Trace);
    let report = Simulation::build(cfg, ArbiterConfig::basic(), fig2_script())
        .with_obs(obs)
        .run_to_quiescence();
    let mut out = String::new();
    out.push_str("## fig2-example — paper §2.2 walkthrough (5 nodes, unit phases)\n");
    out.push_str(&timeline(&recorder.snapshot()));
    out.push_str(&format!(
        "\ncompleted critical sections: {} (expected 4: nodes 2, 5, 4, 3)\n",
        report.cs_total
    ));
    out
}

/// Shared sweep for Figures 3, 4 and 5: average messages per CS, average
/// delay per CS, and forwarded fraction versus arrival rate, for
/// `T_req ∈ {0.1, 0.2}` (the paper's continuous and dotted curves).
pub fn fig345(s: RunSettings) -> (Table, Table, Table) {
    let sweep = LoadSweep::paper();
    let mut fig3 = Table::new(
        "fig3-messages — avg messages per CS vs arrival rate (N=10)",
        &[
            "lambda",
            "msgs_treq0.1",
            "ci95_0.1",
            "msgs_treq0.2",
            "ci95_0.2",
        ],
    );
    let mut fig4 = Table::new(
        "fig4-delay — avg delay per CS vs arrival rate (N=10)",
        &[
            "lambda",
            "delay_treq0.1",
            "ci95_0.1",
            "delay_treq0.2",
            "ci95_0.2",
        ],
    );
    let mut fig5 = Table::new(
        "fig5-forwarded — fraction of forwarded requests vs arrival rate (N=10)",
        &["lambda", "frac_treq0.1", "frac_treq0.2"],
    );
    for (idx, point) in sweep.points().iter().enumerate() {
        let mut row3 = vec![point.lambda.into()];
        let mut row4 = vec![point.lambda.into()];
        let mut row5 = vec![point.lambda.into()];
        for (tc_idx, t_collect) in [0.1f64, 0.2f64].iter().enumerate() {
            let cfg = ArbiterConfig::basic().with_t_collect(TimeDelta::from_secs_f64(*t_collect));
            let sim = s.sim((idx * 2 + tc_idx) as u64);
            let r = Algo::Arbiter(cfg).run(sim, Workload::poisson(point.lambda), s.cs_per_point);
            row3.push(r.messages_per_cs().into());
            row3.push(r.per_cs_messages.ci95_half_width().into());
            row4.push(r.mean_delay().into());
            row4.push(r.delay.ci95_half_width().into());
            row5.push(r.forwarded_fraction().into());
        }
        fig3.row(row3);
        fig4.row(row4);
        fig5.row(row5);
    }
    (fig3, fig4, fig5)
}

/// Figure 6: messages per CS vs arrival rate for the arbiter algorithm,
/// Ricart–Agrawala, and Singhal's dynamic algorithm (N=10).
pub fn fig6(s: RunSettings) -> Table {
    let sweep = LoadSweep::paper();
    let mut t = Table::new(
        "fig6-comparison — avg messages per CS vs arrival rate (N=10)",
        &["lambda", "arbiter", "ricart_agrawala", "singhal_dynamic"],
    );
    for (idx, point) in sweep.points().iter().enumerate() {
        let mut row = vec![point.lambda.into()];
        for (a_idx, algo) in [
            Algo::Arbiter(ArbiterConfig::basic()),
            Algo::RicartAgrawala,
            Algo::Singhal,
        ]
        .iter()
        .enumerate()
        {
            let sim = s.sim((idx * 3 + a_idx) as u64 ^ 0x600);
            let r = algo.run(sim, Workload::poisson(point.lambda), s.cs_per_point);
            row.push(r.messages_per_cs().into());
        }
        t.row(row);
    }
    t
}

/// The analytic validation table: Eqs. 1, 3, 4, 6 versus simulation at the
/// load extremes, across system sizes.
pub fn table_analytic(s: RunSettings) -> Table {
    let p = ModelParams::paper();
    let mut t = Table::new(
        "table-analytic — paper Eqs. 1/3/4/6 vs simulation",
        &[
            "N",
            "light_msgs_eq1",
            "light_msgs_sim",
            "light_delay_eq3",
            "light_delay_sim",
            "heavy_msgs_eq4",
            "heavy_msgs_sim",
            "heavy_delay_eq6",
            "heavy_delay_sim",
        ],
    );
    for (idx, n) in [5usize, 10, 20, 50].iter().enumerate() {
        let mut st = s;
        st.n = *n;
        // Scale the point budget down for the big, slow configurations.
        let cs = (s.cs_per_point / (*n as u64 / 5).max(1)).max(2_000);
        // Light load: keep the whole system's utilization tiny.
        let light_rate = 0.02 / *n as f64 * 10.0;
        let light = Algo::Arbiter(ArbiterConfig::basic()).run(
            st.sim(idx as u64 ^ 0xA11),
            Workload::poisson(light_rate),
            cs.min(10_000),
        );
        let heavy = Algo::Arbiter(ArbiterConfig::basic()).run(
            st.sim(idx as u64 ^ 0xA22),
            Workload::saturating(),
            cs,
        );
        t.row(vec![
            (*n).into(),
            formulas::arbiter_messages_light(*n).into(),
            light.messages_per_cs().into(),
            formulas::arbiter_delay_light(*n, p).into(),
            light.mean_delay().into(),
            formulas::arbiter_messages_heavy(*n).into(),
            heavy.messages_per_cs().into(),
            formulas::arbiter_delay_heavy(*n, p).into(),
            heavy.mean_delay().into(),
        ]);
    }
    t
}

/// §7 tuning study: the paper's two tunables (`T_req`, `T_fwd`) swept as a
/// grid at moderate load — the messages-vs-delay trade-off surface.
pub fn tuning(s: RunSettings) -> Table {
    let mut t = Table::new(
        "ext-tuning — T_req × T_fwd grid at λ=0.3 (N=10): msgs/CS, delay, drops",
        &[
            "t_req",
            "t_fwd",
            "msgs_per_cs",
            "mean_delay",
            "dropped",
            "forwarded",
        ],
    );
    let mut idx = 0u64;
    for t_req_ms in [50u64, 100, 200, 400] {
        for t_fwd_ms in [10u64, 100, 250] {
            let cfg = ArbiterConfig::basic()
                .with_t_collect(TimeDelta::from_millis(t_req_ms))
                .with_t_forward(TimeDelta::from_millis(t_fwd_ms));
            let r = Algo::Arbiter(cfg).run(
                s.sim(idx ^ 0x7u64),
                Workload::poisson(0.3),
                (s.cs_per_point / 4).max(2_000),
            );
            idx += 1;
            t.row(vec![
                (t_req_ms as f64 / 1000.0).into(),
                (t_fwd_ms as f64 / 1000.0).into(),
                r.messages_per_cs().into(),
                r.mean_delay().into(),
                r.note_count("request_dropped").into(),
                r.note_count("request_forwarded").into(),
            ]);
        }
    }
    t
}

/// System-size scaling at saturation: messages per CS versus N for every
/// implemented algorithm (the paper's §7 future work asks for broader
/// comparisons; the arbiter's O(1) heavy-load cost is its selling point).
pub fn scaling(s: RunSettings) -> Table {
    let mut t = Table::new(
        "ext-scaling — messages per CS at saturation vs N",
        &[
            "N",
            "arbiter",
            "raymond",
            "suzuki_kasami",
            "singhal",
            "ricart_agrawala",
            "maekawa",
        ],
    );
    for (i, n) in [4usize, 8, 16, 32].iter().enumerate() {
        let mut st = s;
        st.n = *n;
        let cs = (s.cs_per_point / (*n as u64 / 4).max(1)).max(2_000);
        let mut row = vec![(*n).into()];
        for (j, algo) in [
            Algo::Arbiter(ArbiterConfig::basic()),
            Algo::Raymond,
            Algo::SuzukiKasami,
            Algo::Singhal,
            Algo::RicartAgrawala,
            Algo::Maekawa,
        ]
        .iter()
        .enumerate()
        {
            let r = algo.run(
                st.sim((i * 8 + j) as u64 ^ 0x5CA1E),
                Workload::saturating(),
                cs,
            );
            row.push(r.messages_per_cs().into());
        }
        t.row(row);
    }
    t
}

/// Queueing-model validation: the batch-service model of
/// `tokq_analysis::queueing` against simulation across the whole Figure 3/4
/// load range (the paper's analysis covers only the extremes).
pub fn model_vs_sim(s: RunSettings) -> Table {
    let p = ModelParams::paper();
    let sweep = LoadSweep::paper();
    let mut t = Table::new(
        "ext-model — batch-service queueing model vs simulation (N=10)",
        &[
            "lambda",
            "batch_B",
            "msgs_model",
            "msgs_sim",
            "delay_model",
            "delay_sim",
        ],
    );
    for (idx, point) in sweep.points().iter().enumerate() {
        let r = Algo::Arbiter(ArbiterConfig::basic()).run(
            s.sim(idx as u64 ^ 0x40DE1),
            Workload::poisson(point.lambda),
            (s.cs_per_point / 2).max(2_000),
        );
        t.row(vec![
            point.lambda.into(),
            queueing::batch_size(point.lambda, s.n, p).into(),
            queueing::predicted_messages(point.lambda, s.n, p).into(),
            r.messages_per_cs().into(),
            queueing::predicted_delay(point.lambda, s.n, p).into(),
            r.mean_delay().into(),
        ]);
    }
    t
}

/// Baseline positioning (§2.4/§3 claims): messages per CS at saturation
/// and at light load for every implemented algorithm, N = 10.
pub fn baselines(s: RunSettings) -> Table {
    let mut t = Table::new(
        "ext-baselines — messages per CS, all algorithms (N=10)",
        &["algorithm", "light_load", "heavy_load", "model_heavy"],
    );
    let algos: Vec<(Algo, f64)> = vec![
        (
            Algo::Arbiter(ArbiterConfig::basic()),
            formulas::arbiter_messages_heavy(s.n),
        ),
        (
            Algo::RicartAgrawala,
            formulas::ricart_agrawala_messages(s.n),
        ),
        (Algo::Singhal, f64::NAN),
        (Algo::SuzukiKasami, formulas::suzuki_kasami_messages(s.n)),
        (Algo::Raymond, formulas::raymond_messages_heavy()),
        (Algo::Maekawa, f64::NAN),
        (Algo::Centralized, formulas::centralized_messages(s.n)),
    ];
    for (idx, (algo, model)) in algos.iter().enumerate() {
        let light = algo.run(
            s.sim(idx as u64 ^ 0xBA5E),
            Workload::poisson(0.02),
            (s.cs_per_point / 3).max(2_000),
        );
        let heavy = algo.run(
            s.sim(idx as u64 ^ 0xBEEF),
            Workload::saturating(),
            s.cs_per_point,
        );
        t.row(vec![
            algo.name().into(),
            light.messages_per_cs().into(),
            heavy.messages_per_cs().into(),
            (*model).into(),
        ]);
    }
    t
}

/// §4 starvation experiment: the basic algorithm versus the
/// starvation-free monitor variant under forwarding-hostile settings
/// (short forwarding phase, light load), plus a monitor-period ablation.
pub fn starvation(s: RunSettings) -> Vec<Table> {
    // Forwarding-hostile: tiny forwarding window makes drops common.
    let hostile_collect = TimeDelta::from_millis(100);
    let hostile_forward = TimeDelta::from_millis(10);
    let lambda = 0.15;

    let mut head = Table::new(
        "ext-starvation — basic vs starvation-free under forwarding-hostile settings (N=10, T_fwd=0.01)",
        &[
            "variant",
            "msgs_per_cs",
            "mean_delay",
            "max_delay",
            "dropped",
            "escalated",
            "monitor_visits",
        ],
    );
    let variants: Vec<(&str, ArbiterConfig)> = vec![
        (
            "basic",
            ArbiterConfig::basic()
                .with_t_collect(hostile_collect)
                .with_t_forward(hostile_forward),
        ),
        (
            "starvation-free",
            ArbiterConfig {
                monitor: Some(MonitorConfig::default()),
                ..ArbiterConfig::basic()
                    .with_t_collect(hostile_collect)
                    .with_t_forward(hostile_forward)
            },
        ),
    ];
    for (idx, (name, cfg)) in variants.into_iter().enumerate() {
        let r = Algo::Arbiter(cfg).run(
            s.sim(idx as u64 ^ 0x57A),
            Workload::poisson(lambda),
            (s.cs_per_point / 2).max(2_000),
        );
        head.row(vec![
            name.into(),
            r.messages_per_cs().into(),
            r.mean_delay().into(),
            r.delay.max().into(),
            r.note_count("request_dropped").into(),
            r.note_count("request_escalated").into(),
            r.note_count("monitor_visit").into(),
        ]);
    }

    let mut ablation = Table::new(
        "ext-starvation-ablation — monitor period policy (N=10, λ=0.3)",
        &[
            "policy",
            "msgs_per_cs",
            "mean_delay",
            "max_delay",
            "monitor_visits",
        ],
    );
    let policies: Vec<(&str, MonitorPeriod)> = vec![
        ("adaptive(w=16)", MonitorPeriod::Adaptive { window: 16 }),
        ("fixed(1)", MonitorPeriod::Fixed { every: 1 }),
        ("fixed(4)", MonitorPeriod::Fixed { every: 4 }),
        ("fixed(16)", MonitorPeriod::Fixed { every: 16 }),
    ];
    for (idx, (name, period)) in policies.into_iter().enumerate() {
        let cfg = ArbiterConfig {
            monitor: Some(MonitorConfig {
                period,
                ..MonitorConfig::default()
            }),
            ..ArbiterConfig::basic()
        };
        let r = Algo::Arbiter(cfg).run(
            s.sim(idx as u64 ^ 0x57B),
            Workload::poisson(0.3),
            (s.cs_per_point / 2).max(2_000),
        );
        ablation.row(vec![
            name.into(),
            r.messages_per_cs().into(),
            r.mean_delay().into(),
            r.delay.max().into(),
            r.note_count("monitor_visit").into(),
        ]);
    }
    vec![head, ablation]
}

/// §6 recovery experiment: deterministic token drops and arbiter crashes
/// under the fault-tolerant configuration; the run must stay safe and
/// complete its target.
pub fn recovery(s: RunSettings) -> Table {
    let mut t = Table::new(
        "ext-recovery — fault injection under the fault-tolerant config (N=10, λ=0.5)",
        &[
            "scenario",
            "cs_done",
            "msgs_per_cs",
            "max_delay",
            "warnings",
            "invalidations",
            "regenerated",
            "takeovers",
        ],
    );
    let cfg = ArbiterConfig {
        recovery: Some(RecoveryConfig::default()),
        ..ArbiterConfig::basic()
    };
    let target = (s.cs_per_point / 10).max(1_000);
    let scenarios: Vec<(&str, FaultPlan)> = vec![
        ("fault-free", FaultPlan::none()),
        (
            "token-drop@30s",
            FaultPlan::none().drop_token(SimTime::from_secs_f64(30.0), 1),
        ),
        (
            "token-drop-x3",
            FaultPlan::none()
                .drop_token(SimTime::from_secs_f64(30.0), 1)
                .drop_token(SimTime::from_secs_f64(90.0), 1)
                .drop_token(SimTime::from_secs_f64(150.0), 1),
        ),
        (
            "crash-node3@40s",
            FaultPlan::none()
                .crash(NodeId(3), SimTime::from_secs_f64(40.0))
                .recover(NodeId(3), SimTime::from_secs_f64(80.0)),
        ),
        (
            "crash-initial-arbiter@20s",
            FaultPlan::none()
                .crash(NodeId(0), SimTime::from_secs_f64(20.0))
                .recover(NodeId(0), SimTime::from_secs_f64(60.0)),
        ),
    ];
    for (idx, (name, plan)) in scenarios.into_iter().enumerate() {
        let mut sim = s.sim(idx as u64 ^ 0x6EC);
        sim.max_sim_time = Some(SimTime::from_secs_f64(100_000.0));
        let r = Simulation::build(sim, cfg.clone(), Workload::poisson(0.5))
            .with_faults(plan)
            .run_until_cs(target);
        t.row(vec![
            name.into(),
            r.cs_measured.into(),
            r.messages_per_cs().into(),
            r.delay.max().into(),
            r.note_count("token_warning").into(),
            r.note_count("invalidation_started").into(),
            r.note_count("token_regenerated").into(),
            r.note_count("arbiter_takeover").into(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RunSettings {
        RunSettings {
            cs_per_point: 300,
            seed: 11,
            n: 10,
        }
    }

    #[test]
    fn fig2_produces_four_critical_sections() {
        let out = fig2();
        assert!(out.contains("completed critical sections: 4"), "{out}");
        assert!(out.contains("NEW-ARBITER"), "{out}");
    }

    /// The committed Figure 2 artifact is what the code prints today.
    #[test]
    fn fig2_matches_the_committed_artifact() {
        let full = include_str!("../../../results/experiments_full.txt");
        let end = full
            .find("\n## fig3-messages")
            .expect("artifact has a fig3 block after fig2");
        assert_eq!(fig2(), &full[..end]);
    }

    #[test]
    fn fig6_arbiter_beats_ricart_agrawala() {
        let mut s = tiny();
        s.cs_per_point = 500;
        let t = fig6(s);
        // At the heaviest load the arbiter column must be far below RA's
        // 2(N-1)=18.
        let last = t.rows.last().expect("has rows");
        let arb = match last[1] {
            tokq_analysis::report::Cell::Num(v) => v,
            _ => panic!("expected number"),
        };
        let ra = match last[2] {
            tokq_analysis::report::Cell::Num(v) => v,
            _ => panic!("expected number"),
        };
        assert!(arb < 4.0, "arbiter got {arb}");
        assert!(ra > 15.0, "RA got {ra}");
    }

    #[test]
    fn recovery_scenarios_all_complete() {
        let s = RunSettings {
            cs_per_point: 3_000,
            seed: 5,
            n: 10,
        };
        let t = recovery(s);
        for row in &t.rows {
            let done = match row[1] {
                tokq_analysis::report::Cell::Int(v) => v,
                _ => panic!("expected int"),
            };
            assert!(done >= 300, "scenario {:?} completed only {done}", row[0]);
        }
    }
}
