//! Edge cases of the Varys event loop: degenerate flows, horizon cutoff,
//! install-gated flow start, and metric bookkeeping.

use hermes_core::config::HermesConfig;
use hermes_netsim::prelude::*;
use hermes_tcam::SwitchModel;
use hermes_workloads::facebook::{FlowSpec, JobSpec};

fn job(id: usize, arrival_s: f64, flows: Vec<FlowSpec>) -> JobSpec {
    JobSpec {
        id,
        arrival_s,
        flows,
    }
}

#[test]
fn same_host_flow_completes_locally() {
    let topo = Topology::single_switch(2, 10e9);
    let mut sim = Varys::new(topo, VarysConfig::default());
    sim.register_jobs(&[job(
        0,
        0.0,
        vec![FlowSpec {
            src: 0,
            dst: 0,
            bytes: 1_000_000,
        }],
    )]);
    sim.run(10.0);
    assert_eq!(sim.metrics.fct_s.len(), 1);
}

#[test]
fn one_byte_flow() {
    let topo = Topology::single_switch(2, 10e9);
    let mut sim = Varys::new(topo, VarysConfig::default());
    sim.register_jobs(&[job(
        0,
        0.0,
        vec![FlowSpec {
            src: 0,
            dst: 1,
            bytes: 1,
        }],
    )]);
    sim.run(10.0);
    assert_eq!(sim.metrics.fct_s.len(), 1);
    let mut fct = sim.metrics.fct_s.clone();
    assert!(fct.median() >= 0.0);
}

#[test]
fn horizon_cuts_off_unfinished_flows() {
    let topo = Topology::single_switch(2, 1e6); // 1 Mb/s: 1 GB takes ages
    let mut sim = Varys::new(topo, VarysConfig::default());
    sim.register_jobs(&[job(
        0,
        0.0,
        vec![FlowSpec {
            src: 0,
            dst: 1,
            bytes: 1_000_000_000,
        }],
    )]);
    let end = sim.run(2.0);
    assert!(end.as_secs() <= 2.0 + 1e-9);
    assert_eq!(
        sim.metrics.fct_s.len(),
        0,
        "flow cannot finish inside the horizon"
    );
}

#[test]
fn gating_on_installs_one_rule_per_switch_on_path() {
    let topo = Topology::fat_tree(4, 10e9);
    let cfg = VarysConfig {
        switch: SwitchKind::Raw(SwitchModel::pica8_p3290()),
        // High threshold so the TE app never fires.
        congestion_threshold: 2.0,
        base_rules_per_switch: 10,
        ..Default::default()
    };
    let mut sim = Varys::new(topo, cfg);
    // Same-pod, different edge: 4 hops → 3 switches.
    sim.register_jobs(&[job(
        0,
        0.0,
        vec![FlowSpec {
            src: 0,
            dst: 2,
            bytes: 1_000_000,
        }],
    )]);
    sim.run(30.0);
    assert_eq!(sim.metrics.installs, 3);
    assert_eq!(sim.metrics.rit_ms.len(), 3);
}

#[test]
fn jct_short_long_split_matches_job_sizes() {
    let topo = Topology::fat_tree(4, 10e9);
    let mut sim = Varys::new(topo, VarysConfig::default());
    sim.register_jobs(&[
        job(
            0,
            0.0,
            vec![FlowSpec {
                src: 0,
                dst: 8,
                bytes: 100_000_000,
            }],
        ), // short
        job(
            1,
            0.0,
            vec![FlowSpec {
                src: 1,
                dst: 9,
                bytes: 2_000_000_000,
            }],
        ), // long
    ]);
    sim.run(200.0);
    assert_eq!(sim.metrics.jct_short_s.len(), 1);
    assert_eq!(sim.metrics.jct_long_s.len(), 1);
    assert_eq!(sim.jct_by_job.len(), 2);
}

#[test]
fn hermes_and_shadow_kinds_run_on_isp_topologies() {
    for topo in [Topology::abilene(), Topology::quest()] {
        let cfg = VarysConfig {
            switch: SwitchKind::Hermes(SwitchModel::dell_8132f(), HermesConfig::default()),
            base_rules_per_switch: 50,
            ..Default::default()
        };
        let n_hosts = topo.hosts().len();
        let mut sim = Varys::new(topo, cfg);
        let jobs: Vec<JobSpec> = (0..6)
            .map(|i| {
                job(
                    i,
                    i as f64 * 0.1,
                    vec![FlowSpec {
                        src: i % n_hosts,
                        dst: (i + 3) % n_hosts,
                        bytes: 20_000_000,
                    }],
                )
            })
            .collect();
        sim.register_jobs(&jobs);
        sim.run(120.0);
        assert_eq!(sim.metrics.fct_s.len(), 6);
    }
}
