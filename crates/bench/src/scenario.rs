//! The fault-plane and elasticity scenarios (DESIGN.md §10.5, §11),
//! measured in virtual time on one [`ScenarioDriver`].
//!
//! A scenario runs three phases of the same mixed workload — stats of a
//! committed stable universe plus create/unlink churn on a transient one,
//! 3:1, one op per driver tick — against one region: a healthy baseline,
//! a window running the scenario's fault script, and, after
//! [`ScenarioDriver::settle`], the baseline again.
//!
//! Each op's virtual latency is the cost trace it records under
//! [`LatencyProfile::default`] plus the retry backoff it slept on the
//! region clock — what one uncontended client sees in qsim. Phase
//! throughput is ops over summed latency. Both are exact per run, so the
//! recovery gate (post ≥ [`RECOVERY_BAR`] × baseline) cannot flip between
//! runs. Wall-clock time for the same crash + broker-loss + reshard mix
//! is perfbench's `churn_faults` workload.

use std::sync::Arc;

use fsapi::FileSystem;
use pacon::region::RegionCore;
use pacon::{DegradedMode, PaconConfig, RegionReport, ScenarioDriver};
use simnet::Topology;
use simnet::{with_recording, FaultEvent, FaultPlan, LatencyHistogram, LatencyProfile, NodeId};

use crate::CRED;

const NODES: u32 = 3;
/// Virtual ns the driver advances per workload tick (well under the
/// 8 ms RPC deadline / probe interval).
const STEP_NS: u64 = 400_000;
/// Worker rounds a drain may take to settle every published op.
const DRAIN_ROUNDS: u32 = 2_000_000;
/// Post-fault virtual throughput must reach this share of the baseline.
pub const RECOVERY_BAR: f64 = 0.9;

fn sfile(i: usize) -> String {
    format!("/app/s{}/f{}", (i / 4) % 4, i % 4)
}

fn tfile(i: usize) -> String {
    format!("/app/t{}/f{}", (i / 4) % 4, i % 4)
}

/// A fault script for the middle of three workload phases.
pub struct Scenario {
    pub name: &'static str,
    workload: &'static str,
    labels: [&'static str; 3],
    /// Counters reported per phase (as deltas).
    phase_counters: fn(&RegionReport) -> [(&'static str, u64); 2],
    /// Counters reported for the whole run.
    totals: fn(&RegionReport) -> Vec<(&'static str, u64)>,
    /// Keys the background transfer moves per tick.
    pump: usize,
    /// Events at `num/den` of the window.
    events: &'static [(u64, u64, FaultEvent)],
    /// Scenario-specific acceptance, given the region's final report:
    /// the window exercised what it scripts.
    check: fn(&Report, &RegionReport, &RegionCore),
}

/// Cache node 1 and node 2's broker crash early; the broker heals at
/// 80 % and the cache node restarts (cold) at the window's edge, so the
/// probe and rewarm land in `settle`.
pub const CHAOS: Scenario = Scenario {
    name: "chaos",
    workload: "3:1 stat:churn; cache-node crash + broker loss mid-window",
    labels: ["pre-fault", "fault window", "post-recovery"],
    phase_counters: |r| [("degraded_reads", r.degraded_reads), ("rpc_retries", r.rpc_retries)],
    totals: |r| {
        vec![
            ("rpc_retries", r.rpc_retries),
            ("degraded_reads", r.degraded_reads),
            ("degraded_recoveries", r.degraded_recoveries),
            ("degraded_window_ns", r.degraded_window_ns),
            ("rewarm_keys", r.rewarm_keys),
            ("duplicate_drops", r.duplicate_drops),
        ]
    },
    pump: 0,
    events: &[
        (1, 10, FaultEvent::CrashCacheNode(NodeId(1))),
        (1, 8, FaultEvent::CrashBroker(NodeId(2))),
        (1, 4, FaultEvent::DuplicateCommitSends { node: NodeId(0), count: 8 }),
        (8, 10, FaultEvent::HealCommitLink(NodeId(2))),
        (97, 100, FaultEvent::RestartCacheNode(NodeId(1))),
    ],
    check: |r, end, core| {
        let [(_, degraded), (_, retries)] = r.phases[1].counters;
        assert!(retries > 0, "no RPC retries despite a cache crash");
        assert!(degraded > 0, "no degraded reads despite a cache crash");
        assert!(end.degraded_recoveries > 0, "degraded window never closed");
        assert_eq!(core.degraded.mode(), DegradedMode::Healthy);
        assert_eq!(r.phases[2].counters[0].1, 0, "post-recovery reads still degraded");
    },
};

/// Node 2 leaves and rejoins, then node 1 does the same; the per-tick
/// pump finishes each transfer before the next event.
pub const RESHARD: Scenario = Scenario {
    name: "reshard",
    workload: "3:1 stat:churn; two live leave/join cycles mid-window",
    labels: ["quiescent", "live reshard", "post-reshard"],
    phase_counters: |r| {
        [("keys_migrated", r.keys_migrated), ("wrong_epoch_retries", r.wrong_epoch_retries)]
    },
    totals: |r| {
        vec![
            ("ring_epoch", r.ring_epoch),
            ("reshard_started", r.reshard_started),
            ("keys_migrated", r.keys_migrated),
            ("wrong_epoch_retries", r.wrong_epoch_retries),
            ("migration_aborts", r.migration_aborts),
        ]
    },
    pump: 4,
    events: &[
        (1, 10, FaultEvent::LeaveNode(NodeId(2))),
        (3, 10, FaultEvent::JoinNode(NodeId(2))),
        (5, 10, FaultEvent::LeaveNode(NodeId(1))),
        (7, 10, FaultEvent::JoinNode(NodeId(1))),
    ],
    check: |r, end, core| {
        assert!(end.reshard_started >= 4, "all four membership events must start");
        assert!(r.phases[1].counters[0].1 > 0, "no keys moved during the reshard window");
        assert_eq!(core.cache_cluster.members().len(), NODES as usize, "ring must end full");
    },
};

pub const ALL: [&Scenario; 2] = [&CHAOS, &RESHARD];

/// One measured phase, in virtual time.
pub struct Phase {
    pub label: &'static str,
    /// Throughput of one uncontended closed-loop client: ops over summed
    /// per-op virtual latency.
    pub vops_per_sec: f64,
    pub vlat_mean_ns: u64,
    pub vlat_p50_ns: u64,
    pub vlat_p99_ns: u64,
    pub vlat_p999_ns: u64,
    /// Retry backoff slept on the region clock.
    pub backoff_ns: u64,
    /// Deltas of the scenario's per-phase counters.
    pub counters: [(&'static str, u64); 2],
}

/// Drive `items` ticks of the mixed workload under `plan`.
fn run_phase(
    s: &Scenario,
    label: &'static str,
    items: u32,
    d: &mut ScenarioDriver,
    plan: &FaultPlan,
) -> Phase {
    let core = Arc::clone(d.core());
    let before = (s.phase_counters)(&d.region().report());
    let (mut vlat_ns, mut backoff_ns, mut hist) = (0, 0, LatencyHistogram::new());
    for i in 0..items as usize {
        d.tick(STEP_NS, plan, s.pump).unwrap_or_else(|e| panic!("[{label}] tick: {e:?}"));
        let c = &d.clients()[i % d.clients().len()];
        let slept_before = core.sim_ns();
        let ((), trace) = with_recording(|| match i % 4 {
            // Churn: alternate create/unlink of a transient slot. Either
            // may fail mid-fault; the op still counts — the bench
            // measures the client path.
            3 => {
                let p = tfile(i / 4);
                let _ =
                    if (i / 4) % 2 == 0 { c.create(&p, &CRED, 0o644) } else { c.unlink(&p, &CRED) };
            }
            // Reads dominate: a committed stable path must stay readable
            // through any fault or reshard state.
            _ => {
                c.stat(&sfile(i % 16), &CRED)
                    .unwrap_or_else(|e| panic!("[{label}] stable stat {e:?}"));
            }
        });
        let backoff = core.sim_ns() - slept_before;
        let lat = trace.total_ns() + backoff;
        vlat_ns += lat;
        backoff_ns += backoff;
        hist.record(lat);
        d.step_workers();
    }
    let mut counters = (s.phase_counters)(&d.region().report());
    for ((_, c), (_, b)) in counters.iter_mut().zip(before) {
        *c -= b;
    }
    let q = |q: f64| hist.percentile(q).unwrap_or(0);
    Phase {
        label,
        vops_per_sec: items as f64 * 1e9 / vlat_ns.max(1) as f64,
        vlat_mean_ns: vlat_ns / items.max(1) as u64,
        vlat_p50_ns: q(0.50),
        vlat_p99_ns: q(0.99),
        vlat_p999_ns: q(0.999),
        backoff_ns,
        counters,
    }
}

/// One scenario's measured result.
pub struct Report {
    pub scenario: &'static Scenario,
    pub items: u32,
    pub phases: [Phase; 3],
    pub totals: Vec<(&'static str, u64)>,
    /// Post-fault virtual throughput over the baseline's.
    pub recovery_ratio: f64,
}

/// Run `s` with `items` ops per phase; panics when it misses its
/// acceptance bar.
pub fn run(s: &'static Scenario, items: u32) -> Report {
    let dfs = dfs::DfsCluster::with_default_config(Arc::new(LatencyProfile::default()));
    dfs.client().mkdir("/app", &CRED, 0o777).expect("mkdir /app");
    let mut config = PaconConfig::new("/app", Topology::new(NODES, 1), CRED);
    // Mid-fault duplicate-create spins settle idempotently; keep the ones
    // that must retry from burning the default 10k budget first.
    config.max_commit_retries = 200;
    let mut d = ScenarioDriver::launch(config, &dfs).expect("pacon launch");

    // Stable universe: committed before measurement, stat'd throughout.
    let stable: Vec<String> = (0..16).map(sfile).collect();
    for dir in 0..4 {
        let c = &d.clients()[dir % 3];
        c.mkdir(&format!("/app/s{dir}"), &CRED, 0o755).expect("mkdir stable");
        c.mkdir(&format!("/app/t{dir}"), &CRED, 0o755).expect("mkdir transient");
    }
    for (i, p) in stable.iter().enumerate() {
        d.clients()[i % 3].create(p, &CRED, 0o644).expect("create stable");
    }
    d.drain(DRAIN_ROUNDS).expect("commit the stable universe");

    let [pre_label, mid_label, post_label] = s.labels;
    let pre = run_phase(s, pre_label, items, &mut d, &FaultPlan::empty());
    let (t0, window) = (d.core().sim_ns(), items as u64 * STEP_NS);
    let plan = FaultPlan::from_events(
        s.events.iter().map(|(num, den, ev)| (t0 + window * num / den, *ev)).collect(),
    );
    let mid = run_phase(s, mid_label, items, &mut d, &plan);
    assert_eq!(plan.remaining(), 0, "fault script fully applied");
    d.settle(&stable, DRAIN_ROUNDS).expect("settle after the fault window");
    let post = run_phase(s, post_label, items, &mut d, &FaultPlan::empty());

    let end = d.region().report();
    let recovery_ratio = post.vops_per_sec / pre.vops_per_sec;
    let report = Report {
        scenario: s,
        items,
        totals: (s.totals)(&end),
        phases: [pre, mid, post],
        recovery_ratio,
    };
    (s.check)(&report, &end, d.core());
    // The recovered region must carry no permanent drag.
    assert!(
        recovery_ratio >= RECOVERY_BAR,
        "acceptance: {post_label} virtual throughput fell to {recovery_ratio:.4}x of {pre_label}"
    );
    report
}

impl Report {
    /// The `BENCH_<name>.json` document (hand-rolled; no serde in the
    /// workspace).
    pub fn to_json(&self) -> String {
        let s = self.scenario;
        let fields = |counters: &[(&str, u64)]| -> Vec<String> {
            counters.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect()
        };
        let phases: Vec<String> = self
            .phases
            .iter()
            .map(|ph| {
                format!(
                    "    {{ \"phase\": \"{}\", \"vops_per_sec\": {:.1}, \"vlat_mean_ns\": {}, \
                     \"vlat_p50_ns\": {}, \"vlat_p99_ns\": {}, \"vlat_p999_ns\": {}, \
                     \"backoff_ns\": {}, {} }}",
                    ph.label,
                    ph.vops_per_sec,
                    ph.vlat_mean_ns,
                    ph.vlat_p50_ns,
                    ph.vlat_p99_ns,
                    ph.vlat_p999_ns,
                    ph.backoff_ns,
                    fields(&ph.counters).join(", "),
                )
            })
            .collect();
        format!(
            "{{\n  \"bench\": \"{}\",\n  \"clock\": \"virtual\",\n  \"workload\": \"{}\",\n  \
             \"items_per_phase\": {},\n  \"phases\": [\n{}\n  ],\n  \"totals\": {{ {} }},\n  \
             \"recovery_ratio\": {:.4}\n}}\n",
            s.name,
            s.workload,
            self.items,
            phases.join(",\n"),
            fields(&self.totals).join(", "),
            self.recovery_ratio,
        )
    }
}
