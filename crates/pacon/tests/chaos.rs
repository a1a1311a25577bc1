//! Chaos harness for the deterministic fault plane: a seeded
//! [`FaultPlan`] storm (cache-node crashes/restarts, commit-link
//! partitions, lossy broker crashes, duplicated sends) runs against a
//! live region while a seeded workload keeps issuing metadata ops, all
//! in virtual time on a single driver thread.
//!
//! Properties checked against an unfaulted oracle (the acked ops applied
//! in program order to a plain DFS):
//!
//! * **No acknowledged update is lost.** After the storm clears, the
//!   redelivery windows flush and the queues drain, the faulted region's
//!   backup namespace is identical to the oracle's.
//! * **Degraded reads are never stale.** Every stat issued mid-storm on
//!   a fully committed path succeeds — served from the cache or, in
//!   degraded mode, from the DFS backup — and agrees with the backup.
//! * **The region returns to steady state.** After recovery the
//!   degraded-mode state machine is Healthy again and further reads are
//!   cache-served (the `degraded_reads` counter stops moving).
//!
//! Every scenario runs on [`ScenarioDriver`]: one paused region, one
//! client per node, the commit workers stepped tick by tick. On failure
//! the applied fault trace is written to `target/chaos/` so the run can
//! be replayed from its seed.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use dfs::DfsCluster;
use fsapi::{Credentials, FileKind, FileSystem, FsResult};
use pacon::{DegradedMode, PaconConfig, ScenarioDriver};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use simnet::{FaultEvent, FaultPlan, LatencyProfile, NodeId, Topology};

const NODES: u32 = 3;
/// Virtual ns the driver advances per workload iteration.
const STEP_NS: u64 = 400_000;
/// Storm window in virtual ns (well past the default 8 ms RPC deadline,
/// so mid-storm outages are long enough to force degraded mode).
const STORM_START: u64 = 10_000_000;
const STORM_END: u64 = 250_000_000;
const STORM_ROUNDS: u32 = 6;
/// Worker rounds a drain may take to settle every published op.
const DRAIN_ROUNDS: u32 = 500_000;

/// Stable universe: committed before the storm, stat'd throughout it.
fn sdir(d: usize) -> String {
    format!("/w/s{d}")
}
fn sfile(i: usize) -> String {
    format!("/w/s{}/f{}", (i / 3) % 4, i % 3)
}
/// Transient universe: churned by the mid-storm workload.
fn tdir(d: usize) -> String {
    format!("/w/t{d}")
}
fn tfile(i: usize) -> String {
    format!("/w/t{}/f{}", (i / 3) % 4, i % 3)
}

/// One acked (Ok-returning) workload op, replayed onto the oracle.
#[derive(Debug, Clone)]
enum Acked {
    Mkdir(String),
    Create(String),
    Unlink(String),
    Write(String, Vec<u8>),
}

/// Writes the applied fault trace to `target/chaos/` when the test
/// panics, so a failed storm can be replayed from its artifact.
struct TraceOnPanic<'a> {
    plan: &'a FaultPlan,
    name: String,
}

impl Drop for TraceOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let path =
                std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/chaos"))
                    .join(&self.name);
            if self.plan.write_trace(&path).is_ok() {
                eprintln!("fault trace written to {}", path.display());
            }
        }
    }
}

/// The stable paths the recovery probe stats.
fn stable_files() -> Vec<String> {
    (0..12).map(sfile).collect()
}

/// Build and fully commit the stable universe; returns its acked ops.
fn stable_universe(d: &mut ScenarioDriver, cred: &Credentials) -> FsResult<Vec<Acked>> {
    let clients = d.clients();
    let mut acked = Vec::new();
    for dir in 0..4 {
        clients[dir % 3].mkdir(&sdir(dir), cred, 0o755)?;
        acked.push(Acked::Mkdir(sdir(dir)));
    }
    for i in 0..12 {
        clients[(i / 3) % 3].create(&sfile(i), cred, 0o644)?;
        acked.push(Acked::Create(sfile(i)));
    }
    d.drain(DRAIN_ROUNDS)?;
    Ok(acked)
}

/// One seeded op on the transient universe; an `Ok` is recorded as acked.
fn churn(d: &ScenarioDriver, rng: &mut StdRng, cred: &Credentials, acked: &mut Vec<Acked>) {
    let clients = d.clients();
    match rng.gen_range(0u32..9) {
        0..=1 => {
            let dir = rng.gen_range(0usize..4);
            if clients[dir % 3].mkdir(&tdir(dir), cred, 0o755).is_ok() {
                acked.push(Acked::Mkdir(tdir(dir)));
            }
        }
        2..=5 => {
            let i = rng.gen_range(0usize..12);
            if clients[(i / 3) % 3].create(&tfile(i), cred, 0o644).is_ok() {
                acked.push(Acked::Create(tfile(i)));
            }
        }
        _ => {
            let i = rng.gen_range(0usize..12);
            if clients[(i / 3) % 3].unlink(&tfile(i), cred).is_ok() {
                acked.push(Acked::Unlink(tfile(i)));
            }
        }
    }
}

/// A committed path must stay readable through any fault — from the
/// cache, degraded from the backup, or double-read mid-migration — and
/// must agree with the backup (never staler than the DFS).
fn check_stable_stat(d: &ScenarioDriver, rng: &mut StdRng, cred: &Credentials, when: &str) {
    let p = sfile(rng.gen_range(0usize..12));
    let st = d.clients()[rng.gen_range(0usize..3)].stat(&p, cred);
    assert!(st.is_ok(), "stable path {p} unreadable {when}: {st:?}");
    let backup = d.region().dfs().client().stat(&p, cred).expect("stable path on backup");
    assert_eq!(st.unwrap().kind, backup.kind, "read of {p} {when} staler than backup");
}

/// Replay the acked ops in program order onto a fresh, unfaulted DFS and
/// return it. Re-acks of an already-satisfied op (the documented
/// degraded-mode duplicate-detection gap) are absorbed exactly like the
/// region's idempotent commit path absorbs them: apply-and-ignore.
fn oracle_dfs(
    profile: &Arc<LatencyProfile>,
    cred: &Credentials,
    acked: &[Acked],
) -> Arc<DfsCluster> {
    let dfs = DfsCluster::with_default_config(Arc::clone(profile));
    let fs = dfs.client();
    fs.mkdir("/w", cred, 0o777).unwrap();
    for op in acked {
        let _ = match op {
            Acked::Mkdir(p) => fs.mkdir(p, cred, 0o755),
            Acked::Create(p) => fs.create(p, cred, 0o644),
            Acked::Unlink(p) => fs.unlink(p, cred),
            Acked::Write(p, data) => fs.write(p, cred, 0, data).map(|_| ()),
        };
    }
    dfs
}

/// Assert the faulted region's backup namespace (and the contents of the
/// stable file slots) match the oracle's.
fn assert_matches_oracle(dfs: &Arc<DfsCluster>, oracle: &Arc<DfsCluster>, cred: &Credentials) {
    let got = dfs.snapshot();
    let want = oracle.snapshot();
    assert_eq!(got, want, "faulted namespace diverged from the oracle");
    let got_fs = dfs.client();
    let want_fs = oracle.client();
    for i in 0..12 {
        let p = sfile(i);
        assert_eq!(
            got_fs.read(&p, cred, 0, 4096).ok(),
            want_fs.read(&p, cred, 0, 4096).ok(),
            "contents of {p} diverged from the oracle"
        );
    }
}

/// Scenario A: the full storm (cache crashes included) over a namespace
/// workload, with committed paths stat'd throughout.
fn cache_storm(seed: u64) {
    namespace_storm(seed, false);
}

/// Scenario C: live resharding under the fault plane. The ring shrinks,
/// grows and loses nodes mid-transfer while the metadata workload keeps
/// running; the driver pumps the migration a few keys per tick, exactly
/// like a background transfer thread would. Every acked namespace update
/// must still reach the backup, every mid-storm stat of a committed path
/// must stay readable and agree with the backup, the ring epoch must be
/// monotonic tick over tick, and the region must end Healthy with the
/// reshard counters showing real work.
fn reshard_storm(seed: u64) {
    namespace_storm(seed, true);
}

/// Scenarios A and C: one namespace op and one stable stat per tick
/// under the cache storm or, with `reshard`, the reshard plan.
fn namespace_storm(seed: u64, reshard: bool) {
    let profile = Arc::new(LatencyProfile::zero());
    let cred = Credentials::new(1, 1);
    let dfs = DfsCluster::with_default_config(Arc::clone(&profile));
    let mut config = PaconConfig::new("/w", Topology::new(NODES, 1), cred);
    // Keep duplicate-create spins (the documented degraded-mode
    // admission gap) from burning 10k commit retries before they drop.
    config.max_commit_retries = 200;
    let mut d = ScenarioDriver::launch(config, &dfs).unwrap();
    let core = Arc::clone(d.core());

    // Phase 0: build and fully commit the stable universe.
    let mut acked = stable_universe(&mut d, &cred).unwrap();

    let (plan, name, salt, when) = if reshard {
        (reshard_plan(seed), "reshard-storm", 0x2545f4914f6cdd1d, "mid-reshard")
    } else {
        let plan = FaultPlan::storm(seed, NODES, STORM_START, STORM_END, STORM_ROUNDS);
        (plan, "cache-storm", 0x9e3779b97f4a7c15, "mid-storm")
    };
    let _trace = TraceOnPanic { plan: &plan, name: format!("{name}-{seed}.trace") };
    let mut rng = StdRng::seed_from_u64(seed ^ salt);

    // Phase 1: the storm. The tick checks ring-epoch monotonicity through
    // every fault event; the reshard storm's background transfer moves a
    // bounded batch of keys per tick.
    while core.sim_ns() < STORM_END + STEP_NS {
        let pump = if reshard { rng.gen_range(1usize..8) } else { 0 };
        d.tick(STEP_NS, &plan, pump).unwrap();
        churn(&d, &mut rng, &cred, &mut acked);
        check_stable_stat(&d, &mut rng, &cred, when);
        d.step_workers();
    }
    assert_eq!(plan.remaining(), 0, "storm events all applied");

    // Phase 2: recovery. CrashDuringMigration picks its own victim, so
    // the driver restarts whatever is still down, runs any in-flight
    // transfer to completion (the epoch must not regress), re-warms the
    // cache, flushes the redelivery windows and drains the queues.
    d.settle(&stable_files(), DRAIN_ROUNDS).unwrap();

    // No acknowledged update lost: backup namespace == oracle namespace.
    let oracle = oracle_dfs(&profile, &cred, &acked);
    assert_matches_oracle(&dfs, &oracle, &cred);
    assert_eq!(core.degraded.mode(), DegradedMode::Healthy);

    if reshard {
        // The storm is not vacuous: every plan schedules at least one
        // membership change, and the report surfaces the reshard telemetry.
        let report = d.region().report();
        assert!(report.reshard_started > 0, "plan scheduled no reshard");
        assert!(report.ring_epoch > 0, "membership churn left the epoch at zero");
        let text = report.to_string();
        assert!(text.contains("ring:"), "report lost the ring line:\n{text}");
        return;
    }

    // Steady state: reads are cache-served again.
    let degraded_before = core.counters.get("degraded_reads");
    for i in 0..12 {
        let st = d.clients()[i % 3].stat(&sfile(i), &cred).unwrap();
        assert_eq!(st.kind, FileKind::File);
    }
    assert_eq!(
        core.counters.get("degraded_reads"),
        degraded_before,
        "post-recovery reads still falling through to the backup"
    );

    // If the storm crashed a cache node mid-traffic, the fault plane must
    // actually have been exercised: retries burned, degraded reads
    // served, and the window closed by a recovery.
    let crashed = plan.trace().iter().any(|l| l.contains("CrashCacheNode"));
    if crashed {
        assert!(core.counters.get("rpc_retries") > 0, "no RPC retries despite a crash");
        assert!(core.counters.get("degraded_reads") > 0, "no degraded reads despite a crash");
        assert!(core.counters.get("degraded_recoveries") > 0, "degraded window never closed");
        assert!(core.degraded.window_ns(core.sim_ns()) > 0);
    }
}

/// Fresh WAL directory per run (durable scenario).
fn fresh_wal_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    std::env::temp_dir().join(format!(
        "pacon-chaos-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Link-fault-only plan: partitions, lossy broker crashes and duplicated
/// sends — the cache stays up, so inline-write data rides the WAL'd,
/// idempotent commit path through every outage.
fn link_plan(seed: u64) -> FaultPlan {
    let mut rng = StdRng::seed_from_u64(seed);
    let span = (STORM_END - STORM_START) / STORM_ROUNDS as u64;
    let mut events = Vec::new();
    for r in 0..STORM_ROUNDS {
        let slot = STORM_START + r as u64 * span;
        let t_fault = slot + rng.gen_range(0..span / 2);
        let t_clear = slot + span / 2 + rng.gen_range(0..span / 2);
        let node = NodeId(rng.gen_range(0..NODES));
        let fault = match rng.gen_range(0u32..3) {
            0 => FaultEvent::PartitionCommitLink(node),
            1 => FaultEvent::CrashBroker(node),
            _ => {
                let count = rng.gen_range(1u32..4);
                events.push((t_fault, FaultEvent::DuplicateCommitSends { node, count }));
                continue;
            }
        };
        events.extend([(t_fault, fault), (t_clear, FaultEvent::HealCommitLink(node))]);
    }
    FaultPlan::from_events(events)
}

/// Scenario B: broker loss and duplication under a write-heavy workload
/// on a durable (WAL'd) region. Acked writes must survive lost broker
/// buffers via publisher-side redelivery, and duplicated deliveries must
/// be absorbed; final file contents must match the oracle byte-for-byte.
fn link_storm_with_writes(seed: u64) -> FsResult<()> {
    let profile = Arc::new(LatencyProfile::zero());
    let cred = Credentials::new(1, 1);
    let dfs = DfsCluster::with_default_config(Arc::clone(&profile));
    let wal_dir = fresh_wal_dir("link");
    let config = PaconConfig::new("/w", Topology::new(NODES, 1), cred).with_durability(&wal_dir);
    let mut d = ScenarioDriver::launch(config, &dfs)?;
    let core = Arc::clone(d.core());

    let mut acked = stable_universe(&mut d, &cred)?;

    let plan = link_plan(seed);
    let _trace = TraceOnPanic { plan: &plan, name: format!("link-storm-{seed}.trace") };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5851f42d4c957f2d);

    while core.sim_ns() < STORM_END + STEP_NS {
        d.tick(STEP_NS, &plan, 0)?;
        let i = rng.gen_range(0usize..12);
        let c = &d.clients()[(i / 3) % 3];
        match rng.gen_range(0u32..8) {
            0..=4 => {
                let b = rng.gen_range(0u32..256) as u8;
                let data = vec![b; (b as usize % 24) + 1];
                if c.write(&sfile(i), &cred, 0, &data).is_ok() {
                    acked.push(Acked::Write(sfile(i), data));
                }
            }
            5 => {
                if c.unlink(&sfile(i), &cred).is_ok() {
                    acked.push(Acked::Unlink(sfile(i)));
                }
            }
            _ => {
                if c.create(&sfile(i), &cred, 0o644).is_ok() {
                    acked.push(Acked::Create(sfile(i)));
                }
            }
        }
        d.step_workers();
    }
    assert_eq!(plan.remaining(), 0, "storm events all applied");

    // Links are healed: flush every redelivery window, then drain. The
    // cache never went down, so there is nothing to probe.
    d.settle(&[], DRAIN_ROUNDS)?;

    let oracle = oracle_dfs(&profile, &cred, &acked);
    assert_matches_oracle(&dfs, &oracle, &cred);

    // The cache never went down, so degraded mode never opened.
    assert_eq!(core.degraded.mode(), DegradedMode::Healthy);
    assert_eq!(core.counters.get("degraded_reads"), 0);

    let _ = std::fs::remove_dir_all(&wal_dir);
    Ok(())
}

/// Reshard-heavy plan: every round reshapes the ring (leave, then either
/// a crash of the migrating node mid-transfer or a clean re-join), mixed
/// with plain cache crashes so elasticity and the fault plane overlap.
fn reshard_plan(seed: u64) -> FaultPlan {
    let mut rng = StdRng::seed_from_u64(seed);
    let span = (STORM_END - STORM_START) / STORM_ROUNDS as u64;
    let mut events = Vec::new();
    for r in 0..STORM_ROUNDS {
        let slot = STORM_START + r as u64 * span;
        let t_fault = slot + rng.gen_range(0..span / 4);
        let t_mid = slot + span / 4 + rng.gen_range(0..span / 4);
        let t_clear = slot + span / 2 + rng.gen_range(0..span / 2);
        let node = NodeId(rng.gen_range(0..NODES));
        match rng.gen_range(0u32..3) {
            // Clean elasticity cycle: shrink the ring, then grow it back.
            // (If the leave's transfer is still in flight at t_clear the
            // join is a documented no-op; per-tick pumping below makes
            // that rare.)
            0 => events.extend([
                (t_fault, FaultEvent::LeaveNode(node)),
                (t_clear, FaultEvent::JoinNode(node)),
            ]),
            // Crash the migrating node itself mid-transfer: the leave
            // force-completes (or an in-flight join aborts), then the
            // victim restarts cold and rejoins.
            1 => events.extend([
                (t_fault, FaultEvent::LeaveNode(node)),
                (t_mid, FaultEvent::CrashDuringMigration),
                (t_clear, FaultEvent::RestartCacheNode(node)),
                ((t_clear + span / 8).min(STORM_END), FaultEvent::JoinNode(node)),
            ]),
            // Plain crash/restart overlapping whatever migration the
            // neighbouring rounds left running.
            _ => events.extend([
                (t_fault, FaultEvent::CrashCacheNode(node)),
                (t_clear, FaultEvent::RestartCacheNode(node)),
            ]),
        }
    }
    FaultPlan::from_events(events)
}

/// Satellite audit: a mid-batch cache-node crash must not discard the
/// healthy groups of a multi-stat. Paths whose owner is up are answered
/// from the cache; paths on the crashed owner are salvaged through the
/// retry/degraded path (served from the backup), so every slot of the
/// batch still returns Ok.
#[test]
fn multi_stat_survives_mid_batch_cache_crash() {
    let cred = Credentials::new(1, 1);
    let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
    let config = PaconConfig::new("/w", Topology::new(NODES, 1), cred);
    let mut d = ScenarioDriver::launch(config, &dfs).unwrap();
    stable_universe(&mut d, &cred).unwrap();
    let paths = stable_files();
    let client = &d.clients()[0];
    let core = d.core();
    // Warm the cache so the batch is cache-resident, then crash one
    // owner mid-universe.
    for p in &paths {
        client.stat(p, &cred).unwrap();
    }
    d.region().apply_fault(FaultEvent::CrashCacheNode(NodeId(1)));

    let degraded_before = core.counters.get("degraded_reads");
    let stats = client.stat_many(&paths, &cred);
    assert_eq!(stats.len(), paths.len());
    for (p, st) in paths.iter().zip(&stats) {
        let st = st.as_ref().unwrap_or_else(|e| panic!("{p} lost from the batch: {e:?}"));
        assert_eq!(st.kind, FileKind::File, "{p} came back with the wrong kind");
    }
    // The crashed node's share of the batch went to the backup; the
    // healthy groups did not (the counter moved by less than the batch).
    let fell_through = core.counters.get("degraded_reads") - degraded_before;
    assert!(
        fell_through < paths.len() as u64,
        "every key fell through to the backup — healthy groups were discarded"
    );
}

/// Create two files in a one-node group-commit region (batches of two,
/// so the second create flushes the batch into the queue) with the
/// broker crashing before or after them; after the heal, flush and drain
/// both acknowledged creates must be on the DFS.
fn group_commit_across_broker_crash(crash_first: bool) {
    let cred = Credentials::new(1, 1);
    let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
    let config = PaconConfig::new("/w", Topology::new(1, 1), cred).with_commit_batch(2);
    let mut d = ScenarioDriver::launch(config, &dfs).unwrap();
    let crash = || d.region().apply_fault(FaultEvent::CrashBroker(NodeId(0)));
    if crash_first {
        crash();
    }
    d.clients()[0].create("/w/a", &cred, 0o644).unwrap();
    d.clients()[0].create("/w/b", &cred, 0o644).unwrap();
    if !crash_first {
        crash();
    }
    d.region().apply_fault(FaultEvent::HealCommitLink(NodeId(0)));
    d.clients()[0].flush_publishes().unwrap();
    d.drain(DRAIN_ROUNDS).unwrap();
    for p in ["/w/a", "/w/b"] {
        let st = dfs.client().stat(p, &cred);
        assert!(st.is_ok_and(|s| s.is_file()), "acknowledged {p} never reached the DFS");
    }
}

/// Regression: a group-commit batch lost with the broker is resent after
/// the heal, like any single-op publish — batch flushes ride the node's
/// redelivery window.
#[test]
fn group_commit_batch_survives_broker_crash() {
    group_commit_across_broker_crash(false);
}

/// Regression: a batch flushed into a severed link is buffered in the
/// redelivery window (the create is acknowledged) and delivered on heal.
#[test]
fn group_commit_flush_into_severed_link_is_buffered() {
    group_commit_across_broker_crash(true);
}

/// Degraded-mode rewarm: after a crashed cache node restarts cold, the
/// first due probe moves the region to Rewarming, DFS loads are put back
/// into the cache (`rewarm_keys`), and a streak of cache successes closes
/// the window.
#[test]
fn restarted_node_rewarms_and_closes_the_degraded_window() {
    let cred = Credentials::new(1, 1);
    let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
    let config = PaconConfig::new("/w", Topology::new(NODES, 1), cred);
    let mut d = ScenarioDriver::launch(config, &dfs).unwrap();
    let files: Vec<String> = (0..24).map(|i| format!("/w/f{i}")).collect();
    for (i, p) in files.iter().enumerate() {
        d.clients()[i % 3].create(p, &cred, 0o644).unwrap();
    }
    d.drain(DRAIN_ROUNDS).unwrap();
    let core = Arc::clone(d.core());
    let on_node1: Vec<&String> =
        files.iter().filter(|p| core.cache_cluster.shard_node(p.as_bytes()) == NodeId(1)).collect();
    assert!(on_node1.len() >= 2, "need two node-1 paths, got {on_node1:?}");
    let c = &d.clients()[0];

    d.region().apply_fault(FaultEvent::CrashCacheNode(NodeId(1)));
    assert!(c.stat(on_node1[0], &cred).unwrap().is_file(), "degraded read from the backup");
    assert_eq!(core.degraded.mode(), DegradedMode::Degraded);

    d.region().apply_fault(FaultEvent::RestartCacheNode(NodeId(1)));
    core.advance(core.config.rpc_deadline + 1);
    assert!(c.stat(on_node1[1], &cred).unwrap().is_file());
    assert_eq!(core.degraded.mode(), DegradedMode::Rewarming);
    assert_eq!(core.counters.get("rewarm_keys"), 1);

    for p in &files {
        c.stat(p, &cred).unwrap();
    }
    assert_eq!(core.degraded.mode(), DegradedMode::Healthy);
    assert_eq!(core.counters.get("degraded_recoveries"), 1);
}

// ---- fixed seeds: the CI chaos job runs exactly these three ----------

#[test]
fn cache_storm_seed_1() {
    cache_storm(0xC1A050001);
}

#[test]
fn cache_storm_seed_2() {
    cache_storm(0xC1A050002);
}

#[test]
fn cache_storm_seed_3() {
    cache_storm(0xC1A050003);
}

#[test]
fn link_storm_seed_1() {
    link_storm_with_writes(0x11A7_0001).unwrap();
}

#[test]
fn reshard_storm_seed_1() {
    reshard_storm(0x4E5A_0001);
}

#[test]
fn reshard_storm_seed_2() {
    reshard_storm(0x4E5A_0002);
}

#[test]
fn reshard_storm_seed_3() {
    reshard_storm(0x4E5A_0003);
}

/// The two regression seeds below each reproduced a distinct ordering
/// bug in the commit pipeline before the `pending_removals` /
/// `stale_tombstones` machinery existed; they stay pinned.
#[test]
fn cache_storm_regression_stale_survivor() {
    cache_storm(4830043364150732443);
}

#[test]
fn link_storm_regression_unlink_resurrection() {
    link_storm_with_writes(6132581159815284870).unwrap();
}

// ---- randomized storms ----------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any seeded storm preserves the chaos invariants.
    #[test]
    fn any_cache_storm_preserves_acked_updates(seed in any::<u64>()) {
        cache_storm(seed);
    }

    #[test]
    fn any_link_storm_preserves_acked_writes(seed in any::<u64>()) {
        link_storm_with_writes(seed).unwrap();
    }

    #[test]
    fn any_reshard_storm_preserves_acked_updates(seed in any::<u64>()) {
        reshard_storm(seed);
    }
}
