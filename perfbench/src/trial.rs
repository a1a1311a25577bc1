//! One trial: deploy, run the measured phase in the engine, settle,
//! check, and extract every metric.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use dfs::DfsCluster;
use fsapi::{Credentials, FileSystem};
use pacon::commit::worker::CommitWorker;
use pacon::{DegradedMode, PaconConfig, PaconRegion};
use qsim::{RunOptions, RunResult, Simulation};
use simnet::{FaultEvent, FaultPlan, LatencyProfile, NodeId, Station, Topology};

use crate::calib::{self, RefKernel};
use crate::checks;
use crate::procs::{ClientProc, FaultProc, Outcome, Proc, Recorder, WorkerProc, CATS, CLASSES};
use crate::spec::{self, Generated, Shape, Workload, GROUP_COMMIT};

pub const CRED: Credentials = Credentials {
    uid: 1000,
    gid: 1000,
};

/// Where the benchmark writes (WAL directories, trace files): inside the
/// working directory the benchmark was started from.
pub fn out_dir() -> PathBuf {
    PathBuf::from("perfbench").join("out")
}

/// Encoded metadata header bytes of one cached record (pacon's
/// `META_HEADER`); with the path it sizes the working set.
const META_HEADER: usize = 27;

/// A metric value with its unit.
pub type Metric = (f64, &'static str);

pub struct TrialOut {
    pub traced: bool,
    pub setup_s: f64,
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness, mechanism and sum checks.
    pub errors: Vec<String>,
    /// Virtual-clock end-to-end metrics (a function of the seed).
    pub virt: BTreeMap<&'static str, Metric>,
    /// Calibrated wall-clock and process end-to-end metrics.
    pub wall: BTreeMap<&'static str, Metric>,
    /// Uncalibrated wall-clock figures and the calibration kernel's time
    /// (per-layer metrics of the `host` layer).
    pub host: BTreeMap<&'static str, Metric>,
    /// Per-layer metrics (complete only on traced trials).
    pub layer: BTreeMap<String, Metric>,
    /// Input properties and diagnostics printed with the report.
    pub notes: Vec<String>,
}

/// Counters read at phase boundaries.
#[derive(Clone, Copy)]
struct Snap {
    gets: u64,
    hits: u64,
    multi_gets: u64,
    multi_keys: u64,
    keys_migrated: u64,
    ring_epoch: u64,
    enqueued: u64,
}

fn snap(region: &PaconRegion) -> Snap {
    let core = region.core();
    let kv = core.cache_cluster.stats();
    Snap {
        gets: kv.gets,
        hits: kv.hits,
        multi_gets: kv.multi_gets,
        multi_keys: kv.multi_keys,
        keys_migrated: core.cache_cluster.reshard_stats().keys_migrated,
        ring_epoch: core.cache_cluster.ring_epoch(),
        enqueued: core.enqueued.load(std::sync::atomic::Ordering::Acquire),
    }
}

/// Step every worker until the region has settled every published op.
fn drain(region: &PaconRegion, workers: &[RefCell<CommitWorker>]) -> Result<(), String> {
    let mut spins = 0u64;
    while !region.core().drained() {
        for w in workers {
            w.borrow_mut().step();
        }
        spins += 1;
        if spins > 5_000_000 {
            return Err("commit pipeline did not converge".into());
        }
    }
    Ok(())
}

/// The fault script of `churn_faults`, keyed on phase progress (ops
/// issued per million). The seed picks which nodes fail. The windows do
/// not overlap: a create acknowledged while its broker is down and whose
/// cache record then dies with a crashed node is invisible to the
/// unlink that follows it, which fails.
fn churn_plan(seed: u64, nodes: u32) -> FaultPlan {
    use rand::{seq::SliceRandom, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xFA17);
    let mut pick: Vec<u32> = (0..nodes).collect();
    pick.shuffle(&mut rng);
    let n = pick.len();
    let (crash, broker, elastic) = (pick[0], pick[1.min(n - 1)], pick[2.min(n - 1)]);
    let at = |share: f64| (share * 1e6) as u64;
    FaultPlan::from_events(vec![
        (at(0.10), FaultEvent::CrashCacheNode(NodeId(crash))),
        (at(0.20), FaultEvent::RestartCacheNode(NodeId(crash))),
        (at(0.30), FaultEvent::CrashBroker(NodeId(broker))),
        (at(0.40), FaultEvent::HealCommitLink(NodeId(broker))),
        (at(0.50), FaultEvent::LeaveNode(NodeId(elastic))),
        (at(0.70), FaultEvent::JoinNode(NodeId(elastic))),
    ])
}

pub fn run_trial(w: Workload, shape: Shape, seed: u64, traced: bool, index: usize) -> TrialOut {
    let kernel_before_setup = RefKernel::shared().measure();
    let setup_cpu_started = calib::thread_cpu_ns();
    let setup_started = Instant::now();
    let gen_started = Instant::now();
    let Generated { per_client, expect } = spec::generate(w, shape, seed);
    let gen_s = gen_started.elapsed().as_secs_f64();

    let launch_started = Instant::now();
    let profile = Arc::new(LatencyProfile::default());
    let dfs = DfsCluster::with_default_config(Arc::clone(&profile));
    let root = w.root();
    let topo = Topology::new(shape.nodes, shape.clients_per_node);
    let mut config = PaconConfig::new(root, topo, CRED).with_commit_batch(GROUP_COMMIT);
    let mut wal_dir = None;
    let mut working_set_bytes = 0usize;
    match w {
        Workload::CreateDurable => {
            let dir = out_dir().join(format!("wal-{}-{index}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("create WAL directory");
            config = config
                .with_durability(&dir)
                .with_wal_fsync_batch(shape.wal_fsync_batch);
            wal_dir = Some(dir);
        }
        Workload::StatHot => {
            working_set_bytes = expect
                .populated
                .iter()
                .map(|(p, _)| p.len() + META_HEADER)
                .sum();
            config = config.with_eviction_threshold(working_set_bytes * 4);
        }
        Workload::ChurnFaults => {
            // The namespace exists on the DFS before the region launches
            // (cold cache), at about twice the eviction threshold.
            let fs = dfs.client();
            fs.mkdir(root, &CRED, 0o777).expect("mkdir workspace");
            for (p, is_dir) in &expect.populated {
                let r = if *is_dir {
                    fs.mkdir(p, &CRED, 0o755)
                } else {
                    fs.create(p, &CRED, 0o644)
                };
                r.expect("pre-create namespace");
            }
            working_set_bytes = expect
                .populated
                .iter()
                .map(|(p, _)| p.len() + META_HEADER)
                .sum();
            config = config.with_eviction_threshold(working_set_bytes / 2);
            config.max_commit_retries = 200;
        }
    }
    let threshold = config.eviction_threshold;
    let region = PaconRegion::launch_paused(config, &dfs).expect("pacon launch");
    let launch_s = launch_started.elapsed().as_secs_f64();
    let workers: Vec<RefCell<CommitWorker>> = (0..shape.nodes as usize)
        .map(|n| RefCell::new(region.take_worker(n)))
        .collect();
    let clients: Vec<_> = topo.clients().map(|c| region.client(c)).collect();
    let mut errors = Vec::new();
    if w == Workload::StatHot {
        // Populate through the region and commit it: the measured phase
        // reads a warm, fully committed namespace.
        for (i, (p, is_dir)) in expect.populated.iter().enumerate() {
            let c = &clients[i % clients.len()];
            let r = if *is_dir {
                c.mkdir(p, &CRED, 0o755)
            } else {
                c.create(p, &CRED, 0o644)
            };
            r.expect("populate namespace");
        }
        if let Err(e) = drain(&region, &workers) {
            errors.push(e);
        }
    }
    let plan = match w {
        Workload::ChurnFaults => churn_plan(seed, shape.nodes),
        _ => FaultPlan::empty(),
    };
    let raw_setup_s = setup_started.elapsed().as_secs_f64();
    let setup_cpu_s = (calib::thread_cpu_ns() - setup_cpu_started) as f64 / 1e9;
    let setup_s = setup_cpu_s * calib::scale(kernel_before_setup, RefKernel::shared().measure());

    // ---- measured phase -------------------------------------------------
    let core = Arc::clone(region.core());
    let before = snap(&region);
    let counters_before: BTreeMap<String, u64> = core.counters.snapshot().into_iter().collect();
    let rec = RefCell::new(Recorder::new(traced));
    let stat_sample = if w == Workload::StatHot { 7 } else { 0 };
    let total_ops: u64 = per_client.iter().map(|ops| ops.len() as u64).sum();
    let mut procs: Vec<Proc> = Vec::with_capacity(clients.len() + workers.len() + 1);
    for (i, (fs, ops)) in clients.into_iter().zip(per_client).enumerate() {
        procs.push(Proc::Client(ClientProc::new(
            i as u32,
            fs,
            Arc::clone(&core),
            ops,
            stat_sample,
            &rec,
            &workers,
        )));
    }
    for n in 0..workers.len() {
        procs.push(Proc::Worker(WorkerProc::new(n, &workers, &rec)));
    }
    if !plan.is_empty() {
        procs.push(Proc::Fault(FaultProc::new(
            Arc::clone(&region),
            &plan,
            total_ops,
            &rec,
        )));
    }
    rec.borrow_mut().start();
    let phase_cpu_started = calib::thread_cpu_ns();
    let phase_started = Instant::now();
    let opts = RunOptions {
        record_latency: true,
        ..RunOptions::default()
    };
    let mut run: RunResult = Simulation::with_options(opts).run_procs(&mut procs);
    let wall_s = phase_started.elapsed().as_secs_f64();
    let phase_cpu_ns = calib::thread_cpu_ns() - phase_cpu_started;
    rec.borrow_mut().cal.sample(false);

    // Layer counters are read at the phase boundary, before settling.
    let after = snap(&region);
    let report = region.report();
    let counters_after: BTreeMap<String, u64> = core.counters.snapshot().into_iter().collect();
    let delta = |name: &str| {
        counters_after.get(name).copied().unwrap_or(0)
            - counters_before.get(name).copied().unwrap_or(0)
    };

    // ---- settle: heal, flush the redelivery windows, drain ------------
    if plan.remaining() > 0 {
        errors.push(format!(
            "{} fault events never applied (phase too short)",
            plan.remaining()
        ));
    }
    let mut guard = 0;
    while core.degraded.mode() != DegradedMode::Healthy && guard < 64 {
        core.advance(core.config.rpc_deadline + 1);
        if let Some((p, _)) = expect.populated.iter().find(|(_, d)| !d) {
            if let Some(Proc::Client(c)) = procs.first() {
                let _ = c.client().stat(p, &CRED);
            }
        }
        guard += 1;
    }
    for p in &procs {
        if let Proc::Client(c) = p {
            let _ = c.client().flush_publishes();
        }
    }
    if let Err(e) = drain(&region, &workers) {
        errors.push(e);
    }
    // Barrier commits: rmdir the directories the phase emptied.
    if let Some(Proc::Client(c)) = procs.first() {
        for d in &expect.removed_dirs {
            if let Err(e) = c.rmdir_with_barrier(d) {
                errors.push(format!("rmdir {d}: {e}"));
            }
        }
    }
    // ---- correctness and mechanism checks -----------------------------
    let client_procs: Vec<&ClientProc> = procs
        .iter()
        .filter_map(|p| {
            if let Proc::Client(c) = p {
                Some(c)
            } else {
                None
            }
        })
        .collect();
    let mut r = std::mem::replace(&mut *rec.borrow_mut(), Recorder::new(false));
    errors.extend(checks::outputs(w, &dfs, &expect, &client_procs));
    let hit_rate = ratio(
        (after.hits - before.hits) as f64,
        (after.gets - before.gets) as f64,
    );
    match w {
        Workload::CreateDurable => {
            checks::require(&mut errors, delta("wal_fsyncs") > 0, "no WAL fsyncs");
            checks::require(
                &mut errors,
                delta("batches_flushed") > 0,
                "no batches flushed",
            );
            checks::require(
                &mut errors,
                region.report().barrier_epoch >= 1,
                "no barrier epoch",
            );
        }
        Workload::StatHot => {
            checks::require(&mut errors, delta("committed") == 0, "reads committed ops");
            checks::require(
                &mut errors,
                after.enqueued == before.enqueued,
                "reads enqueued ops",
            );
            checks::require(
                &mut errors,
                hit_rate >= 0.99,
                &format!("hit rate {hit_rate:.4} < 0.99"),
            );
        }
        Workload::ChurnFaults => {
            checks::require(&mut errors, delta("evicted") > 0, "no evictions");
            checks::require(
                &mut errors,
                delta("degraded_reads") > 0,
                "no degraded reads",
            );
            checks::require(&mut errors, delta("rewarm_keys") > 0, "no rewarmed keys");
            checks::require(
                &mut errors,
                after.keys_migrated > before.keys_migrated,
                "no keys migrated",
            );
            checks::require(
                &mut errors,
                after.ring_epoch > before.ring_epoch,
                "ring epoch never bumped",
            );
        }
    }

    // ---- virtual metrics ------------------------------------------------
    let hist = run.merged_hist();
    let jobs = r.jobs.max(1) as f64;
    let exact_mean_ns = r.lat_sum as f64 / jobs;
    let demand_ns: f64 = r.demand.iter().sum::<u64>() as f64 / jobs;
    let wait_ns = exact_mean_ns - demand_ns;
    let hist_mean_ns = checks::hist_mean(&hist);
    checks::require(
        &mut errors,
        hist.count() == r.jobs,
        "engine histogram and client job counts differ",
    );
    checks::require(
        &mut errors,
        wait_ns >= 0.0,
        "per-station demand exceeds the mean latency",
    );
    let sum_err = ((demand_ns + wait_ns) - hist_mean_ns).abs() / hist_mean_ns.max(1.0);
    checks::require(
        &mut errors,
        sum_err <= 0.031,
        &format!(
            "demand + wait = {:.0} ns vs histogram mean {hist_mean_ns:.0} ns ({:.2}%)",
            demand_ns + wait_ns,
            sum_err * 100.0
        ),
    );
    let ops = run.measured_ops.max(1) as f64;
    // The phase's own time, without the kernel samples taken inside it.
    let raw_phase_s = wall_s - r.cal.inside_wall_ns as f64 / 1e9;
    let factor = r.cal.factor();
    let cal_phase_s = (phase_cpu_ns - r.cal.inside_cpu_ns) as f64 / 1e9 * factor;
    let mut cal_call: Vec<u64> = r
        .call_wall
        .iter()
        .map(|ns| (*ns as f64 * factor).round() as u64)
        .collect();
    let mut virt = BTreeMap::new();
    virt.insert("vops_per_s", (run.ops_per_sec(), "ops/s"));
    // Exact percentiles from the raw samples (the histograms quantize to
    // bucket bounds). The median is often an uncontended op whose latency
    // is the same constant for every seed, so it is a per-layer figure;
    // the mean carries the end-to-end signal.
    let lat_p50_us = exact_percentile(&mut run.latencies_ns, 0.50) / 1e3;
    virt.insert("vlat_mean_us", (exact_mean_ns / 1e3, "us"));
    virt.insert(
        "vlat_p99_us",
        (exact_percentile(&mut run.latencies_ns, 0.99) / 1e3, "us"),
    );
    virt.insert("vbackup_ms", (run.drained_ns as f64 / 1e6, "ms"));

    let mut wall = BTreeMap::new();
    wall.insert("setup_s", (setup_s, "s"));
    wall.insert("wall_ops_per_s", (ops / cal_phase_s, "ops/s"));
    wall.insert(
        "wall_op_p50_ns",
        (exact_percentile(&mut cal_call, 0.50), "ns"),
    );
    wall.insert(
        "wall_op_p99_ns",
        (exact_percentile(&mut cal_call, 0.99), "ns"),
    );
    wall.insert("peak_rss_mib", (peak_rss_mib(), "MiB"));
    wall.insert(
        "ok_op_frac",
        (1.0 - ratio(r.failed as f64, r.attempted as f64), "ratio"),
    );

    let mut host = BTreeMap::new();
    host.insert("host.raw_setup_s", (raw_setup_s, "s"));
    host.insert("host.raw_ops_per_s", (ops / raw_phase_s, "ops/s"));
    host.insert(
        "host.raw_op_p50_ns",
        (exact_percentile(&mut r.call_wall, 0.50), "ns"),
    );
    host.insert(
        "host.raw_op_p99_ns",
        (exact_percentile(&mut r.call_wall, 0.99), "ns"),
    );
    host.insert(
        "host.kernel_us",
        (r.cal.kernel_median_ns() as f64 / 1e3, "us"),
    );

    // ---- per-layer metrics ----------------------------------------------
    let mut layer: BTreeMap<String, Metric> = BTreeMap::new();
    let mut put = |name: &str, v: f64, unit: &'static str| {
        layer.insert(name.to_string(), (v, unit));
    };
    for (i, class) in CLASSES.iter().enumerate() {
        let h = &r.class_wall[i];
        put(
            &format!("pacon.client.{class}.p50_ns"),
            h.percentile(0.50).unwrap_or(0) as f64,
            "ns",
        );
        put(
            &format!("pacon.client.{class}.p99_ns"),
            h.percentile(0.99).unwrap_or(0) as f64,
            "ns",
        );
        put(
            &format!("pacon.client.{class}.n"),
            h.count() as f64,
            "count",
        );
    }
    put(
        "pacon.commit.step_ns_p50",
        r.worker_step_wall.percentile(0.50).unwrap_or(0) as f64,
        "ns",
    );
    put("pacon.commit.busy_s", r.worker_ns as f64 / 1e9, "s");
    put(
        "pacon.commit.useful_step_frac",
        ratio(r.worker_useful as f64, r.worker_steps as f64),
        "ratio",
    );
    let engine_self_ns =
        (raw_phase_s * 1e9 - (r.client_ns + r.worker_ns + r.fault_ns) as f64).max(0.0);
    put("qsim.engine_self_s", engine_self_ns / 1e9, "s");
    put(
        "qsim.engine_self_ns_per_event",
        engine_self_ns / run.events_dispatched.max(1) as f64,
        "ns",
    );
    put(
        "qsim.events_per_op",
        run.events_dispatched as f64 / ops,
        "count",
    );
    for (i, cat) in CATS.iter().enumerate() {
        put(
            &format!("v.{cat}_us_per_op"),
            r.demand[i] as f64 / jobs / 1e3,
            "us",
        );
    }
    put("v.wait_us_per_op", wait_ns / 1e3, "us");
    put(
        "v.commit_us_per_op",
        r.commit_demand as f64 / ops / 1e3,
        "us",
    );
    let busy = |f: &dyn Fn(&Station) -> bool| {
        run.station_busy_ns
            .iter()
            .filter(|(s, _)| f(s))
            .map(|(_, b)| *b as f64 / run.drained_ns.max(1) as f64)
            .fold(0.0f64, f64::max)
    };
    put(
        "v.kv_util_max",
        busy(&|s| matches!(s, Station::KvShard(_))),
        "ratio",
    );
    put(
        "v.mds_util",
        busy(&|s| matches!(s, Station::Mds(_))),
        "ratio",
    );
    put(
        "v.commit_util_max",
        busy(&|s| matches!(s, Station::CommitProc(_))),
        "ratio",
    );
    put(
        "v.commit_lag_ms",
        (run.drained_ns - run.makespan_ns) as f64 / 1e6,
        "ms",
    );
    put("v.lat_samples", hist.count() as f64, "count");
    put("v.lat_p50_us", lat_p50_us, "us");
    put("memkv.hit_rate", hit_rate, "ratio");
    put(
        "memkv.gets_per_op",
        (after.gets - before.gets) as f64 / ops,
        "count",
    );
    put(
        "memkv.keys_per_batch",
        ratio(
            (after.multi_keys - before.multi_keys) as f64,
            (after.multi_gets - before.multi_gets) as f64,
        ),
        "count",
    );
    put(
        "memkv.used_mib",
        core.cache_cluster.used_bytes() as f64 / (1 << 20) as f64,
        "MiB",
    );
    put(
        "memkv.keys_migrated",
        (after.keys_migrated - before.keys_migrated) as f64,
        "count",
    );
    put(
        "memkv.ring_epoch",
        (after.ring_epoch - before.ring_epoch) as f64,
        "count",
    );
    put(
        "mq.ops_per_msg",
        ratio(delta("batched_ops") as f64, delta("batches_flushed") as f64),
        "count",
    );
    put(
        "pacon.coalesced_cancel_frac",
        ratio(delta("coalesced_cancel") as f64, expect.mutations as f64),
        "ratio",
    );
    put(
        "pacon.commit.resubmit_frac",
        ratio(delta("resubmitted") as f64, delta("committed") as f64),
        "ratio",
    );
    put(
        "pacon.commit.idempotent_replays",
        delta("idempotent_replays") as f64,
        "count",
    );
    put(
        "wal.appended_per_op",
        delta("wal_appended") as f64 / ops,
        "count",
    );
    put(
        "wal.fsyncs_per_kop",
        delta("wal_fsyncs") as f64 * 1e3 / ops,
        "count",
    );
    put("pacon.evicted", delta("evicted") as f64, "count");
    put(
        "pacon.miss_loads",
        ((after.gets - before.gets) - (after.hits - before.hits)) as f64,
        "count",
    );
    put("pacon.rpc_retries", delta("rpc_retries") as f64, "count");
    put(
        "pacon.degraded_reads",
        delta("degraded_reads") as f64,
        "count",
    );
    put(
        "pacon.degraded_window_ms",
        report.degraded_window_ns as f64 / 1e6,
        "ms",
    );
    put("pacon.rewarm_keys", delta("rewarm_keys") as f64, "count");
    put("workloads.gen_s", gen_s, "s");
    put("pacon.launch_s", launch_s, "s");
    put("input.seed", seed as f64, "count");
    put(
        "input.working_set_ratio",
        threshold
            .map(|t| ratio(working_set_bytes as f64, t as f64))
            .unwrap_or(0.0),
        "ratio",
    );
    put("input.top1pct_mass", expect.top1pct_mass, "ratio");

    let failures: Vec<String> = client_procs
        .iter()
        .flat_map(|c| c.ops().iter().zip(&c.outcomes))
        .filter_map(|(op, out)| match out {
            Outcome::Failed(e) => Some(format!("{op:?}: {e}")),
            _ => None,
        })
        .take(3)
        .collect();
    let mut notes = vec![
        format!(
            "seed {seed}; {} clients on {} nodes",
            shape.clients(),
            shape.nodes
        ),
        format!(
            "working set {working_set_bytes} B vs eviction threshold {}",
            threshold
                .map(|t| t.to_string())
                .unwrap_or_else(|| "none".into())
        ),
        format!(
            "hottest 1% of {} read paths draw {:.1}% of reads",
            expect.read_universe,
            expect.top1pct_mass * 100.0
        ),
        format!(
            "publish buffer cancelled {} of {} mutating ops ({:.1}%)",
            delta("coalesced_cancel"),
            expect.mutations,
            ratio(delta("coalesced_cancel") as f64, expect.mutations as f64) * 100.0
        ),
        format!(
            "virtual: makespan {} ns, drained {} ns, {} events, {} latency samples",
            run.makespan_ns,
            run.drained_ns,
            run.events_dispatched,
            hist.count()
        ),
    ];
    notes.extend(failures.into_iter().map(|f| format!("failed op: {f}")));

    if traced {
        checks::write_trace(w, seed, &core, &dfs, &plan, &r, &counters_after);
    }
    drop(procs);
    drop(region);
    if let Some(dir) = wal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    TrialOut {
        traced,
        setup_s,
        wall_s,
        attempted: r.attempted,
        failed: r.failed,
        errors,
        virt,
        wall,
        host,
        layer,
        notes,
    }
}

/// Nearest-rank percentile of raw samples.
fn exact_percentile(v: &mut [u64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let idx = ((v.len() - 1) as f64 * q).round() as usize;
    *v.select_nth_unstable(idx).1 as f64
}

pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Process high-water RSS (VmHWM) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<f64>().ok())
            })
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Median of one metric over trials.
pub fn median_metric(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metrics are never NaN"));
    v[v.len() / 2]
}
