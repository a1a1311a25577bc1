//! Output correctness checks, the trace writer and the self-test.

use std::collections::BTreeMap;
use std::io::Write as _;

use dfs::DfsCluster;
use fsapi::{path as fspath, FileKind};
use pacon::region::RegionCore;
use simnet::{FaultPlan, LatencyHistogram};
use workloads::ops::FsOp;

use crate::procs::{ClientProc, Outcome, Recorder, CLASSES, SPAN_FAULT, SPAN_WORKER};
use crate::spec::{Expect, Shape, Workload};
use crate::trial::{out_dir, run_trial};

pub fn require(errors: &mut Vec<String>, ok: bool, what: &str) {
    if !ok {
        errors.push(what.to_string());
    }
}

/// Mean of a log-linear histogram, read back through its percentiles
/// (exact up to the histogram's 3.1% bucket quantization). The value at
/// rank `r` is a step function of `r`; walk it one bucket at a time.
pub fn hist_mean(h: &LatencyHistogram) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    if n == 1 {
        return h.percentile(0.5).unwrap_or(0) as f64;
    }
    let at = |r: u64| h.percentile(r as f64 / (n - 1) as f64).unwrap_or(0);
    let mut sum = 0.0;
    let mut r = 0u64;
    while r < n {
        let v = at(r);
        // Largest rank still reading `v`.
        let (mut lo, mut hi) = (r, n - 1);
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if at(mid) == v {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        sum += v as f64 * (lo - r + 1) as f64;
        r = lo + 1;
    }
    sum / n as f64
}

/// The DFS backup namespace under `root`: path → (is_dir, size).
fn backup_namespace(dfs: &DfsCluster, root: &str) -> BTreeMap<String, (bool, u64)> {
    dfs.snapshot()
        .into_iter()
        .filter(|(p, _, _)| p != root && fspath::is_same_or_ancestor(root, p))
        .map(|(p, kind, size)| (p, (kind == FileKind::Dir, size)))
        .collect()
}

/// Compare the backup namespace with the expected one; report the first
/// few differences.
fn diff(
    errors: &mut Vec<String>,
    got: &BTreeMap<String, (bool, u64)>,
    want: &BTreeMap<String, (bool, u64)>,
) {
    let mut n = 0;
    for (p, v) in want {
        if got.get(p) != Some(v) {
            if n < 5 {
                errors.push(format!(
                    "backup copy: {p} is {:?}, expected {v:?}",
                    got.get(p)
                ));
            }
            n += 1;
        }
    }
    for p in got.keys().filter(|p| !want.contains_key(*p)) {
        if n < 5 {
            errors.push(format!("backup copy: unexpected {p}"));
        }
        n += 1;
    }
    if n > 5 {
        errors.push(format!("backup copy: {n} differences in all"));
    }
}

/// Output correctness of one trial, after the queues drained.
pub fn outputs(
    w: Workload,
    dfs: &DfsCluster,
    expect: &Expect,
    clients: &[&ClientProc],
) -> Vec<String> {
    let mut errors = Vec::new();
    let got = backup_namespace(dfs, w.root());
    match w {
        Workload::CreateDurable => {
            // Every kept file exists with its inline size, every unlinked
            // file and removed directory is gone.
            diff(&mut errors, &got, &expect.must_exist);
            for d in &expect.removed_dirs {
                require(
                    &mut errors,
                    !got.contains_key(d),
                    &format!("removed directory {d} still on the DFS"),
                );
            }
        }
        Workload::StatHot => {
            let populated: BTreeMap<&str, bool> = expect
                .populated
                .iter()
                .map(|(p, d)| (p.as_str(), *d))
                .collect();
            let mut sampled = 0;
            for c in clients {
                for (op, out) in c.ops().iter().zip(&c.outcomes) {
                    if let (FsOp::Stat(p), Outcome::Stat(st)) = (op, out) {
                        sampled += 1;
                        let want_dir = populated.get(p.as_str()).copied();
                        let ok = want_dir == Some(st.kind == FileKind::Dir)
                            && st.size == 0
                            && st.perm.uid == crate::trial::CRED.uid;
                        require(&mut errors, ok, &format!("stat {p} returned {st:?}"));
                    }
                }
            }
            require(&mut errors, sampled > 0, "no stat results sampled");
        }
        Workload::ChurnFaults => {
            // The acknowledged ops imply the namespace: the pre-created
            // tree plus every acked create minus every acked unlink.
            let mut want: BTreeMap<String, (bool, u64)> = expect
                .populated
                .iter()
                .map(|(p, d)| (p.clone(), (*d, 0)))
                .collect();
            for c in clients {
                for (op, out) in c.ops().iter().zip(&c.outcomes) {
                    if matches!(out, Outcome::Failed(_)) {
                        continue;
                    }
                    match op {
                        FsOp::Create(p, _) => {
                            want.insert(p.clone(), (false, 0));
                        }
                        FsOp::Unlink(p) => {
                            want.remove(p);
                        }
                        _ => {}
                    }
                }
            }
            diff(&mut errors, &got, &want);
        }
    }
    errors
}

/// Write the spans, the full counter snapshot and the fault trace of a
/// traced trial to `perfbench/out/<workload>-seed<n>.trace.tsv`.
pub fn write_trace(
    w: Workload,
    seed: u64,
    core: &RegionCore,
    dfs: &DfsCluster,
    plan: &FaultPlan,
    r: &Recorder,
    counters: &BTreeMap<String, u64>,
) {
    let path = out_dir().join(format!("{}-seed{seed}.trace.tsv", w.name()));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(out_dir())?;
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(f, "# counters (simnet, region lifetime)")?;
        for (k, v) in counters {
            writeln!(f, "counter\t{k}\t{v}")?;
        }
        let kv = core.cache_cluster.stats();
        writeln!(
            f,
            "counter\tmemkv.gets\t{}\ncounter\tmemkv.hits\t{}\ncounter\tmemkv.sets\t{}",
            kv.gets, kv.hits, kv.sets
        )?;
        writeln!(f, "counter\tmemkv.cas_conflicts\t{}\ncounter\tmemkv.deletes\t{}\ncounter\tmemkv.evictions\t{}", kv.cas_conflicts, kv.deletes, kv.evictions)?;
        let rs = core.cache_cluster.reshard_stats();
        writeln!(
            f,
            "counter\tmemkv.reshard_started\t{}\ncounter\tmemkv.migration_aborts\t{}",
            rs.reshard_started, rs.migration_aborts
        )?;
        // Counters nothing else reads; listed even when never bumped.
        for name in [
            "wal_errors",
            "staged_writeback_errors",
            "degraded_writes",
            "broker_lost_msgs",
        ] {
            writeln!(f, "counter\t{name}\t{}", core.counters.get(name))?;
        }
        for name in [
            "batch",
            "batch_rpcs",
            "batch_ops",
            "getattr",
            "lookup",
            "lookup_stat",
            "unlink",
            "rmdir",
            "readdir",
            "set_size",
            "dentry_hit",
            "dentry_miss",
            "replay_noop",
        ] {
            writeln!(f, "counter\tdfs.mds.{name}\t{}", dfs.mds_counter(name))?;
        }
        for line in plan.trace() {
            writeln!(f, "fault\t{line}")?;
        }
        writeln!(
            f,
            "# spans: kind\tproc\tstart_ns\tdur_ns ({} dropped past the cap)",
            r.spans_dropped
        )?;
        for s in &r.spans {
            let kind = match s.kind {
                SPAN_WORKER => "pacon.commit.step",
                SPAN_FAULT => "simnet.fault_tick",
                k => CLASSES[k as usize],
            };
            writeln!(
                f,
                "span\t{kind}\t{}\t{}\t{}",
                s.proc_id, s.start_ns, s.dur_ns
            )?;
        }
        f.flush()
    };
    if let Err(e) = write() {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

/// Self-test on a tiny size: every metric is emitted, every check
/// passes, and virtual metrics repeat for one seed and move under
/// another.
pub fn self_test() -> bool {
    let mut failures = 0;
    let mut fail = |msg: String| {
        eprintln!("self-test FAILED: {msg}");
        failures += 1;
    };
    for w in Workload::ALL {
        let a = run_trial(w, Shape::TINY, 1, false, 0);
        let b = run_trial(w, Shape::TINY, 1, true, 1);
        let c = run_trial(w, Shape::TINY, 2, false, 2);
        for (t, label) in [(&a, "seed 1"), (&b, "seed 1 traced"), (&c, "seed 2")] {
            if !t.errors.is_empty() {
                fail(format!("{} {label}: {:?}", w.name(), t.errors));
            }
            if t.failed > 0 {
                fail(format!("{} {label}: {} ops failed", w.name(), t.failed));
            }
        }
        let m = crate::metrics::summarize(w, 1, &[a, b], true);
        for name in crate::metrics::END_TO_END {
            if !m.end_to_end.contains_key(*name) {
                fail(format!("{}: end-to-end metric {name} missing", w.name()));
            }
        }
        for name in crate::metrics::per_layer_names() {
            if !m.per_layer.contains_key(&name) {
                fail(format!("{}: per-layer metric {name} missing", w.name()));
            }
        }
        if !m.correct {
            fail(format!("{}: {:?}", w.name(), m.errors));
        }
        let c_virt = crate::metrics::summarize(w, 2, &[c], false);
        let same = crate::metrics::VIRTUAL
            .iter()
            .all(|n| c_virt.end_to_end.get(*n) == m.end_to_end.get(*n));
        if same {
            fail(format!(
                "{}: virtual metrics did not change with the seed",
                w.name()
            ));
        }
        eprintln!("self-test: {} done", w.name());
    }
    if failures == 0 {
        eprintln!("self-test passed");
    }
    failures == 0
}
