//! Deterministic commit-module semantics, driving the commit workers by
//! hand (no threads): out-of-order independent commit with resubmission,
//! the barrier protocol, and discarding of creations under removed
//! directories.

use std::sync::Arc;

use dfs::DfsCluster;
use fsapi::{Credentials, FileSystem, FsError};
use pacon::commit::worker::{CommitWorker, WorkerStep};
use pacon::{PaconConfig, ScenarioDriver};
use simnet::{LatencyProfile, Topology};

/// A paused `nodes`-node region on a fresh DFS; client and worker `n`
/// belong to node `n`.
fn setup(nodes: u32) -> (Arc<DfsCluster>, ScenarioDriver, Credentials) {
    let cred = Credentials::new(1, 1);
    let config = PaconConfig::new("/w", Topology::new(nodes, 1), cred);
    launch(config)
}

fn launch(config: PaconConfig) -> (Arc<DfsCluster>, ScenarioDriver, Credentials) {
    let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
    let cred = config.cred;
    (Arc::clone(&dfs), ScenarioDriver::launch(config, &dfs).unwrap(), cred)
}

/// Step a worker until it stops making progress (no commit/discard for a
/// window of steps). A worker whose retry backlog depends on another
/// queue legitimately alternates Retried/Idle forever.
fn drain(worker: &mut CommitWorker) -> Vec<WorkerStep> {
    let mut log = Vec::new();
    let mut no_progress = 0;
    while no_progress < 20 {
        let s = worker.step();
        match s {
            WorkerStep::Committed | WorkerStep::Discarded | WorkerStep::BarrierReported => {
                no_progress = 0
            }
            _ => no_progress += 1,
        }
        log.push(s);
        if log.len() > 100_000 {
            panic!("worker did not drain (len {})", log.len());
        }
    }
    log
}

#[test]
fn child_before_parent_resubmits_until_success() {
    let (dfs, mut d, cred) = setup(2);
    // Parent mkdir goes to node 1's queue, child create to node 0's.
    d.clients()[1].mkdir("/w/dir", &cred, 0o755).unwrap();
    d.clients()[0].create("/w/dir/child", &cred, 0o644).unwrap();

    // Worker 0 tries the child first: parent missing on the DFS → retry.
    let log = drain(d.worker(0));
    assert!(log.contains(&WorkerStep::Retried), "child commit must be resubmitted");
    assert_eq!(dfs.client().stat("/w/dir/child", &cred), Err(FsError::NotFound));

    // Worker 1 commits the parent.
    let log = drain(d.worker(1));
    assert!(log.contains(&WorkerStep::Committed));
    assert!(dfs.client().stat("/w/dir", &cred).unwrap().is_dir());

    // Worker 0's retry now succeeds.
    let log = drain(d.worker(0));
    assert!(log.contains(&WorkerStep::Committed));
    assert!(dfs.client().stat("/w/dir/child", &cred).unwrap().is_file());
    assert!(d.core().drained());
    assert!(d.core().counters.get("resubmitted") >= 1);
}

#[test]
fn unlink_before_create_converges() {
    let (dfs, mut d, cred) = setup(2);
    // create lands on node 0's queue; the unlink (issued later by node 1's
    // client) lands on node 1's queue. Drive the unlink first.
    d.clients()[0].create("/w/tmp", &cred, 0o644).unwrap();
    d.clients()[1].unlink("/w/tmp", &cred).unwrap();

    // Unlink first: file not on the DFS yet → resubmitted.
    let log = drain(d.worker(1));
    assert!(log.contains(&WorkerStep::Retried));
    // Create commits.
    drain(d.worker(0));
    assert!(dfs.client().stat("/w/tmp", &cred).unwrap().is_file());
    // Unlink retry now applies; final state: gone.
    drain(d.worker(1));
    assert_eq!(dfs.client().stat("/w/tmp", &cred), Err(FsError::NotFound));
    assert!(d.core().drained());
}

#[test]
fn barrier_stalls_worker_until_released() {
    let (dfs, mut d, cred) = setup(1);
    d.clients()[0].create("/w/before", &cred, 0o644).unwrap();

    // Client triggers a barrier from another thread (it blocks until the
    // worker reaches the marker and the dependent op completes).
    let region2 = Arc::clone(d.region());
    let w = d.worker(0);
    let t = std::thread::spawn(move || {
        region2.sync_barrier();
    });

    // Worker: commit /w/before, consume marker, report, stall. Yield on
    // Idle — the marker is published from the other thread.
    let mut reported = false;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while std::time::Instant::now() < deadline {
        match w.step() {
            WorkerStep::BarrierReported => {
                reported = true;
                break;
            }
            WorkerStep::Blocked(_) => panic!("blocked before reporting"),
            WorkerStep::Idle => std::thread::yield_now(),
            _ => {}
        }
    }
    assert!(reported, "worker must reach the barrier");
    // Everything before the marker is committed.
    assert!(dfs.client().stat("/w/before", &cred).unwrap().is_file());
    // sync_barrier's guard completes once workers reached; wait for the
    // client thread, then the worker resumes.
    t.join().unwrap();
    assert!(matches!(w.step(), WorkerStep::Idle | WorkerStep::Committed));
}

#[test]
fn creations_under_removed_dir_are_discarded() {
    let (dfs, mut d, cred) = setup(1);
    d.clients()[0].mkdir("/w/doomed", &cred, 0o755).unwrap();
    d.clients()[0].create("/w/doomed/a", &cred, 0o644).unwrap();

    // Run the dependent rmdir from another thread; the main thread drives
    // the worker through the barrier.
    let region2 = Arc::clone(d.region());
    let core = Arc::clone(d.core());
    let rm = std::thread::spawn(move || {
        let c = region2.client(simnet::ClientId(0));
        let cred = Credentials::new(1, 1);
        c.rmdir("/w/doomed", &cred).unwrap();
        // After the rmdir returns, enqueue a create whose parent no
        // longer exists anywhere (violating the app contract): the commit
        // layer discards it once the retry budget would otherwise spin.
        assert_eq!(c.create("/w/doomed/late", &cred, 0o644), Err(FsError::NotFound));
    });

    // Drive the worker until the region fully drains.
    let mut spins = 0;
    while !core.drained() || !rm.is_finished() {
        if let WorkerStep::Blocked(_) = d.worker(0).step() { std::thread::yield_now() }
        spins += 1;
        assert!(spins < 2_000_000, "commit never converged");
    }
    rm.join().unwrap();
    // DFS: directory gone; cache: gone too.
    assert_eq!(dfs.client().stat("/w/doomed", &cred), Err(FsError::NotFound));
    assert_eq!(d.clients()[0].stat("/w/doomed/a", &cred), Err(FsError::NotFound));
}

#[test]
fn retry_budget_drops_unsatisfiable_ops() {
    let cred = Credentials::new(1, 1);
    let mut config = PaconConfig::new("/w", Topology::new(1, 1), cred).without_parent_check();
    config.max_commit_retries = 5;
    let (dfs, mut d, cred) = launch(config);
    // Parent never created: with parent_check off the client accepts it,
    // and the commit layer must eventually give up.
    d.clients()[0].create("/w/ghost/f", &cred, 0o644).unwrap();
    drain(d.worker(0));
    assert!(d.core().drained());
    assert_eq!(d.core().counters.get("dropped_retry_budget"), 1);
    assert_eq!(dfs.client().stat("/w/ghost/f", &cred), Err(FsError::NotFound));
}

#[test]
fn commit_marks_cached_records_committed() {
    let (_dfs, mut d, cred) = setup(1);
    d.clients()[0].create("/w/f", &cred, 0o644).unwrap();
    let core = Arc::clone(d.core());
    // Not yet committed.
    let key = core
        .cache_cluster
        .keys_with_prefix(b"/w/f");
    assert_eq!(key.len(), 1);
    drain(d.worker(0));
    // The worker CAS-updated the record's committed flag.
    let stat = d.clients()[0].stat("/w/f", &cred).unwrap();
    assert!(stat.is_file());
    assert_eq!(core.counters.get("committed"), 1);
}
