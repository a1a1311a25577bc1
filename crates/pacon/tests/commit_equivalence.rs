//! Property test of the paper's independent-commit theorem
//! (Section III.E-1): for operation sequences that obey the namespace
//! conventions, committing the non-dependent operations in *any*
//! interleaving across queues — with resubmission on rejection — yields
//! the same final namespace as applying them in program order.
//!
//! Group-commit extension: the same workloads run once unbatched and once
//! through the batched, coalescing publish buffer (random batch sizes and
//! flush boundaries, barrier/rmdir interleavings, injected MDS faults) —
//! the final DFS namespaces must be identical.

use std::sync::Arc;

use dfs::DfsCluster;
use fsapi::{Credentials, FileSystem, FsError};
use pacon::{PaconConfig, PaconRegion, ScenarioDriver};
use proptest::prelude::*;
use simnet::{ClientId, LatencyProfile, Topology};

/// A generated workload step over a small path universe.
#[derive(Debug, Clone)]
enum Step {
    Mkdir(usize),
    Create(usize),
    Unlink(usize),
}

/// Path universe: 4 directories, each with 3 file slots.
fn dir_path(d: usize) -> String {
    format!("/w/d{d}")
}
fn file_path(d: usize, f: usize) -> String {
    format!("/w/d{}/f{}", d % 4, f % 3)
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        2 => (0usize..4).prop_map(Step::Mkdir),
        4 => (0usize..12).prop_map(Step::Create),
        3 => (0usize..12).prop_map(Step::Unlink),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn any_worker_interleaving_converges_to_program_order(
        steps in proptest::collection::vec(step_strategy(), 1..60),
        schedule in proptest::collection::vec(0usize..3, 1..200),
    ) {
        let profile = Arc::new(LatencyProfile::zero());
        let cred = Credentials::new(1, 1);

        // Reference: apply accepted ops in program order directly to a DFS.
        let ref_dfs = DfsCluster::with_default_config(Arc::clone(&profile));
        {
            let fs = ref_dfs.client();
            fs.mkdir("/w", &cred, 0o777).unwrap();
            for s in &steps {
                // Mirror Pacon's client-side admission: an op the cache
                // rejects never reaches the queue.
                let _ = match s {
                    Step::Mkdir(d) => fs.mkdir(&dir_path(*d), &cred, 0o755),
                    Step::Create(i) => fs.create(&file_path(i / 3, i % 3), &cred, 0o644),
                    Step::Unlink(i) => fs.unlink(&file_path(i / 3, i % 3), &cred),
                };
            }
        }

        // System under test: Pacon clients spread over 3 nodes, workers
        // stepped in a proptest-chosen interleaving.
        let dfs = DfsCluster::with_default_config(Arc::clone(&profile));
        let mut d = ScenarioDriver::launch(
            PaconConfig::new("/w", Topology::new(3, 1), cred),
            &dfs,
        ).unwrap();
        for (n, s) in steps.iter().enumerate() {
            let c = &d.clients()[n % 3];
            let _ = match s {
                Step::Mkdir(d) => c.mkdir(&dir_path(*d), &cred, 0o755),
                Step::Create(i) => c.create(&file_path(i / 3, i % 3), &cred, 0o644),
                Step::Unlink(i) => c.unlink(&file_path(i / 3, i % 3), &cred),
            };
        }

        // Follow the random schedule first...
        for &w in &schedule {
            let _ = d.worker(w).step();
        }
        // ...then drain round-robin until everything is handled.
        prop_assert!(d.drain(100_000).is_ok(), "commit did not converge");

        // Final namespaces must be identical.
        let got = dfs.snapshot();
        let want = ref_dfs.snapshot();
        let got_paths: Vec<&str> = got.iter().map(|(p, _, _)| p.as_str()).collect();
        let want_paths: Vec<&str> = want.iter().map(|(p, _, _)| p.as_str()).collect();
        prop_assert_eq!(got_paths, want_paths);

        // And the primary copy agrees with the reference for every path in
        // the universe.
        let probe = &d.clients()[0];
        let ref_fs = ref_dfs.client();
        for d in 0..4 {
            for f in 0..3 {
                let p = file_path(d, f);
                let want = ref_fs.stat(&p, &cred).map(|s| s.kind);
                let got = probe.stat(&p, &cred).map(|s| s.kind);
                // NotFound must match; kinds must match when both exist.
                match (&want, &got) {
                    (Err(FsError::NotFound), Err(FsError::NotFound)) => {}
                    (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                    other => prop_assert!(false, "divergence at {}: {:?}", p, other),
                }
            }
        }
    }
}

/// A generated workload step for the group-commit equivalence tests:
/// additionally exercises inline writes (writeback coalescing), barrier
/// commits (rmdir) and explicit flush boundaries (sync barriers).
#[derive(Debug, Clone)]
enum BStep {
    Mkdir(usize),
    Create(usize),
    Unlink(usize),
    /// Inline write to file slot `.0`; payload derived from `.1`.
    Write(usize, u8),
    Rmdir(usize),
    /// Region-wide sync barrier: forces every publish buffer out at a
    /// proptest-chosen point, randomizing flush boundaries.
    SyncBarrier,
    /// Arm `n` transient MDS failures at this point in the stream.
    InjectFaults(u8),
}

fn bstep_strategy(with_rmdir: bool, with_faults: bool) -> impl Strategy<Value = BStep> {
    let rmdir_weight = if with_rmdir { 2 } else { 0 };
    let fault_weight = if with_faults { 2 } else { 0 };
    prop_oneof![
        3 => (0usize..4).prop_map(BStep::Mkdir),
        5 => (0usize..12).prop_map(BStep::Create),
        3 => (0usize..12).prop_map(BStep::Unlink),
        4 => ((0usize..12), any::<u8>()).prop_map(|(i, b)| BStep::Write(i, b)),
        rmdir_weight => (0usize..4).prop_map(BStep::Rmdir),
        1 => Just(BStep::SyncBarrier),
        fault_weight => (1u8..6).prop_map(BStep::InjectFaults),
    ]
}

/// Final DFS state: the full namespace snapshot plus the committed
/// contents of every file slot in the universe.
type DfsState = (Vec<(String, fsapi::FileKind, u64)>, Vec<Option<Vec<u8>>>);

/// Run `steps` on a threaded region with the given group-commit config
/// and return the final [`DfsState`].
fn run_grouped(steps: &[BStep], batch: usize, coalesce: bool) -> DfsState {
    let profile = Arc::new(LatencyProfile::zero());
    let cred = Credentials::new(1, 1);
    let dfs = DfsCluster::with_default_config(Arc::clone(&profile));
    let mut config =
        PaconConfig::new("/w", Topology::new(3, 1), cred).with_commit_batch(batch.max(1));
    if !coalesce {
        config = config.without_commit_coalescing();
    }
    let region = PaconRegion::launch(config, &dfs).unwrap();
    let clients: Vec<_> = (0..3).map(|i| region.client(ClientId(i))).collect();
    for s in steps.iter() {
        // Per-directory node affinity (the paper's N-N pattern): every op
        // on one subtree goes through one queue, so per-path commit order
        // is program order in *both* runs. Cross-node ops on the same
        // path would race commit-vs-retry even without batching, making
        // the final state depend on thread timing rather than on the
        // batching mode under test.
        let c = match s {
            BStep::Mkdir(d) | BStep::Rmdir(d) => &clients[d % 3],
            BStep::Create(i) | BStep::Unlink(i) | BStep::Write(i, _) => &clients[(i / 3) % 3],
            BStep::SyncBarrier | BStep::InjectFaults(_) => &clients[0],
        };
        let _ = match s {
            BStep::Mkdir(d) => c.mkdir(&dir_path(*d), &cred, 0o755),
            BStep::Create(i) => c.create(&file_path(i / 3, i % 3), &cred, 0o644),
            BStep::Unlink(i) => c.unlink(&file_path(i / 3, i % 3), &cred),
            BStep::Write(i, b) => {
                // Small deterministic payload: length and bytes depend
                // only on the step, never on commit timing.
                let data = vec![*b; (*b as usize % 24) + 1];
                c.write(&file_path(i / 3, i % 3), &cred, 0, &data).map(|_| ())
            }
            BStep::Rmdir(d) => c.rmdir(&dir_path(*d), &cred),
            BStep::SyncBarrier => {
                region.sync_barrier();
                Ok(())
            }
            BStep::InjectFaults(n) => {
                dfs.inject_mds_failures(0, *n as u64);
                Ok(())
            }
        };
    }
    region.shutdown().unwrap();
    // Disarm injected faults the pipeline did not consume: whether any
    // are left over depends on commit/retry interleaving, and the state
    // reads below must observe the namespace, not eat a stale fault.
    dfs.inject_mds_failures(0, 0);
    let snap = dfs.snapshot();
    let fs = dfs.client();
    let mut contents = Vec::new();
    for d in 0..4 {
        for f in 0..3 {
            contents.push(fs.read(&file_path(d, f), &cred, 0, 4096).ok());
        }
    }
    (snap, contents)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Tentpole equivalence: batched, coalescing group commit (random
    /// batch sizes, random sync-barrier flush boundaries, rmdir barrier
    /// interleavings) ends in a DFS namespace identical to the unbatched
    /// seed path.
    #[test]
    fn batched_commit_equivalent_to_unbatched(
        steps in proptest::collection::vec(bstep_strategy(true, false), 1..60),
        batch in 2usize..9,
        coalesce in any::<bool>(),
    ) {
        let (want_snap, want_data) = run_grouped(&steps, 1, true);
        let (got_snap, got_data) = run_grouped(&steps, batch, coalesce);
        prop_assert_eq!(&got_snap, &want_snap, "namespace diverged (batch={})", batch);
        prop_assert_eq!(&got_data, &want_data, "file contents diverged (batch={})", batch);
    }

    /// Same equivalence under transient MDS outages injected mid-stream:
    /// partial batch failures disaggregate into single-op retries and the
    /// final namespace still matches the unbatched run. (Barrier ops are
    /// excluded here: a fault during rmdir's synchronous subtree removal
    /// surfaces to the caller and legitimately depends on timing.)
    #[test]
    fn batched_commit_equivalent_under_mds_faults(
        steps in proptest::collection::vec(bstep_strategy(false, true), 1..60),
        batch in 2usize..9,
    ) {
        let (want_snap, want_data) = run_grouped(&steps, 1, true);
        let (got_snap, got_data) = run_grouped(&steps, batch, true);
        prop_assert_eq!(&got_snap, &want_snap, "namespace diverged (batch={})", batch);
        prop_assert_eq!(&got_data, &want_data, "file contents diverged (batch={})", batch);
    }
}
