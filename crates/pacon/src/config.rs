//! Region configuration (Section III.B: workspace path + node addresses,
//! plus the tunables the paper describes).

use fsapi::Credentials;
use simnet::Topology;

use crate::permission::RegionPermissions;

/// Configuration an application hands to Pacon before running.
#[derive(Debug, Clone)]
pub struct PaconConfig {
    /// The application's workspace directory — the root of the consistent
    /// region. Must be a normalized absolute path.
    pub workspace: String,
    /// The nodes the application runs on; Pacon launches one cache shard
    /// and one commit process per node.
    pub topology: Topology,
    /// The application's system user (one user per HPC application,
    /// Section II.A).
    pub cred: Credentials,
    /// Small-file threshold in bytes, *including metadata* (Section
    /// III.D-2; 4 KiB in the paper's prototype). Files at or below this
    /// size keep their data inline in the metadata cache.
    pub small_file_threshold: usize,
    /// Whether create/mkdir verify the parent directory exists (Section
    /// III.C; applications that guarantee correct creation order can turn
    /// this off).
    pub parent_check: bool,
    /// Predefined batch permissions. `None` = the default policy (all
    /// entries readable/writable/executable by the creating user).
    pub permissions: Option<RegionPermissions>,
    /// Cache-space eviction threshold in bytes over the whole region
    /// (`None` = never evict; Section III.F assumes pressure is rare).
    pub eviction_threshold: Option<usize>,
    /// Group commit: buffer up to this many operations per node before
    /// publishing them as one batched queue message. `1` disables
    /// batching — every op is published directly, the paper prototype's
    /// behaviour. Barriers always flush the buffer regardless of fill.
    pub commit_batch_size: usize,
    /// Coalesce buffered operations before they reach the queue: a
    /// buffered `Create` cancels against a later `Unlink` of the same
    /// path, and repeated inline-data writebacks for one path collapse
    /// into a single entry. Only consulted when `commit_batch_size > 1`.
    pub commit_batch_coalescing: bool,
    /// Give up retrying one op's commit after this many attempts (guards
    /// against workloads that violate the namespace conventions).
    pub max_commit_retries: u32,
    /// Batched reads: serve multi-path lookups (`stat_many`,
    /// `readdir_plus`, batch-permission loads, merge warm-up) with one
    /// cache round trip per shard node instead of one per path — the
    /// read-side analogue of group commit. Disabled only for the
    /// unbatched baseline in experiments.
    pub read_batching: bool,
    /// Ablation switch: check permissions the traditional way — one
    /// distributed-cache lookup per path component — instead of the batch
    /// table match. Quantifies what Section III.C saves; never enabled in
    /// normal operation.
    pub hierarchical_permission_check: bool,
    /// Ablation switch: commit every metadata update to the DFS
    /// *synchronously* (strong consistency between primary and backup
    /// copy), disabling the async commit queue. Quantifies what partial
    /// consistency buys; never enabled in normal operation.
    pub synchronous_commit: bool,
    /// Base id for this region's stations in the queueing model
    /// (`KvShard`/`CommitProc`). Multi-application experiments give each
    /// region a disjoint base so the simulated regions do not share
    /// service stations — they are on different physical nodes.
    pub station_base: u32,
    /// Durable commit queue: when set, every commit op is journaled into
    /// a per-node write-ahead log under this directory before the
    /// mutation is acknowledged locally, and the log is replayed
    /// (idempotently) on the next launch. The directory also holds the
    /// region's incarnation counter and must outlive the process for
    /// recovery to mean anything. `None` by default — the paper's
    /// prototype is volatile.
    pub wal_dir: Option<std::path::PathBuf>,
    /// Group fsync: sync the log to disk every `n` appends instead of on
    /// every append. `1` = fsync per op (strict durability); larger
    /// values trade the tail of the crash window for throughput.
    pub wal_fsync_batch: usize,
    /// Test knob: fail the launch-time WAL replay after this many
    /// recovered ops have applied, *before* the logs are truncated — the
    /// crash-during-recovery (double-replay) scenario.
    pub recovery_crash_after: Option<u64>,
    /// Fault plane: total virtual ns one cache RPC may spend sleeping
    /// across retries before the client declares the node unreachable
    /// and enters degraded mode. Measured on the region's virtual clock
    /// (no wall time is ever consumed).
    pub rpc_deadline: u64,
}

impl PaconConfig {
    /// Config with the paper's defaults.
    pub fn new(workspace: &str, topology: Topology, cred: Credentials) -> Self {
        Self {
            workspace: workspace.to_string(),
            topology,
            cred,
            small_file_threshold: 4096,
            parent_check: true,
            permissions: None,
            eviction_threshold: None,
            commit_batch_size: 1,
            commit_batch_coalescing: true,
            max_commit_retries: 10_000,
            read_batching: true,
            hierarchical_permission_check: false,
            synchronous_commit: false,
            station_base: 0,
            wal_dir: None,
            wal_fsync_batch: 1,
            recovery_crash_after: None,
            rpc_deadline: 8_000_000,
        }
    }

    /// Builder-style: enable the durable commit queue, journaling into
    /// per-node write-ahead logs under `wal_dir`.
    pub fn with_durability(mut self, wal_dir: impl Into<std::path::PathBuf>) -> Self {
        self.wal_dir = Some(wal_dir.into());
        self
    }

    /// Builder-style: fsync the commit log every `n` appends.
    pub fn with_wal_fsync_batch(mut self, n: usize) -> Self {
        assert!(n >= 1, "fsync batch must be at least 1");
        self.wal_fsync_batch = n;
        self
    }

    /// Builder-style: predefine batch permissions.
    pub fn with_permissions(mut self, perms: RegionPermissions) -> Self {
        self.permissions = Some(perms);
        self
    }

    /// Builder-style: disable the parent-existence check.
    pub fn without_parent_check(mut self) -> Self {
        self.parent_check = false;
        self
    }

    /// Builder-style: set the small-file threshold.
    pub fn with_small_file_threshold(mut self, bytes: usize) -> Self {
        self.small_file_threshold = bytes;
        self
    }

    /// Builder-style: enable eviction above `bytes` of cache usage.
    pub fn with_eviction_threshold(mut self, bytes: usize) -> Self {
        self.eviction_threshold = Some(bytes);
        self
    }

    /// Builder-style: enable the per-component permission-check ablation.
    pub fn with_hierarchical_permission_check(mut self) -> Self {
        self.hierarchical_permission_check = true;
        self
    }

    /// Builder-style: set the queueing-model station base of this region.
    pub fn with_station_base(mut self, base: u32) -> Self {
        self.station_base = base;
        self
    }

    /// Builder-style: enable the synchronous-commit ablation.
    pub fn with_synchronous_commit(mut self) -> Self {
        self.synchronous_commit = true;
        self
    }

    /// Builder-style: enable group commit with batches of up to `n` ops.
    pub fn with_commit_batch(mut self, n: usize) -> Self {
        assert!(n >= 1, "batch size must be at least 1");
        self.commit_batch_size = n;
        self
    }

    /// Builder-style: disable pre-queue coalescing (keep batching).
    pub fn without_commit_coalescing(mut self) -> Self {
        self.commit_batch_coalescing = false;
        self
    }

    /// Builder-style: disable batched reads (one cache round trip per
    /// path — the unbatched baseline).
    pub fn without_read_batching(mut self) -> Self {
        self.read_batching = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = PaconConfig::new("/app", Topology::new(4, 20), Credentials::new(1, 1));
        assert_eq!(c.small_file_threshold, 4096);
        assert!(c.parent_check);
        assert!(c.permissions.is_none());
        assert!(c.eviction_threshold.is_none());
    }

    #[test]
    fn builders_compose() {
        let c = PaconConfig::new("/app", Topology::new(1, 1), Credentials::new(1, 1))
            .without_parent_check()
            .with_small_file_threshold(1024)
            .with_eviction_threshold(1 << 20);
        assert!(!c.parent_check);
        assert_eq!(c.small_file_threshold, 1024);
        assert_eq!(c.eviction_threshold, Some(1 << 20));
    }

    #[test]
    fn batching_defaults_off_and_builders_set_it() {
        let c = PaconConfig::new("/app", Topology::new(1, 1), Credentials::new(1, 1));
        assert_eq!(c.commit_batch_size, 1, "seed behaviour: direct publish");
        assert!(c.commit_batch_coalescing);
        let c = c.with_commit_batch(32).without_commit_coalescing();
        assert_eq!(c.commit_batch_size, 32);
        assert!(!c.commit_batch_coalescing);
    }

    #[test]
    fn fault_knobs_default_and_build() {
        let c = PaconConfig::new("/app", Topology::new(1, 1), Credentials::new(1, 1));
        assert_eq!(c.rpc_deadline, 8_000_000);
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_size_rejected() {
        let _ = PaconConfig::new("/app", Topology::new(1, 1), Credentials::new(1, 1))
            .with_commit_batch(0);
    }
}
