//! The per-process Pacon client: Table I semantics over the distributed
//! cache, the commit queue, and the underlying DFS.
//!
//! | op      | cache op        | comm            | commit        |
//! |---------|-----------------|-----------------|---------------|
//! | create  | put             | async           | independent   |
//! | mkdir   | put             | async           | independent   |
//! | rm      | update + delete | async           | independent   |
//! | getattr | get             | n/a, sync miss  | n/a           |
//! | rmdir   | delete subtree  | sync            | barrier       |
//! | readdir | none (DFS call) | sync            | barrier       |
//!
//! Requests outside every known consistent region are redirected to the
//! DFS untouched (weak consistency, Section III.A); merged regions are
//! read-only (Section III.D-4).

use std::sync::Arc;

use dfs::DfsClient;
use fsapi::types::{ACCESS_R, ACCESS_W, ACCESS_X};
use fsapi::{path as fspath, Credentials, FileKind, FileStat, FsError, FsResult, Perm};
use fsapi::FileSystem;
use simnet::{charge, ClientId, NodeId, Station};
use syncguard::{level, Mutex, RwLock};

use crate::cache::{CacheError, MetaCache};
use crate::commit::op::{CommitOp, QueueMsg};
use crate::degraded::Mode as DegradedMode;
use crate::eviction;
use crate::metadata::CachedMeta;
use crate::region::{RegionCore, RegionHandle, Route};

/// A merged region: its handle plus a remote cache client.
struct Merged {
    handle: RegionHandle,
    cache: MetaCache,
}

/// One application process's Pacon endpoint.
pub struct PaconClient {
    core: Arc<RegionCore>,
    cache: MetaCache,
    dfs: DfsClient,
    merged: RwLock<Vec<Merged>>,
    id: ClientId,
    node: NodeId,
    /// Memo of the most recently verified parent directory: consecutive
    /// creations in one directory (the common mdtest/N-N pattern) pay the
    /// parent-existence check only once. Invalidated by rmdir.
    parent_memo: Mutex<Option<String>>,
}

/// Encoded-metadata header size (see `CachedMeta::encode`); counted
/// against the small-file threshold together with the key (path) length.
const META_HEADER: usize = 27;

impl PaconClient {
    pub(crate) fn new(
        core: Arc<RegionCore>,
        kv: memkv::KvClient,
        dfs: DfsClient,
        id: ClientId,
        node: NodeId,
    ) -> Self {
        Self {
            cache: MetaCache::with_faults(kv, Arc::clone(&core)),
            core,
            dfs,
            merged: RwLock::new(level::CLIENT_VIEW, "pacon.client.merged", Vec::new()),
            id,
            node,
            parent_memo: Mutex::new(level::CLIENT_MEMO, "pacon.client.parent_memo", None),
        }
    }

    /// Merge another application's consistent region into this client's
    /// view (read-only access, Section III.D-4).
    pub fn merge_region(&self, handle: RegionHandle) {
        let cache = MetaCache::new(handle.cache_cluster.remote_client());
        if self.core.config.read_batching {
            // Warm-up: prefetch the merged region's "basic information"
            // (Section III.D-4) — the root record plus every
            // special-permission path — in one batched read so the first
            // accesses after the merge do not each pay a remote miss.
            let mut paths: Vec<&str> = vec![handle.root.as_str()];
            paths.extend(handle.perms.special.iter().map(|(p, _)| p.as_str()));
            let _ = self.batched_get_on(&cache, &paths);
        }
        self.merged.write().push(Merged { handle, cache });
    }

    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Node this client runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    fn profile(&self) -> Arc<simnet::LatencyProfile> {
        Arc::clone(self.core.cache_cluster.profile())
    }

    fn charge_overhead(&self) {
        charge(Station::ClientCpu, self.profile().pacon_client_overhead);
    }

    fn publish(&self, op: CommitOp) -> FsResult<()> {
        self.publish_at(op, None, false, None)
    }

    /// [`Self::publish`] for ops admitted during a degraded window: the
    /// envelope is tagged so the commit worker applies create-if-absent
    /// semantics (the admission check could only see the backup view).
    fn publish_degraded(&self, op: CommitOp) -> FsResult<()> {
        self.publish_at(op, None, true, None)
    }

    /// Publish an op, optionally journaling a data `snapshot` alongside it
    /// (inline writebacks: the WAL must carry the bytes because replay
    /// rebuilds file content from the log, not from the cache).
    fn publish_with_snapshot(&self, op: CommitOp, snapshot: Option<&[u8]>) -> FsResult<()> {
        self.publish_at(op, snapshot, false, None)
    }

    /// Full publish entry point. `ts` carries a pre-allocated publish
    /// timestamp — unlinks stamp themselves *before* marking the removal
    /// pending, so the pending-removal table and the queue envelope agree
    /// on the op's identity.
    fn publish_at(
        &self,
        op: CommitOp,
        snapshot: Option<&[u8]>,
        degraded: bool,
        ts: Option<u64>,
    ) -> FsResult<()> {
        if self.core.config.synchronous_commit {
            return self.commit_synchronously(op);
        }
        if self.core.config.commit_batch_size > 1 {
            return self.publish_buffered(op, snapshot, degraded, ts);
        }
        charge(Station::ClientCpu, self.profile().queue_push);
        let msg = QueueMsg {
            id: self.core.op_identity(&op),
            op,
            client: self.id.0,
            epoch: self.core.board.current_epoch(),
            timestamp: ts.unwrap_or_else(|| self.core.now()),
            degraded,
        };
        // Durable order: count the op in flight, journal it, then send.
        // Enqueued-before-append is what makes truncation safe: `drained()`
        // under the WAL lock proves the log holds no unconfirmed op.
        self.core.note_enqueued();
        if let Err(e) = self.core.wal_append(self.node.index(), &msg, snapshot) {
            self.core.note_completed();
            return Err(e);
        }
        let published = self.core.publish_reliably(self.node.index(), msg);
        // Shutdown race. In durable mode the op is already journaled —
        // keep it counted in flight so no truncation can drop it; the
        // next launch replays it.
        if published.is_err() && !self.core.durable() {
            self.core.note_completed();
        }
        published
    }

    /// Reconcile this client's node's redelivery window with its broker:
    /// resend commit messages provably lost in a broker crash, deliver
    /// ones buffered while the link was down. Returns how many messages
    /// this call delivered. `ScenarioDriver::settle` calls this after
    /// the links heal.
    pub fn flush_publishes(&self) -> FsResult<usize> {
        self.core.queues[self.node.index()]
            .flush()
            .map(|out| out.delivered)
            .map_err(|_| FsError::Backend("commit queue closed".into()))
    }

    /// Commit messages of this client's node not yet provably consumed by
    /// its broker.
    pub fn unacked_publishes(&self) -> usize {
        self.core.queues[self.node.index()].unacked()
    }

    /// Group commit: buffer the op in the node's publish buffer instead
    /// of dispatching a queue message per op; flush as one batch message
    /// when the buffer reaches the configured size. Coalescing may settle
    /// the op entirely client-side (create×unlink annihilation, writeback
    /// collapse) — those ops complete without ever touching the queue.
    fn publish_buffered(
        &self,
        op: CommitOp,
        snapshot: Option<&[u8]>,
        degraded: bool,
        ts: Option<u64>,
    ) -> FsResult<()> {
        use crate::commit::publish::Buffered;
        let unlink_path = match &op {
            CommitOp::Unlink { path } => Some(path.clone()),
            _ => None,
        };
        let timestamp = ts.unwrap_or_else(|| self.core.now());
        let msg = QueueMsg {
            id: self.core.op_identity(&op),
            op,
            client: self.id.0,
            epoch: self.core.board.current_epoch(),
            timestamp,
            degraded,
        };
        self.core.note_enqueued();
        let node = self.node.index();
        // Journal before the buffer sees the op: coalescing may settle it
        // client-side, but the log keeps the full history (a cancelled
        // create×unlink pair replays in order and nets to nothing).
        if let Err(e) = self.core.wal_append(node, &msg, snapshot) {
            self.core.note_completed();
            return Err(e);
        }
        let mut buf = self.core.publish_bufs[node].lock();
        let outcome = buf.push(msg, self.core.config.commit_batch_coalescing);
        let flush = buf.len() >= self.core.config.commit_batch_size;
        drop(buf);
        match outcome {
            Buffered::Queued => {
                if flush {
                    charge(Station::ClientCpu, self.profile().queue_push);
                    // `flush_publish_buffer` re-takes the lock; a racing
                    // publisher may have flushed first, which is fine —
                    // an empty buffer makes this a no-op.
                    self.core.flush_publish_buffer(node)?;
                }
            }
            Buffered::Cancelled { absorbed } => {
                // The create (plus its trailing writebacks) and this
                // unlink annihilated in the buffer: the file never reaches
                // the DFS. Settle all of them as completed and mirror the
                // worker's post-unlink cleanup on the primary copy.
                for _ in 0..absorbed + 1 {
                    self.core.note_completed();
                }
                self.core.counters.add("coalesced_cancel", absorbed as u64 + 1);
                let path = unlink_path.expect("only unlinks cancel");
                // The unlink settled client-side: its pending-removal
                // mark retires here, not in a commit worker.
                self.core.note_unlink_retired(&path, timestamp);
                // Best effort, one unguarded attempt: a record left on a
                // down node died with it.
                let cache = self.cache.bare();
                if let Ok(Some((meta, _))) = cache.try_get(&path) {
                    if meta.removed {
                        let _ = cache.try_delete(&path);
                    }
                }
                self.core.staging.lock().remove(path.as_str());
                self.core.maybe_truncate_wals();
            }
            Buffered::Collapsed => {
                // Duplicate writeback absorbed by the buffered one, which
                // reads the current primary copy at commit time anyway.
                self.core.note_completed();
                self.core.counters.incr("coalesced_collapse");
                self.core.maybe_truncate_wals();
            }
        }
        Ok(())
    }

    /// Ablation path: apply the operation to the DFS before returning
    /// (strong primary/backup consistency; no queue, no commit process).
    fn commit_synchronously(&self, op: CommitOp) -> FsResult<()> {
        let cred = self.core.config.cred;
        // Primary-copy upkeep is best effort: one unguarded attempt each.
        let cache = self.cache.bare();
        let res = match &op {
            // lint: allow(commit-path, sync-consistency ablation: applying directly IS this mode)
            CommitOp::Mkdir { path, mode } => self.dfs.mkdir(path, &cred, *mode),
            // lint: allow(commit-path, sync-consistency ablation: applying directly IS this mode)
            CommitOp::Create { path, mode } => self.dfs.create(path, &cred, *mode),
            CommitOp::Unlink { path } => {
                // lint: allow(commit-path, sync-consistency ablation: applying directly IS this mode)
                let r = self.dfs.unlink(path, &cred);
                if r.is_ok() {
                    let _ = cache.try_delete(path);
                }
                r
            }
            CommitOp::WriteInline { path } => {
                // Mirror the async worker: free the coalescing slot before
                // reading the primary copy so later writes re-queue.
                self.core.pending_writebacks.lock().remove(path.as_str());
                match cache.try_get(path) {
                    Ok(Some((meta, _))) if !meta.removed && !meta.large => {
                        // lint: allow(commit-path, sync-consistency ablation: applying directly IS this mode)
                        self.dfs.write(path, &cred, 0, &meta.inline).map(|_| ())
                    }
                    _ => Ok(()),
                }
            }
            CommitOp::Barrier { .. } => Ok(()),
            // Batches are assembled by the publish buffer, which is never
            // engaged in synchronous-commit mode.
            CommitOp::Batch(_) => unreachable!("no group commit under synchronous_commit"),
        };
        if res.is_ok() {
            if let Some(path) = op.path() {
                let _ = cache.try_update::<()>(path, |m| {
                    m.committed = true;
                    Ok(())
                });
            }
        }
        res
    }

    /// Batch permission check — a local table match, never a traversal
    /// (Section III.C). Under the ablation flag it instead walks every
    /// in-region ancestor with a distributed-cache lookup, the way a
    /// traditional hierarchical check would.
    fn check_perm(&self, path: &str, cred: &Credentials, want: u8) -> FsResult<()> {
        if self.core.config.hierarchical_permission_check {
            let ancs: Vec<&str> = fspath::ancestors(path)
                .into_iter()
                .filter(|anc| self.core.contains(anc) && *anc != self.core.root)
                .collect();
            // Charged cache lookups for every in-region component — one
            // batched round per shard node rather than one per component;
            // the permission bits themselves still come from the region
            // table so the ablation changes cost, not semantics.
            if !ancs.is_empty() {
                let _ = self.batched_get(&ancs);
            }
            for anc in ancs {
                if !self.core.perms.check(anc, cred, ACCESS_X) {
                    return Err(FsError::PermissionDenied);
                }
            }
        }
        if self.core.perms.check(path, cred, want) {
            Ok(())
        } else {
            Err(FsError::PermissionDenied)
        }
    }

    /// Parent of an in-region path.
    fn parent_of<'p>(&self, path: &'p str) -> FsResult<&'p str> {
        fspath::parent(path).ok_or_else(|| FsError::InvalidPath(format!("no parent: {path}")))
    }

    /// Parent-existence check for creations (Section III.C). May fall
    /// through to the DFS when the parent exists there but is not cached.
    fn check_parent(&self, path: &str, cred: &Credentials) -> FsResult<()> {
        if !self.core.config.parent_check {
            return Ok(());
        }
        let parent = self.parent_of(path)?;
        if parent == self.core.root || !self.core.contains(parent) {
            // The workspace root was created at launch; parents outside
            // the region belong to the DFS (and `path == region root`
            // creation is handled by launch itself).
            return Ok(());
        }
        if self.parent_memo.lock().as_deref() == Some(parent) {
            return Ok(());
        }
        let cached = match self.cache.try_get(parent) {
            Ok(c) => c,
            Err(CacheError::Unavailable) => {
                // Degraded: verify against the backup copy only.
                self.core.counters.incr("degraded_reads");
                let stat = self.dfs.stat(parent, cred)?;
                if stat.kind != FileKind::Dir {
                    return Err(FsError::NotADirectory);
                }
                *self.parent_memo.lock() = Some(parent.to_string());
                return Ok(());
            }
        };
        match cached {
            Some((meta, _)) if meta.removed => Err(FsError::NotFound),
            Some((meta, _)) if meta.kind != FileKind::Dir => Err(FsError::NotADirectory),
            Some(_) => {
                *self.parent_memo.lock() = Some(parent.to_string());
                Ok(())
            }
            None => {
                // Sync check on the DFS; cache the result on success.
                let stat = self.dfs.stat(parent, cred)?;
                if stat.kind != FileKind::Dir {
                    return Err(FsError::NotADirectory);
                }
                self.warm_cache(parent, &CachedMeta::from_stat(&stat));
                *self.parent_memo.lock() = Some(parent.to_string());
                Ok(())
            }
        }
    }

    /// Best-effort cache populate from a DFS-loaded record; counts the
    /// key as rewarmed while the region is recovering from an outage.
    fn warm_cache(&self, path: &str, meta: &CachedMeta) {
        if self.cache.try_put(path, meta).is_ok()
            && self.core.degraded.mode() == DegradedMode::Rewarming
        {
            self.core.counters.incr("rewarm_keys");
        }
    }

    /// Load an uncached in-region entry from the DFS into the cache
    /// (getattr-miss path, Section III.D-1).
    fn load_from_dfs(&self, path: &str, cred: &Credentials) -> FsResult<CachedMeta> {
        // An acknowledged unlink may still sit in the commit queue while
        // the backup copy keeps the file. Resurrecting the record from
        // that stale view would drop the pending removal's tombstone and
        // let a second unlink of the same incarnation through.
        if self.core.unlink_pending(path) {
            return Err(FsError::NotFound);
        }
        let stat = self.dfs.stat(path, cred)?;
        let meta = CachedMeta::from_stat(&stat);
        self.warm_cache(path, &meta);
        Ok(meta)
    }

    /// Get the cached record, falling back to a sync DFS load. While
    /// degraded, reads are served straight from the backup copy.
    fn get_or_load(&self, path: &str, cred: &Credentials) -> FsResult<CachedMeta> {
        match self.cache.try_get(path) {
            Ok(Some((meta, _))) => Ok(meta),
            Ok(None) => self.load_from_dfs(path, cred),
            Err(CacheError::Unavailable) => {
                if self.core.unlink_pending(path) {
                    return Err(FsError::NotFound);
                }
                self.core.counters.incr("degraded_reads");
                Ok(CachedMeta::from_stat(&self.dfs.stat(path, cred)?))
            }
        }
    }

    /// Batched cache fetch with read-path accounting. With batching
    /// disabled (the unbatched baseline) this degrades to one charged
    /// lookup per path.
    fn batched_get_on(
        &self,
        cache: &MetaCache,
        paths: &[&str],
    ) -> Result<Vec<Option<(CachedMeta, u64)>>, CacheError> {
        if !self.core.config.read_batching {
            return paths.iter().map(|p| cache.try_get(p)).collect(); // lint:allow-per-key-get
        }
        if paths.is_empty() {
            return Ok(Vec::new());
        }
        let cluster = cache.kv().cluster();
        let mut nodes: Vec<NodeId> = Vec::new();
        for p in paths {
            // lint: allow(stale-owner, accounting only — the grouping feeds read_rtts_saved; the authoritative per-key routing happens inside try_multi_get under the cluster's route lock)
            let n = cluster.shard_node(p.as_bytes());
            if !nodes.contains(&n) {
                nodes.push(n);
            }
        }
        self.core.counters.incr("batched_reads");
        self.core.counters.add("batched_read_keys", paths.len() as u64);
        self.core.counters.add("read_rtts_saved", (paths.len() - nodes.len()) as u64);
        cache.try_multi_get(paths)
    }

    /// [`Self::batched_get_on`] against this client's own region cache.
    fn batched_get(&self, paths: &[&str]) -> Result<Vec<Option<(CachedMeta, u64)>>, CacheError> {
        self.batched_get_on(&self.cache, paths)
    }

    fn create_kind(
        &self,
        path: &str,
        cred: &Credentials,
        mode: u16,
        kind: FileKind,
    ) -> FsResult<()> {
        self.charge_overhead();
        self.check_perm(self.parent_of(path)?, cred, ACCESS_W | ACCESS_X)?;
        self.check_parent(path, cred)?;
        let perm = Perm::new(mode, cred.uid, cred.gid);
        let fresh = match kind {
            FileKind::Dir => CachedMeta::new_dir(perm, self.core.now()),
            FileKind::File => CachedMeta::new_file(perm, self.core.now()),
        };
        // Set when duplicate detection could not consult the primary copy:
        // the published op carries the flag so `AlreadyExists` at commit
        // time settles as idempotent success instead of a retriable
        // conflict (it may duplicate an acknowledged-but-uncommitted
        // creation this admission check cannot see).
        let mut degraded = false;
        match self.cache.try_add_new(path, &fresh) {
            Ok(Ok(_)) => {}
            Ok(Err(FsError::AlreadyExists)) => {
                // A record exists; re-creation is legal only over a
                // marked-removed one (Section III.D-1).
                match self.cache.try_update(path, |m| {
                    if m.removed {
                        *m = fresh.clone();
                        Ok(())
                    } else {
                        Err(FsError::AlreadyExists)
                    }
                }) {
                    Ok(Ok(Some(_))) => {}
                    Ok(Ok(None)) => {
                        // Record vanished between add and update: retry
                        // once as a fresh add.
                        match self.cache.try_add_new(path, &fresh) {
                            Ok(r) => {
                                r?;
                            }
                            Err(CacheError::Unavailable) => {
                                self.core.counters.incr("degraded_writes");
                                degraded = true;
                            }
                        }
                    }
                    Ok(Err(e)) => return Err(e),
                    Err(CacheError::Unavailable) => {
                        self.core.counters.incr("degraded_writes");
                        degraded = true;
                    }
                }
            }
            Ok(Err(e)) => return Err(e),
            Err(CacheError::Unavailable) => {
                // Degraded creation: the primary copy is unreachable, so
                // duplicate detection falls back to the committed backup
                // view (creations still queued are invisible to it — the
                // documented consistency gap of a degraded window). The
                // op itself still queues through the commit path below.
                self.core.counters.incr("degraded_writes");
                degraded = true;
                match self.dfs.stat(path, cred) {
                    Ok(_) => return Err(FsError::AlreadyExists),
                    Err(FsError::NotFound) => {}
                    Err(e) => return Err(e),
                }
            }
        }
        let op = match kind {
            FileKind::Dir => CommitOp::Mkdir { path: path.to_string(), mode },
            FileKind::File => CommitOp::Create { path: path.to_string(), mode },
        };
        if degraded {
            self.publish_degraded(op)?;
        } else {
            self.publish(op)?;
        }
        self.core.counters.incr(match kind {
            FileKind::Dir => "mkdir",
            FileKind::File => "create",
        });
        eviction::maybe_evict(&self.core, &self.cache);
        Ok(())
    }

    /// Push a barrier marker into every node queue (one queue push each)
    /// and wait for all commit processes to reach it. Returns the guard;
    /// the caller performs the dependent op, then completes it.
    fn barrier(&self) -> FsResult<crate::commit::barrier::BarrierGuard<'_>> {
        let pushes = self.core.queues.len() as u64;
        charge(Station::ClientCpu, pushes * self.profile().queue_push);
        self.core.barrier(self.id.0)
    }

    /// Recursively remove a committed subtree on the DFS (rmdir support;
    /// runs inside a barrier, so the DFS view is complete).
    fn remove_subtree_on_dfs(&self, path: &str, cred: &Credentials) -> FsResult<()> {
        let stat = match self.dfs.stat(path, cred) {
            Ok(s) => s,
            Err(FsError::NotFound) => return Ok(()),
            Err(e) => return Err(e),
        };
        if stat.kind == FileKind::File {
            // lint: allow(commit-path, runs inside a barrier: subtree fully committed, direct backup-copy cleanup)
            return self.dfs.unlink(path, cred);
        }
        for name in self.dfs.readdir(path, cred)? {
            self.remove_subtree_on_dfs(&fspath::join(path, name.as_str()), cred)?;
        }
        // lint: allow(commit-path, runs inside a barrier: subtree fully committed, direct backup-copy cleanup)
        self.dfs.rmdir(path, cred)
    }

    /// Durable staging write (the paper's direct-I/O cache files): data
    /// for files that do not yet exist on the DFS. `charged_len` is the
    /// number of *new* bytes this call moves (incremental appends do not
    /// re-pay for the whole buffer).
    fn stage_data(&self, path: &str, data: Vec<u8>, charged_len: usize) {
        let p = self.profile();
        charge(Station::Network, p.net_rtt_storage);
        let n_data = self.dfs.cluster().config().n_data as u64;
        let mut h = 0xcbf29ce484222325u64;
        for b in path.as_bytes() {
            h = (h ^ *b as u64).wrapping_mul(0x100000001b3);
        }
        let mib = (charged_len as u64).div_ceil(1 << 20).max(1);
        charge(Station::DataServer((h % n_data) as u32), mib * p.data_write_per_mib);
        self.core.staging.lock().insert(path.to_string(), data);
    }

    fn inline_fits(&self, path: &str, inline_len: usize) -> bool {
        META_HEADER + path.len() + inline_len <= self.core.config.small_file_threshold
    }

    /// Unlink while the primary copy is unreachable: verify against the
    /// committed backup view, then queue the removal through the normal
    /// commit path. Removals of entries whose creation is still queued
    /// fail `NotFound` here — the degraded window trades namespace
    /// read-your-writes for availability.
    fn degraded_unlink(&self, path: &str, cred: &Credentials) -> FsResult<()> {
        self.core.counters.incr("degraded_writes");
        // The backup still holds a file whose removal is already queued:
        // from the client's point of view that file is gone.
        if self.core.unlink_pending(path) {
            return Err(FsError::NotFound);
        }
        let stat = self.dfs.stat(path, cred)?;
        if stat.kind == FileKind::Dir {
            return Err(FsError::IsADirectory);
        }
        // Same slot release as the healthy path: writes after a
        // re-creation must queue fresh writebacks.
        self.core.pending_writebacks.lock().remove(path);
        let ts = self.core.now();
        self.core.note_unlink_pending(path, ts);
        // The shard is unreachable, so the cached record (if one survives
        // the outage) cannot be tombstoned now — mark it for lazy
        // deletion instead of letting it resurface after the heal.
        self.core.mark_stale_tombstone(path);
        if let Err(e) =
            self.publish_at(CommitOp::Unlink { path: path.to_string() }, None, true, Some(ts))
        {
            self.core.note_unlink_retired(path, ts);
            self.core.clear_stale_tombstone(path);
            return Err(e);
        }
        self.core.counters.incr("unlink");
        Ok(())
    }

    /// Write while the primary copy is unreachable. Committed files take
    /// the data straight to the backup copy; files not yet on the DFS
    /// stage into the durable staging buffer (their queued create lands
    /// first, and fsync/commit flushes the staged bytes).
    fn degraded_write(
        &self,
        path: &str,
        cred: &Credentials,
        offset: u64,
        data: &[u8],
    ) -> FsResult<usize> {
        self.core.counters.incr("degraded_writes");
        if self.core.unlink_pending(path) {
            // The backup copy still holds the file, but its removal is
            // already acknowledged — writing there would land bytes on a
            // doomed incarnation.
            return Err(FsError::NotFound);
        }
        let end = offset as usize + data.len();
        // lint: allow(commit-path, degraded mode: primary copy unreachable, data goes to the backup copy directly)
        match self.dfs.write(path, cred, offset, data) {
            Ok(_) => {
                // If the path's own shard is still up (the window was
                // opened by a different node's crash), keep the primary
                // copy coherent too: a writeback already queued for this
                // path reads the cache at commit time, and a stale inline
                // record would clobber the bytes just written. One
                // unguarded attempt: the guarded handle fails fast while
                // the region is degraded, and a down shard just skips it.
                let _ = self.cache.bare().try_update::<()>(path, |m| {
                    if !m.large && !m.removed {
                        if m.inline.len() < end {
                            m.inline.resize(end, 0);
                        }
                        m.inline[offset as usize..end].copy_from_slice(data);
                    }
                    m.size = m.size.max(end as u64);
                    Ok(())
                });
                Ok(data.len())
            }
            Err(FsError::NotFound) => {
                // Creation still queued: stage like an uncommitted file.
                let mut staging = self.core.staging.lock();
                let buf = staging.entry(path.to_string()).or_default();
                if buf.len() < end {
                    buf.resize(end, 0);
                }
                buf[offset as usize..end].copy_from_slice(data);
                Ok(data.len())
            }
            Err(e) => Err(e),
        }
    }
}

impl FileSystem for PaconClient {
    fn mkdir(&self, path: &str, cred: &Credentials, mode: u16) -> FsResult<()> {
        let merged = self.merged.read();
        match route(&self.core, &merged, path) {
            Route::Own => {
                drop(merged);
                self.create_kind(path, cred, mode, FileKind::Dir)
            }
            Route::Merged(_) => Err(FsError::PermissionDenied), // read-only
            // lint: allow(commit-path, Route::Redirect: paths outside the workspace bypass partial consistency entirely)
            Route::Redirect => self.dfs.mkdir(path, cred, mode),
        }
    }

    fn create(&self, path: &str, cred: &Credentials, mode: u16) -> FsResult<()> {
        let merged = self.merged.read();
        match route(&self.core, &merged, path) {
            Route::Own => {
                drop(merged);
                self.create_kind(path, cred, mode, FileKind::File)
            }
            Route::Merged(_) => Err(FsError::PermissionDenied),
            // lint: allow(commit-path, Route::Redirect: paths outside the workspace bypass partial consistency entirely)
            Route::Redirect => self.dfs.create(path, cred, mode),
        }
    }

    fn stat(&self, path: &str, cred: &Credentials) -> FsResult<FileStat> {
        self.charge_overhead();
        let merged = self.merged.read();
        match route(&self.core, &merged, path) {
            Route::Own => {
                drop(merged);
                if path != self.core.root {
                    self.check_perm(self.parent_of(path)?, cred, ACCESS_X)?;
                }
                match self.cache.try_get(path) {
                    Ok(Some((meta, _))) if meta.removed => Err(FsError::NotFound),
                    Ok(Some((meta, _))) => Ok(meta.to_stat()),
                    Ok(None) => Ok(self.load_from_dfs(path, cred)?.to_stat()),
                    Err(CacheError::Unavailable) => {
                        if self.core.unlink_pending(path) {
                            return Err(FsError::NotFound);
                        }
                        // Degraded read: the committed backup view.
                        self.core.counters.incr("degraded_reads");
                        self.dfs.stat(path, cred)
                    }
                }
            }
            Route::Merged(i) => {
                let m = &merged[i];
                if path != m.handle.root {
                    let parent = fspath::parent(path)
                        .ok_or_else(|| FsError::InvalidPath(path.to_string()))?;
                    if !m.handle.perms.check(parent, cred, ACCESS_X) {
                        return Err(FsError::PermissionDenied);
                    }
                }
                match m.cache.try_get(path) {
                    Ok(Some((meta, _))) if meta.removed => Err(FsError::NotFound),
                    Ok(Some((meta, _))) => Ok(meta.to_stat()),
                    // Read-only: fall back to the DFS without populating
                    // the foreign cache.
                    Ok(None) | Err(CacheError::Unavailable) => self.dfs.stat(path, cred),
                }
            }
            Route::Redirect => self.dfs.stat(path, cred),
        }
    }

    fn stat_many(&self, paths: &[String], cred: &Credentials) -> Vec<FsResult<FileStat>> {
        if !self.core.config.read_batching {
            // Unbatched baseline: a full stat round trip per path.
            return paths.iter().map(|p| self.stat(p, cred)).collect();
        }
        self.charge_overhead();
        let mut own: Vec<usize> = Vec::new();
        let mut other: Vec<usize> = Vec::new();
        {
            let merged = self.merged.read();
            for (i, p) in paths.iter().enumerate() {
                match route(&self.core, &merged, p) {
                    Route::Own => own.push(i),
                    // Merged and redirected paths keep their per-path
                    // handling; batching targets the own-region cache.
                    Route::Merged(_) | Route::Redirect => other.push(i),
                }
            }
        }
        let mut out: Vec<FsResult<FileStat>> =
            (0..paths.len()).map(|_| Err(FsError::NotFound)).collect();
        for i in other {
            out[i] = self.stat(&paths[i], cred);
        }
        // Permission checks are local table matches; do them up front,
        // then fetch every remaining record in one batched call.
        let mut lookup: Vec<usize> = Vec::new();
        for &i in &own {
            let p = paths[i].as_str();
            let allowed = if p == self.core.root {
                Ok(())
            } else {
                self.parent_of(p).and_then(|par| self.check_perm(par, cred, ACCESS_X))
            };
            match allowed {
                Ok(()) => lookup.push(i),
                Err(e) => out[i] = Err(e),
            }
        }
        let keys: Vec<&str> = lookup.iter().map(|&i| paths[i].as_str()).collect();
        let metas = match self.batched_get(&keys) {
            Ok(m) => m,
            Err(CacheError::Unavailable) => {
                // Degraded: the whole batch falls through to per-path
                // stats on the backup copy.
                self.core.counters.add("degraded_reads", keys.len() as u64);
                for &i in &lookup {
                    out[i] = self.dfs.stat(&paths[i], cred);
                }
                return out;
            }
        };
        for (&i, meta) in lookup.iter().zip(metas) {
            out[i] = match meta {
                Some((m, _)) if m.removed => Err(FsError::NotFound),
                Some((m, _)) => Ok(m.to_stat()),
                // Miss: sync DFS load that also populates the cache
                // (getattr-miss path) — an unavoidable per-path trip.
                None => self.load_from_dfs(&paths[i], cred).map(|m| m.to_stat()),
            };
        }
        out
    }

    fn unlink(&self, path: &str, cred: &Credentials) -> FsResult<()> {
        self.charge_overhead();
        let merged = self.merged.read();
        match route(&self.core, &merged, path) {
            Route::Own => {
                drop(merged);
                self.check_perm(self.parent_of(path)?, cred, ACCESS_W | ACCESS_X)?;
                match self.cache.try_get(path) {
                    Ok(Some(_)) => {}
                    Ok(None) => {
                        // rm of an uncached entry: verify against the DFS
                        // and pull the record in, mirroring the
                        // getattr-miss path.
                        self.load_from_dfs(path, cred)?;
                    }
                    Err(CacheError::Unavailable) => {
                        return self.degraded_unlink(path, cred);
                    }
                }
                let updated = match self.cache.try_update(path, |m| {
                    if m.removed {
                        return Err(FsError::NotFound);
                    }
                    if m.kind == FileKind::Dir {
                        return Err(FsError::IsADirectory);
                    }
                    m.removed = true;
                    Ok(())
                }) {
                    Ok(r) => r?,
                    Err(CacheError::Unavailable) => {
                        return self.degraded_unlink(path, cred);
                    }
                };
                if updated.is_none() {
                    return Err(FsError::NotFound);
                }
                // Release the writeback-coalescing slot: a WriteInline
                // queued before this unlink must not absorb writes made
                // after a re-creation (the worker would apply it ahead of
                // the queued unlink+create and the data would be lost).
                self.core.pending_writebacks.lock().remove(path);
                if self.core.config.synchronous_commit {
                    // Synchronous ablation: the commit settles before
                    // publish returns, so there is no pending window.
                    self.publish(CommitOp::Unlink { path: path.to_string() })?;
                } else {
                    // Mark the removal pending *before* publishing: once
                    // the worker can see the message it may settle it at
                    // any time, and retiring an unmarked unlink would
                    // leak the count.
                    let ts = self.core.now();
                    self.core.note_unlink_pending(path, ts);
                    if let Err(e) = self.publish_at(
                        CommitOp::Unlink { path: path.to_string() },
                        None,
                        false,
                        Some(ts),
                    ) {
                        self.core.note_unlink_retired(path, ts);
                        return Err(e);
                    }
                }
                self.core.counters.incr("unlink");
                Ok(())
            }
            Route::Merged(_) => Err(FsError::PermissionDenied),
            // lint: allow(commit-path, Route::Redirect: paths outside the workspace bypass partial consistency entirely)
            Route::Redirect => self.dfs.unlink(path, cred),
        }
    }

    fn rmdir(&self, path: &str, cred: &Credentials) -> FsResult<()> {
        self.charge_overhead();
        let merged = self.merged.read();
        match route(&self.core, &merged, path) {
            Route::Own => {
                drop(merged);
                if path == self.core.root {
                    return Err(FsError::InvalidArgument(
                        "cannot remove the consistent region's workspace root".into(),
                    ));
                }
                self.check_perm(self.parent_of(path)?, cred, ACCESS_W | ACCESS_X)?;
                // Existence/kind check (cache first, DFS on miss).
                let meta = self.get_or_load(path, cred)?;
                if meta.removed {
                    return Err(FsError::NotFound);
                }
                if meta.kind != FileKind::Dir {
                    return Err(FsError::NotADirectory);
                }
                // Barrier commit (sync, Section III.E-2).
                let guard = self.barrier()?;
                let epoch = guard.epoch();
                self.core.removed_dirs.write().push((path.to_string(), epoch));
                {
                    let mut memo = self.parent_memo.lock();
                    if memo.as_deref().map(|m| fspath::is_same_or_ancestor(path, m)).unwrap_or(false)
                    {
                        *memo = None;
                    }
                }
                // Clean the primary copy: the target and everything under
                // it (recursive removal, Section III.D-1).
                let keys = self.core.cache_cluster.keys_with_prefix(path.as_bytes());
                for key in keys {
                    if let Ok(k) = std::str::from_utf8(&key) {
                        if fspath::is_same_or_ancestor(path, k) {
                            // Best-effort: a crashed shard's records are
                            // wiped anyway; removed_dirs epochs guard any
                            // survivors from stale resurrection.
                            let _ = self.cache.try_delete(k);
                        }
                    }
                }
                {
                    let mut staging = self.core.staging.lock();
                    staging.retain(|k, _| !fspath::is_same_or_ancestor(path, k));
                }
                {
                    // Same rationale as unlink: re-creations after the
                    // rmdir must queue fresh writebacks.
                    let mut pending = self.core.pending_writebacks.lock();
                    pending.retain(|k| !fspath::is_same_or_ancestor(path, k));
                }
                // Backup copy: everything earlier is committed, so the
                // DFS subtree is complete; remove it synchronously.
                let res = self.remove_subtree_on_dfs(path, cred);
                guard.complete();
                self.core.counters.incr("rmdir");
                res
            }
            Route::Merged(_) => Err(FsError::PermissionDenied),
            // lint: allow(commit-path, Route::Redirect: paths outside the workspace bypass partial consistency entirely)
            Route::Redirect => self.dfs.rmdir(path, cred),
        }
    }

    fn readdir(&self, path: &str, cred: &Credentials) -> FsResult<Vec<String>> {
        self.charge_overhead();
        let merged = self.merged.read();
        match route(&self.core, &merged, path) {
            Route::Own => {
                drop(merged);
                self.check_perm(path, cred, ACCESS_R)?;
                // Barrier, then list on the DFS — avoids a full cache
                // table scan (Section III.D-1).
                let guard = self.barrier()?;
                let res = self.dfs.readdir(path, cred);
                guard.complete();
                self.core.counters.incr("readdir");
                res
            }
            Route::Merged(i) => {
                let m = &merged[i];
                if !m.handle.perms.check(path, cred, ACCESS_R) {
                    return Err(FsError::PermissionDenied);
                }
                // Read-only merged access cannot trigger a foreign
                // barrier; serve the committed view from the DFS.
                self.dfs.readdir(path, cred)
            }
            Route::Redirect => self.dfs.readdir(path, cred),
        }
    }

    fn readdir_plus(
        &self,
        path: &str,
        cred: &Credentials,
    ) -> FsResult<Vec<(String, FileStat)>> {
        self.charge_overhead();
        let merged = self.merged.read();
        match route(&self.core, &merged, path) {
            Route::Own => {
                drop(merged);
                self.check_perm(path, cred, ACCESS_R)?;
                // Barrier, then list on the DFS, exactly as `readdir`...
                let guard = self.barrier()?;
                let names = self.dfs.readdir(path, cred);
                guard.complete();
                self.core.counters.incr("readdir");
                let names = names?;
                // ...then fetch all child metadata in one batched call
                // instead of a stat round trip per entry.
                let children: Vec<String> =
                    names.iter().map(|n| fspath::join(path, n.as_str())).collect();
                let keys: Vec<&str> = children.iter().map(|p| p.as_str()).collect();
                let metas = match self.batched_get(&keys) {
                    Ok(m) => m,
                    Err(CacheError::Unavailable) => {
                        // Degraded: treat every child as a miss; the
                        // per-entry fallback below stats the backup copy.
                        self.core.counters.add("degraded_reads", keys.len() as u64);
                        vec![None; keys.len()]
                    }
                };
                let mut out = Vec::with_capacity(names.len());
                for ((name, child), meta) in names.into_iter().zip(&children).zip(metas) {
                    match meta {
                        Some((m, _)) if m.removed => {}
                        Some((m, _)) => out.push((name, m.to_stat())),
                        // Miss: the DFS load warms the cache for
                        // subsequent readers.
                        None => match self.load_from_dfs(child, cred) {
                            Ok(m) => out.push((name, m.to_stat())),
                            Err(FsError::NotFound) => {}
                            Err(e) => return Err(e),
                        },
                    }
                }
                Ok(out)
            }
            Route::Merged(i) => {
                let m = &merged[i];
                if !m.handle.perms.check(path, cred, ACCESS_R) {
                    return Err(FsError::PermissionDenied);
                }
                let names = self.dfs.readdir(path, cred)?;
                let children: Vec<String> =
                    names.iter().map(|n| fspath::join(path, n.as_str())).collect();
                let keys: Vec<&str> = children.iter().map(|p| p.as_str()).collect();
                // A faulted foreign cache degrades to all-misses: every
                // entry below falls back to the DFS.
                let metas = self
                    .batched_get_on(&m.cache, &keys)
                    .unwrap_or_else(|_| vec![None; keys.len()]);
                let mut out = Vec::with_capacity(names.len());
                for ((name, child), meta) in names.into_iter().zip(&children).zip(metas) {
                    match meta {
                        Some((mm, _)) if mm.removed => {}
                        Some((mm, _)) => out.push((name, mm.to_stat())),
                        // Read-only: DFS fallback without populating the
                        // foreign cache.
                        None => match self.dfs.stat(child, cred) {
                            Ok(st) => out.push((name, st)),
                            Err(FsError::NotFound) => {}
                            Err(e) => return Err(e),
                        },
                    }
                }
                Ok(out)
            }
            Route::Redirect => self.dfs.readdir_plus(path, cred),
        }
    }

    fn write(&self, path: &str, cred: &Credentials, offset: u64, data: &[u8]) -> FsResult<usize> {
        self.charge_overhead();
        let merged = self.merged.read();
        match route(&self.core, &merged, path) {
            Route::Own => {
                drop(merged);
                self.check_perm(path, cred, ACCESS_W)?;
                match self.cache.try_get(path) {
                    Ok(Some(_)) => {}
                    Ok(None) => {
                        self.load_from_dfs(path, cred)?;
                    }
                    Err(CacheError::Unavailable) => {
                        return self.degraded_write(path, cred, offset, data);
                    }
                }
                enum Outcome {
                    Inline,
                    WentLarge(Vec<u8>),
                    AlreadyLarge { committed: bool },
                }
                let mut outcome = Outcome::Inline;
                let end = offset as usize + data.len();
                let updated = match self.cache.try_update(path, |m| {
                    if m.removed {
                        return Err(FsError::NotFound);
                    }
                    if m.kind == FileKind::Dir {
                        return Err(FsError::IsADirectory);
                    }
                    if m.large {
                        outcome = Outcome::AlreadyLarge { committed: m.committed };
                        return Ok(());
                    }
                    let new_len = end.max(m.inline.len());
                    if self.inline_fits(path, new_len) {
                        if m.inline.len() < end {
                            m.inline.resize(end, 0);
                        }
                        m.inline[offset as usize..end].copy_from_slice(data);
                        m.size = new_len as u64;
                        m.mtime = self.core.now();
                        outcome = Outcome::Inline;
                    } else {
                        // Transition to a large file: data leaves the
                        // cache for the DFS (Section III.D-2).
                        let mut full = std::mem::take(&mut m.inline);
                        if full.len() < end {
                            full.resize(end, 0);
                        }
                        full[offset as usize..end].copy_from_slice(data);
                        m.large = true;
                        m.size = full.len() as u64;
                        m.mtime = self.core.now();
                        outcome = Outcome::WentLarge(full);
                    }
                    Ok(())
                }) {
                    Ok(r) => r?,
                    Err(CacheError::Unavailable) => {
                        return self.degraded_write(path, cred, offset, data);
                    }
                };
                let meta = updated.ok_or(FsError::NotFound)?;
                match outcome {
                    Outcome::Inline => {
                        // Coalesce: the worker reads the freshest primary
                        // copy at commit time, so one queued writeback
                        // covers all earlier writes to this file.
                        let fresh =
                            self.core.pending_writebacks.lock().insert(path.to_string());
                        if fresh {
                            self.publish_with_snapshot(
                                CommitOp::WriteInline { path: path.to_string() },
                                Some(&meta.inline),
                            )?;
                        } else {
                            self.core.counters.incr("writeback_coalesced");
                            if self.core.durable() && !self.core.config.synchronous_commit {
                                // The queued writeback absorbs this write
                                // at commit time, but the log still needs
                                // the bytes: replay rebuilds content from
                                // snapshots, and truncation is blocked
                                // while the absorbing writeback is in
                                // flight, so no extra enqueue accounting.
                                let op = CommitOp::WriteInline { path: path.to_string() };
                                let msg = QueueMsg {
                                    id: self.core.op_identity(&op),
                                    op,
                                    client: self.id.0,
                                    epoch: self.core.board.current_epoch(),
                                    timestamp: self.core.now(),
                                    degraded: false,
                                };
                                self.core.wal_append(
                                    self.node.index(),
                                    &msg,
                                    Some(&meta.inline),
                                )?;
                            }
                        }
                    }
                    Outcome::WentLarge(full) => {
                        if meta.committed {
                            // lint: allow(commit-path, data plane: committed file contents write back directly, only metadata is queued)
                            self.dfs.write(path, cred, 0, &full)?;
                        } else {
                            let n = full.len();
                            self.stage_data(path, full, n);
                        }
                    }
                    Outcome::AlreadyLarge { committed } => {
                        if committed {
                            // lint: allow(commit-path, data plane: committed file contents write back directly, only metadata is queued)
                            self.dfs.write(path, cred, offset, data)?;
                            self.cache.try_update::<()>(path, |m| {
                                m.size = m.size.max(end as u64);
                                m.mtime = self.core.now();
                                Ok(())
                            }).ok();
                        } else {
                            let mut staging = self.core.staging.lock();
                            let buf = staging.entry(path.to_string()).or_default();
                            if buf.len() < end {
                                buf.resize(end, 0);
                            }
                            buf[offset as usize..end].copy_from_slice(data);
                            let snapshot = buf.clone();
                            drop(staging);
                            self.stage_data(path, snapshot, data.len());
                            self.cache.try_update::<()>(path, |m| {
                                m.size = m.size.max(end as u64);
                                Ok(())
                            }).ok();
                        }
                    }
                }
                self.core.counters.incr("write");
                eviction::maybe_evict(&self.core, &self.cache);
                Ok(data.len())
            }
            Route::Merged(_) => Err(FsError::PermissionDenied),
            // lint: allow(commit-path, data plane: committed file contents write back directly, only metadata is queued)
            Route::Redirect => self.dfs.write(path, cred, offset, data),
        }
    }

    fn read(&self, path: &str, cred: &Credentials, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        self.charge_overhead();
        let merged = self.merged.read();
        match route(&self.core, &merged, path) {
            Route::Own => {
                drop(merged);
                self.check_perm(path, cred, ACCESS_R)?;
                let meta = self.get_or_load(path, cred)?;
                if meta.removed {
                    return Err(FsError::NotFound);
                }
                if meta.kind == FileKind::Dir {
                    return Err(FsError::IsADirectory);
                }
                if !meta.large {
                    let start = (offset as usize).min(meta.inline.len());
                    let end = (start + len).min(meta.inline.len());
                    return Ok(meta.inline[start..end].to_vec());
                }
                if meta.committed {
                    self.dfs.read(path, cred, offset, len)
                } else {
                    let staging = self.core.staging.lock();
                    let buf = staging.get(path).cloned().unwrap_or_default();
                    let start = (offset as usize).min(buf.len());
                    let end = (start + len).min(buf.len());
                    Ok(buf[start..end].to_vec())
                }
            }
            Route::Merged(i) => {
                let m = &merged[i];
                if !m.handle.perms.check(path, cred, ACCESS_R) {
                    return Err(FsError::PermissionDenied);
                }
                match m.cache.try_get(path) {
                    Ok(Some((meta, _))) if !meta.large && !meta.removed => {
                        let start = (offset as usize).min(meta.inline.len());
                        let end = (start + len).min(meta.inline.len());
                        Ok(meta.inline[start..end].to_vec())
                    }
                    _ => self.dfs.read(path, cred, offset, len),
                }
            }
            Route::Redirect => self.dfs.read(path, cred, offset, len),
        }
    }

    fn fsync(&self, path: &str, cred: &Credentials) -> FsResult<()> {
        self.charge_overhead();
        let merged = self.merged.read();
        match route(&self.core, &merged, path) {
            Route::Own => {
                drop(merged);
                let meta = self.get_or_load(path, cred)?;
                if meta.removed {
                    return Err(FsError::NotFound);
                }
                if meta.kind == FileKind::Dir {
                    return Ok(());
                }
                match (meta.large, meta.committed) {
                    // Small file already on the DFS: write back inline
                    // data synchronously.
                    (false, true) => {
                        // lint: allow(commit-path, fsync writes back committed inline data directly; metadata already queued)
                        self.dfs.write(path, cred, 0, &meta.inline)?;
                        self.dfs.fsync(path, cred)
                    }
                    // Small file not yet created on the DFS: direct-I/O
                    // staging ("cache files", Section III.D-2).
                    (false, false) => {
                        let n = meta.inline.len();
                        self.stage_data(path, meta.inline.clone(), n);
                        Ok(())
                    }
                    (true, true) => self.dfs.fsync(path, cred),
                    // Large & uncommitted: every write already staged
                    // durably.
                    (true, false) => Ok(()),
                }
            }
            Route::Merged(_) => Err(FsError::PermissionDenied),
            Route::Redirect => self.dfs.fsync(path, cred),
        }
    }
}

/// Route a path against the own region and the merged handles without
/// cloning anything.
fn route(core: &RegionCore, merged: &[Merged], path: &str) -> Route {
    if core.contains(path) {
        return Route::Own;
    }
    for (i, m) in merged.iter().enumerate() {
        if fspath::is_same_or_ancestor(&m.handle.root, path) {
            return Route::Merged(i);
        }
    }
    Route::Redirect
}
