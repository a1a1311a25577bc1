//! Consistent regions (Section III.A) and their runtime.
//!
//! A [`PaconRegion`] owns everything Pacon launches with an application:
//! the distributed metadata cache (one shard per node), the per-node
//! commit queues and commit processes, the barrier board, and the batch
//! permission table. Clients are handed out per process and share the
//! region through an `Arc<RegionCore>`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use dfs::DfsCluster;
use fsapi::{path as fspath, FsError, FsResult};
use fsapi::FileSystem;
use memkv::KvCluster;
use mq::{push_pull, ReliablePublisher};
use simnet::{ClientId, Counters, NodeId};
use syncguard::{level, Mutex, RwLock};

use crate::client::PaconClient;
use crate::commit::barrier::{BarrierBoard, BarrierGuard};
use crate::commit::op::{CommitOp, QueueMsg};
use crate::commit::publish::PublishBuffer;
use crate::commit::wal::{CommitWal, CrashPoint, CrashSwitch, WalEntry};
use crate::commit::worker::{CommitWorker, WorkerStep};
use crate::config::PaconConfig;
use crate::permission::RegionPermissions;

/// Capacity of each per-node commit queue.
const COMMIT_QUEUE_CAPACITY: usize = 1 << 16;

/// State shared by every client and commit process of one region.
pub struct RegionCore {
    /// Normalized workspace root.
    pub root: String,
    pub config: PaconConfig,
    pub perms: RegionPermissions,
    /// The distributed metadata cache.
    pub cache_cluster: Arc<KvCluster>,
    /// Barrier rendezvous (one commit process per node).
    pub board: BarrierBoard,
    /// Directories removed by barrier commits: `(path, epoch at removal)`.
    /// Creations under them from earlier epochs are discarded.
    pub removed_dirs: RwLock<Vec<(String, u64)>>,
    /// Durable staging area for data whose target file is not yet created
    /// on the DFS (the paper's direct-I/O "cache files", Section III.D-2).
    pub staging: Mutex<HashMap<String, Vec<u8>>>,
    /// Paths with an inline-data writeback already queued. Since the
    /// commit process reads the *current* primary copy at commit time,
    /// one queued writeback covers every earlier write to the file —
    /// repeated small-file writes coalesce instead of flooding the queue.
    pub pending_writebacks: Mutex<std::collections::HashSet<String>>,
    /// Acknowledged-but-uncommitted unlinks per path, by publish
    /// timestamp (a multiset: each published `CommitOp::Unlink` holds one
    /// entry until it settles). Three consumers: the commit worker defers
    /// the cache-record deletion while a *newer* unlink is still pending
    /// (deleting would drop that unlink's removed-mark), the read path
    /// refuses to resurrect the record from the DFS backup (which still
    /// holds the file until the pending unlink commits), and the
    /// duplicate-admission check uses the timestamps to tell a legitimate
    /// re-creation (an unlink acknowledged between the blocking file's
    /// birth and the creation) from a duplicate.
    pub(crate) pending_removals: Mutex<HashMap<String, Vec<u64>>>,
    /// Paths whose cache record may be a stale survivor of a
    /// degraded-mode unlink: the removal was acknowledged against the
    /// backup view while the record's shard was unreachable, so a record
    /// that outlives the outage still reads `removed = false`. Hits on
    /// marked paths are deleted instead of served (lazy cleanup in
    /// `MetaCache::try_get` plus the commit worker's settle).
    pub(crate) stale_tombstones: Mutex<std::collections::HashSet<String>>,
    /// Logical timestamp of the last *committed* creation per live path
    /// (cleared when an unlink commits). Lets the commit worker tell a
    /// duplicate admission from a genuine ordering conflict when a
    /// creation hits `AlreadyExists`: a committed file *older* than the
    /// failing creation means the path was already acknowledged-created
    /// when this op was admitted (the admission check saw a cold or
    /// unreachable cache) — retrying would resurrect it after a later
    /// unlink. A *newer* committed file is a cross-queue race the retry
    /// backlog resolves.
    pub(crate) committed_births: Mutex<HashMap<String, u64>>,
    /// Group commit: one publish buffer per node, coalescing ops before
    /// they enter the commit queue. Unused (always empty) when
    /// `commit_batch_size <= 1`.
    pub publish_bufs: Vec<Mutex<PublishBuffer>>,
    /// Per-node commit-queue links, each behind one redelivery window.
    /// Every commit op and group-commit batch is published through its
    /// node's window, so it survives broker loss and is resent after a
    /// heal or flush. Barrier markers use the raw link on purpose — a
    /// barrier during an outage should fail, not silently queue.
    pub(crate) queues: Vec<ReliablePublisher<QueueMsg>>,
    pub counters: Counters,
    /// Operations published to the commit queues (barrier markers not
    /// counted).
    pub enqueued: AtomicU64,
    /// Operations fully handled by commit processes (committed, discarded
    /// or dropped).
    pub completed: AtomicU64,
    clock: AtomicU64,
    /// Round-robin pointer of the eviction policy (Section III.F).
    pub evict_cursor: AtomicUsize,
    /// Durable commit logs, one per node. Empty in volatile mode — the
    /// cheap `wals.is_empty()` check is the durability switch on every
    /// hot path.
    pub wals: Vec<CommitWal>,
    /// Deterministic kill trigger for the crash-recovery harness. Never
    /// armed in production; two relaxed atomic loads when idle.
    pub crash: CrashSwitch,
    /// This launch's incarnation (from the WAL directory's counter file;
    /// 0 in volatile mode). High bits of every `write_id`.
    pub incarnation: u64,
    /// Region-wide mutation sequence (low bits of `write_id`).
    write_seq: AtomicU64,
    /// Durable mode: latest namespace generation per path, so writeback
    /// identities can be ordered against re-creations during replay.
    pub(crate) generations: Mutex<HashMap<String, u64>>,
    /// Virtual-ns clock of the fault plane. Backoff "sleeps" and the
    /// chaos driver advance it; degraded windows are measured on it.
    /// Distinct from `clock`, whose ticks are per-event identities.
    sim_ns: AtomicU64,
    /// Degraded-mode state machine (Healthy → Degraded → Rewarming).
    pub degraded: crate::degraded::DegradedState,
}

impl RegionCore {
    /// Monotonic logical timestamp.
    pub fn now(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Current virtual time (fault plane), in ns.
    pub fn sim_ns(&self) -> u64 {
        self.sim_ns.load(Ordering::Relaxed)
    }

    /// Advance the virtual clock by `ns` (a backoff "sleep" or a chaos
    /// driver step); returns the new time. No wall time passes.
    pub fn advance(&self, ns: u64) -> u64 {
        self.sim_ns.fetch_add(ns, Ordering::Relaxed) + ns
    }

    /// Is `path` inside this consistent region?
    pub fn contains(&self, path: &str) -> bool {
        fspath::is_same_or_ancestor(&self.root, path)
    }

    pub fn note_enqueued(&self) {
        self.enqueued.fetch_add(1, Ordering::Relaxed);
    }

    pub fn note_completed(&self) {
        self.completed.fetch_add(1, Ordering::Relaxed);
    }

    /// True when every published operation has been handled.
    pub fn drained(&self) -> bool {
        self.enqueued.load(Ordering::Acquire) == self.completed.load(Ordering::Acquire)
    }

    /// Whether this region journals its commit queue.
    pub fn durable(&self) -> bool {
        !self.wals.is_empty()
    }

    /// An unlink for `path`, publish-stamped `ts`, was acknowledged and
    /// is about to be (or has just been) published.
    pub(crate) fn note_unlink_pending(&self, path: &str, ts: u64) {
        self.pending_removals.lock().entry(path.to_string()).or_default().push(ts);
    }

    /// The published unlink stamped `ts` settled (committed, discarded or
    /// dropped) — or its publish failed and the pending mark rolls back.
    pub(crate) fn note_unlink_retired(&self, path: &str, ts: u64) {
        let mut pending = self.pending_removals.lock();
        if let Some(v) = pending.get_mut(path) {
            if let Some(i) = v.iter().position(|&t| t == ts) {
                v.swap_remove(i);
            }
            if v.is_empty() {
                pending.remove(path);
            }
        }
    }

    /// Does `path` have an acknowledged unlink still in the commit queue?
    /// While it does, the DFS backup may still hold the file, but program
    /// order says it is gone — reads must not resurrect it.
    pub(crate) fn unlink_pending(&self, path: &str) -> bool {
        self.pending_removals.lock().contains_key(path)
    }

    /// Is an unlink with publish timestamp strictly inside
    /// `(after, before)` still pending for `path`? Distinguishes a
    /// legitimate re-creation (its predecessor's removal is acknowledged
    /// but not yet committed — the creation must wait for it) from a
    /// duplicate admission (no removal separates it from the committed
    /// file it collides with).
    pub(crate) fn unlink_pending_between(&self, path: &str, after: u64, before: u64) -> bool {
        self.pending_removals
            .lock()
            .get(path)
            .is_some_and(|v| v.iter().any(|&t| after < t && t < before))
    }

    /// A degraded-mode unlink was acknowledged while `path`'s shard was
    /// unreachable: any surviving cache record is a stale incarnation.
    pub(crate) fn mark_stale_tombstone(&self, path: &str) {
        self.stale_tombstones.lock().insert(path.to_string());
    }

    /// The stale record was deleted (or a fresh authoritative record was
    /// written): hits on `path` are trustworthy again.
    pub(crate) fn clear_stale_tombstone(&self, path: &str) {
        self.stale_tombstones.lock().remove(path);
    }

    pub(crate) fn is_stale_tombstone(&self, path: &str) -> bool {
        self.stale_tombstones.lock().contains(path)
    }

    /// A creation for `path` committed on the DFS at logical time `ts`.
    pub(crate) fn note_birth(&self, path: &str, ts: u64) {
        self.committed_births.lock().insert(path.to_string(), ts);
    }

    /// An unlink for `path` committed: the recorded birth is gone.
    pub(crate) fn clear_birth(&self, path: &str) {
        self.committed_births.lock().remove(path);
    }

    /// Logical timestamp of `path`'s last committed creation, if a
    /// creation committed through this region and no unlink has since.
    pub(crate) fn birth_of(&self, path: &str) -> Option<u64> {
        self.committed_births.lock().get(path).copied()
    }

    /// Allocate the replay identity for an op about to be published.
    /// Creations/unlinks start a new namespace generation for their path;
    /// writebacks inherit the current one. `OpId::NONE` in volatile mode.
    pub(crate) fn op_identity(&self, op: &CommitOp) -> dfs::OpId {
        if self.wals.is_empty() {
            return dfs::OpId::NONE;
        }
        let seq = self.write_seq.fetch_add(1, Ordering::Relaxed) + 1;
        // Panics on a 2^40 per-launch mutation overflow rather than
        // letting seq bleed into the incarnation bits and collide with
        // identities already in the seen-cache.
        let write_id = dfs::OpId::pack_write_id(self.incarnation, seq);
        let generation = match op {
            CommitOp::Mkdir { path, .. }
            | CommitOp::Create { path, .. }
            | CommitOp::Unlink { path } => {
                self.generations.lock().insert(path.clone(), write_id);
                write_id
            }
            CommitOp::WriteInline { path } => {
                self.generations.lock().get(path).copied().unwrap_or(0)
            }
            CommitOp::Barrier { .. } | CommitOp::Batch(_) => 0,
        };
        dfs::OpId { write_id, generation }
    }

    /// Append an identified op to its node's commit log (durable mode;
    /// no-op otherwise). Hosts the harness's two client-side crash
    /// points. Callers must `note_enqueued` *before* appending: that
    /// ordering is what makes `drained()` under the WAL lock prove the
    /// log holds no unconfirmed op (see [`CommitWal::truncate_if`]).
    pub(crate) fn wal_append(
        &self,
        node: usize,
        msg: &QueueMsg,
        snapshot: Option<&[u8]>,
    ) -> FsResult<()> {
        let Some(wal) = self.wals.get(node) else {
            return Ok(());
        };
        if self.crash.hit(CrashPoint::PreAppend) {
            return Err(CrashSwitch::error(CrashPoint::PreAppend));
        }
        let synced = wal.append(msg, snapshot)?;
        self.counters.incr("wal_appended");
        if synced {
            self.counters.incr("wal_fsyncs");
        }
        if self.crash.hit(CrashPoint::PostAppend) {
            return Err(CrashSwitch::error(CrashPoint::PostAppend));
        }
        Ok(())
    }

    /// Truncate every node's commit log if the region is fully drained —
    /// called after completions; two atomic loads when there is still
    /// work in flight. Hosts the post-apply/pre-truncate crash point.
    /// Returns whether every log was truncated by this pass (and is thus
    /// provably empty), which is when replay identities become prunable.
    pub fn maybe_truncate_wals(&self) -> bool {
        if self.wals.is_empty() || !self.drained() {
            return false;
        }
        if self.crash.hit(CrashPoint::PreTruncate) {
            return false;
        }
        let mut all_truncated = true;
        for wal in &self.wals {
            match wal.truncate_if(|| self.drained()) {
                Ok(true) => self.counters.incr("wal_truncations"),
                Ok(false) => all_truncated = false,
                Err(_) => {
                    self.counters.incr("wal_errors");
                    all_truncated = false;
                }
            }
        }
        all_truncated
    }

    /// Unconditionally truncate every commit log (end of a successful
    /// recovery; checkpoint rollback).
    pub(crate) fn reset_wals(&self) -> FsResult<()> {
        for wal in &self.wals {
            wal.reset()?;
            self.counters.incr("wal_truncations");
        }
        Ok(())
    }

    /// Open a barrier for `client`: force every node's publish buffer out
    /// (every op queued before the marker must commit before the
    /// dependent op runs, including ops still coalescing below the batch
    /// threshold), queue a marker behind it on every node, and wait until
    /// every commit process reached its marker. The caller performs the
    /// dependent op, then completes the guard.
    pub(crate) fn barrier(&self, client: u32) -> FsResult<BarrierGuard<'_>> {
        let guard = self.board.start_barrier();
        let epoch = guard.epoch();
        for (n, queue) in self.queues.iter().enumerate() {
            self.flush_publish_buffer(n)?;
            let marker = QueueMsg {
                op: CommitOp::Barrier { epoch },
                client,
                epoch,
                timestamp: self.now(),
                id: dfs::OpId::NONE,
                degraded: false,
            };
            // permit_blocking: the barrier slot is held across the marker
            // send by design — workers never take the slot, they only
            // drain the queue, so a full queue always resolves.
            syncguard::permit_blocking(|| queue.inner().send(marker))
                .map_err(|_| FsError::Backend("commit queue closed".into()))?;
        }
        guard.wait_workers();
        Ok(guard)
    }

    /// Publish `msg` through node `node`'s redelivery window. A severed
    /// link buffers it — acknowledged, still in flight, resent on heal or
    /// flush — instead of failing. `Err` only once every consumer is gone.
    pub(crate) fn publish_reliably(&self, node: usize, msg: QueueMsg) -> FsResult<()> {
        match ReliablePublisher::publish(&self.queues[node], msg) {
            Ok(out) => {
                if out.pending > 0 {
                    self.counters.incr("publishes_buffered");
                }
                Ok(())
            }
            Err(mq::Disconnected) => Err(FsError::Backend("commit queue closed".into())),
        }
    }

    /// Flush node `node`'s publish buffer into its commit queue as one
    /// message, through the node's redelivery window. The buffer lock is
    /// held across the send so concurrent publishers on the node cannot
    /// reorder around the flush. This is deadlock-free: the commit
    /// process only takes the buffer lock when its queue is *empty*, so a
    /// full queue implies it is draining and the blocking send resolves.
    pub(crate) fn flush_publish_buffer(&self, node: usize) -> FsResult<()> {
        let mut buf = self.publish_bufs[node].lock();
        if buf.is_empty() {
            return Ok(());
        }
        let batch = buf.take_all();
        let msg = if batch.len() == 1 {
            batch.into_iter().next().expect("len checked")
        } else {
            self.counters.incr("batches_flushed");
            self.counters.add("batched_ops", batch.len() as u64);
            QueueMsg {
                op: CommitOp::Batch(batch),
                client: u32::MAX,
                epoch: self.board.current_epoch(),
                timestamp: self.now(),
                id: dfs::OpId::NONE,
                degraded: false,
            }
        };
        // permit_blocking: the send blocks while the buffer lock is held by
        // design (see the method doc for the deadlock-freedom argument).
        syncguard::permit_blocking(|| self.publish_reliably(node, msg))
    }
}

/// Read-only view of a region another application merged in
/// (Section III.D-4).
#[derive(Clone)]
pub struct RegionHandle {
    pub root: String,
    pub cache_cluster: Arc<KvCluster>,
    pub perms: RegionPermissions,
}

/// A running consistent region.
pub struct PaconRegion {
    core: Arc<RegionCore>,
    dfs: Arc<DfsCluster>,
    /// Workers not yet claimed by a thread or the DES driver.
    worker_slots: Mutex<Vec<Option<CommitWorker>>>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    stop: Arc<AtomicBool>,
    /// Crash simulation: workers bail out immediately, dropping pending
    /// commits (see [`PaconRegion::abort`]).
    hard_stop: Arc<AtomicBool>,
}

impl PaconRegion {
    /// Initialize the region and start one commit-process thread per
    /// node. The workspace directory (and its ancestors) are created on
    /// the DFS if missing.
    pub fn launch(config: PaconConfig, dfs: &Arc<DfsCluster>) -> FsResult<Arc<Self>> {
        let region = Self::launch_paused(config, dfs)?;
        region.start_worker_threads();
        Ok(region)
    }

    /// As [`PaconRegion::launch`] but without spawning worker threads —
    /// the discrete-event harness claims the workers via
    /// [`PaconRegion::take_worker`] and drives them in virtual time.
    pub fn launch_paused(config: PaconConfig, dfs: &Arc<DfsCluster>) -> FsResult<Arc<Self>> {
        let root = fspath::normalize(&config.workspace)?;
        if root == "/" {
            return Err(FsError::InvalidPath(
                "workspace cannot be the filesystem root".into(),
            ));
        }

        // Ensure the workspace exists on the DFS (uncharged setup unless a
        // recorder is active; this happens once at application start).
        let setup = dfs.client();
        let mut prefix = String::new();
        for comp in fspath::components(&root) {
            prefix.push('/');
            prefix.push_str(comp);
            // lint: allow(commit-path, one-time workspace setup at region launch, before any client or worker runs)
            match setup.mkdir(&prefix, &config.cred, 0o777) {
                Ok(()) | Err(FsError::AlreadyExists) => {}
                Err(e) => return Err(e),
            }
        }

        let perms = config
            .permissions
            .clone()
            .unwrap_or_else(|| RegionPermissions::default_for(config.cred));
        let cache_cluster = KvCluster::with_station_base(
            config.topology,
            Arc::clone(dfs.profile()),
            config.station_base,
        );
        let nodes = config.topology.nodes as usize;

        // Durable mode: bump the incarnation, open every node's commit
        // log crash-safely, and collect surviving entries for replay.
        let mut wals = Vec::new();
        let mut recovered: Vec<Vec<WalEntry>> = Vec::new();
        let mut incarnation = 0u64;
        if let Some(wal_dir) = &config.wal_dir {
            std::fs::create_dir_all(wal_dir)
                .map_err(|e| FsError::Backend(format!("wal dir {}: {e}", wal_dir.display())))?;
            incarnation = bump_incarnation(wal_dir)?;
            for n in 0..nodes {
                let (wal, entries) = CommitWal::open(
                    &wal_dir.join(format!("node{n}.wal")),
                    config.wal_fsync_batch,
                )?;
                wals.push(wal);
                recovered.push(entries);
            }
        }

        let (txs, rxs): (Vec<_>, Vec<_>) =
            (0..nodes).map(|_| push_pull::<QueueMsg>(COMMIT_QUEUE_CAPACITY)).unzip();
        let core = Arc::new(RegionCore {
            root,
            perms,
            cache_cluster,
            board: BarrierBoard::new(nodes),
            removed_dirs: RwLock::new(level::REGION_STATE, "pacon.region.removed_dirs", Vec::new()),
            staging: Mutex::new(level::REGION_STATE, "pacon.region.staging", HashMap::new()),
            pending_writebacks: Mutex::new(
                level::REGION_STATE,
                "pacon.region.pending_writebacks",
                std::collections::HashSet::new(),
            ),
            pending_removals: Mutex::new(
                level::REGION_STATE,
                "pacon.region.pending_removals",
                HashMap::new(),
            ),
            stale_tombstones: Mutex::new(
                level::REGION_STATE,
                "pacon.region.stale_tombstones",
                std::collections::HashSet::new(),
            ),
            committed_births: Mutex::new(
                level::REGION_STATE,
                "pacon.region.committed_births",
                HashMap::new(),
            ),
            publish_bufs: (0..nodes)
                .map(|_| Mutex::new(level::PUBLISH, "pacon.region.publish_buf", PublishBuffer::new()))
                .collect(),
            queues: txs.into_iter().map(ReliablePublisher::new).collect(),
            counters: Counters::new(),
            enqueued: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            evict_cursor: AtomicUsize::new(0),
            wals,
            crash: CrashSwitch::new(),
            incarnation,
            write_seq: AtomicU64::new(0),
            generations: Mutex::new(
                level::REGION_STATE,
                "pacon.region.generations",
                HashMap::new(),
            ),
            sim_ns: AtomicU64::new(0),
            degraded: crate::degraded::DegradedState::new(),
            config,
        });

        // Replay surviving commit-log entries from the previous
        // incarnation before any new work is accepted, then truncate.
        let total_recovered: usize = recovered.iter().map(|v| v.len()).sum();
        if total_recovered > 0 {
            core.counters.add("wal_replayed", total_recovered as u64);
            replay_wal_entries(&core, &setup, recovered)?;
            core.reset_wals()?;
        }
        if core.durable() {
            // Writebacks to files created by earlier incarnations must
            // carry those files' creation generations, not 0: seed the
            // in-memory generation map from the cluster's records before
            // any client publishes.
            let seeded = dfs.replay_generations_under(&core.root);
            if !seeded.is_empty() {
                core.generations.lock().extend(seeded);
            }
            // Every earlier incarnation's log was just replayed (or found
            // empty) and reset, so the identities those logs could replay
            // are confirmed-and-gone: shed them from the seen-cache.
            let pruned = dfs.prune_replay_identities(&core.root, core.incarnation);
            core.counters.add("replay_pruned", pruned as u64);
        }

        let workers = rxs
            .into_iter()
            .enumerate()
            .map(|(n, rx)| {
                Some(CommitWorker::new(NodeId(n as u32), rx, dfs.client(), Arc::clone(&core)))
            })
            .collect();

        Ok(Arc::new(Self {
            core,
            dfs: Arc::clone(dfs),
            worker_slots: Mutex::new(level::REGION_STATE, "pacon.region.worker_slots", workers),
            threads: Mutex::new(level::REGION_STATE, "pacon.region.threads", Vec::new()),
            stop: Arc::new(AtomicBool::new(false)),
            hard_stop: Arc::new(AtomicBool::new(false)),
        }))
    }

    /// Spawn one thread per remaining worker slot.
    pub fn start_worker_threads(&self) {
        // Collect the handles locally so `worker_slots` and `threads`
        // (same lock level) are never held together.
        let mut spawned = Vec::new();
        let mut slots = self.worker_slots.lock();
        for slot in slots.iter_mut() {
            if let Some(mut worker) = slot.take() {
                let stop = Arc::clone(&self.stop);
                let hard_stop = Arc::clone(&self.hard_stop);
                let core = Arc::clone(&self.core);
                spawned.push(std::thread::spawn(move || loop {
                    if hard_stop.load(Ordering::Acquire) {
                        break;
                    }
                    match worker.step() {
                        WorkerStep::Committed
                        | WorkerStep::Batch { .. }
                        | WorkerStep::Retried
                        | WorkerStep::Discarded
                        | WorkerStep::BarrierReported => {}
                        WorkerStep::Blocked(epoch) => core.board.wait_released(epoch),
                        WorkerStep::Idle => {
                            if stop.load(Ordering::Acquire) && worker.backlog_empty() {
                                break;
                            }
                            std::thread::sleep(std::time::Duration::from_micros(100));
                        }
                        WorkerStep::Disconnected | WorkerStep::Crashed => break,
                    }
                }));
            }
        }
        drop(slots);
        self.threads.lock().extend(spawned);
    }

    /// Claim node `n`'s commit worker for external (DES) driving.
    pub fn take_worker(&self, n: usize) -> CommitWorker {
        self.worker_slots.lock()[n]
            .take()
            .expect("worker already claimed or thread-started")
    }

    /// A client for process `id` (determines its node and cache shard
    /// affinity).
    pub fn client(self: &Arc<Self>, id: ClientId) -> PaconClient {
        let node = self.core.config.topology.node_of(id);
        PaconClient::new(
            Arc::clone(&self.core),
            self.core.cache_cluster.client(node),
            self.dfs.client(),
            id,
            node,
        )
    }

    /// Shared core (tests, eviction, checkpoints).
    pub fn core(&self) -> &Arc<RegionCore> {
        &self.core
    }

    /// The DFS this region commits to.
    pub fn dfs(&self) -> &Arc<DfsCluster> {
        &self.dfs
    }

    /// Read-only handle for merging into another application's view.
    pub fn handle(&self) -> RegionHandle {
        RegionHandle {
            root: self.core.root.clone(),
            cache_cluster: Arc::clone(&self.core.cache_cluster),
            perms: self.core.perms.clone(),
        }
    }

    /// Block until every published operation has been committed
    /// (threaded mode only).
    pub fn quiesce(&self) {
        while !self.core.drained() {
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    }

    /// Simulate a crash: stop the commit processes immediately, dropping
    /// everything still queued. Uncommitted primary-copy state is lost,
    /// exactly the failure Section III.G's checkpoint/rollback recovers
    /// from.
    pub fn abort(&self) {
        self.hard_stop.store(true, Ordering::Release);
        let mut threads = self.threads.lock();
        for t in threads.drain(..) {
            // lint: allow(hold-across-blocking, abort joins commit threads under `threads`; joined threads never take it)
            let _ = t.join();
        }
    }

    /// Drain the queues and stop the commit threads.
    pub fn shutdown(&self) -> FsResult<()> {
        self.quiesce();
        self.stop.store(true, Ordering::Release);
        let mut threads = self.threads.lock();
        for t in threads.drain(..) {
            // lint: allow(hold-across-blocking, shutdown joins commit threads under `threads`; joined threads never take it)
            t.join().map_err(|_| FsError::Backend("commit thread panicked".into()))?;
        }
        Ok(())
    }

    /// Apply one scripted fault event to the region's subsystems — the
    /// chaos driver's dispatch point. Cache-node events hit the memkv
    /// cluster; commit-link events hit the node's queue.
    pub fn apply_fault(&self, ev: simnet::FaultEvent) {
        use simnet::FaultEvent as E;
        match ev {
            E::CrashCacheNode(n) => self.core.cache_cluster.crash(n),
            E::RestartCacheNode(n) => self.core.cache_cluster.restart(n),
            E::SlowCacheNode { node, extra_ns } => {
                self.core.cache_cluster.set_slowdown(node, extra_ns)
            }
            E::RestoreCacheNode(n) => self.core.cache_cluster.set_slowdown(n, 0),
            E::PartitionCommitLink(n) => self.link(n.index()).partition(),
            E::CrashBroker(n) => {
                let lost = self.link(n.index()).sever();
                self.core.counters.add("broker_lost_msgs", lost as u64);
            }
            E::HealCommitLink(n) => self.link(n.index()).heal(),
            E::DuplicateCommitSends { node, count } => {
                self.link(node.index()).arm_duplicates(count)
            }
            E::JoinNode(n) => {
                let _ = self.core.cache_cluster.begin_join(n);
            }
            E::LeaveNode(n) => {
                let _ = self.core.cache_cluster.begin_leave(n);
            }
            E::CrashDuringMigration => {
                // Crash whichever node is mid-join/mid-leave — the
                // worst-case elasticity fault; the cluster resolves the
                // migration deterministically (join aborts, leave
                // force-completes).
                if let Some(n) = self.core.cache_cluster.migrating_node() {
                    self.core.cache_cluster.crash(n);
                }
            }
        }
    }

    /// Drive an in-flight cache-ring migration forward by up to
    /// `max_keys` key transfers — the chaos/reshard driver's per-tick
    /// pump (a real deployment's background transfer thread). No-op when
    /// no migration is active. Returns keys moved this call.
    pub fn pump_reshard(&self, max_keys: usize) -> usize {
        self.core.cache_cluster.migration_step(max_keys)
    }

    /// Node `n`'s raw commit-queue link, for fault control.
    fn link(&self, n: usize) -> &mq::Publisher<QueueMsg> {
        self.core.queues[n].inner()
    }

    /// Run an empty barrier: returns once every operation published
    /// before this call is committed to the DFS. Used by checkpointing
    /// and by tests that need a consistent backup copy without shutting
    /// the region down.
    pub fn sync_barrier(&self) {
        let guard = self.core.barrier(u32::MAX).expect("commit queue closed during sync barrier");
        guard.complete();
        // Everything published before the barrier is now confirmed; a
        // drained durable region can shed its logs.
        // lint: allow(hold-across-blocking, WAL truncation must run inside the barrier: the held slot fences new ops)
        if self.core.maybe_truncate_wals() {
            // Every log is empty and the barrier fences new publishes, so
            // no identity recorded under this root can ever replay: shed
            // them all (bounds seen-cache growth in long-lived regions).
            let pruned = self.dfs.prune_replay_identities(&self.core.root, u64::MAX);
            self.core.counters.add("replay_pruned", pruned as u64);
        }
    }
}

/// Read-increment-write the WAL directory's incarnation counter. The
/// incarnation forms the high bits of every `write_id`, so identities
/// never collide across restarts of the same region — which is why the
/// bump must be crash-safe: the new value is written to a temp file,
/// fsynced, renamed over the counter, and the directory is fsynced, so a
/// crash either keeps the old value (the next launch re-bumps past it)
/// or lands the new one, never a torn or reverted counter. A counter
/// that exists but does not parse fails the launch: silently restarting
/// from 0 would reuse incarnations and no-op real ops against stale
/// seen-cache identities.
fn bump_incarnation(wal_dir: &std::path::Path) -> FsResult<u64> {
    let io_err = |e: std::io::Error| FsError::Backend(format!("incarnation file: {e}"));
    let path = wal_dir.join("incarnation");
    let current = match std::fs::read_to_string(&path) {
        Ok(s) => s.trim().parse::<u64>().map_err(|_| {
            FsError::Backend(format!(
                "incarnation file {} is corrupt; refusing to reuse write_id space",
                path.display()
            ))
        })?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => 0,
        Err(e) => return Err(io_err(e)),
    };
    let next = current + 1;
    if next >= dfs::OpId::MAX_INCARNATION {
        return Err(FsError::Backend(
            "incarnation counter exhausted the write_id incarnation bits".into(),
        ));
    }
    let tmp = wal_dir.join("incarnation.tmp");
    {
        use std::io::Write as _;
        let mut f = std::fs::File::create(&tmp).map_err(io_err)?;
        f.write_all(next.to_string().as_bytes()).map_err(io_err)?;
        f.sync_all().map_err(io_err)?;
    }
    std::fs::rename(&tmp, &path).map_err(io_err)?;
    // The rename itself must be durable, or a crash could resurrect the
    // previous counter value after this launch already used `next`.
    std::fs::File::open(wal_dir).map_err(io_err)?.sync_all().map_err(io_err)?;
    Ok(next)
}

/// Replay recovered commit-log entries against the DFS, preserving
/// per-node order and interleaving nodes round-robin. An entry whose
/// parent is not yet present waits for the other queues; when no queue
/// can make progress **one** stuck head is dropped (preferring one whose
/// prerequisite was lost before it became durable) and the round-robin
/// resumes — an entry blocked only on an entry deeper in another queue
/// survives to apply once its prerequisite surfaces. All applies are
/// idempotent — a crash *during* this replay (see `recovery_crash_after`)
/// just means the next launch replays the same log again, and the
/// seen-cache no-ops the prefix that already landed.
fn replay_wal_entries(
    core: &RegionCore,
    fs: &dfs::DfsClient,
    per_node: Vec<Vec<WalEntry>>,
) -> FsResult<()> {
    let cred = core.config.cred;
    let mut queues: Vec<std::collections::VecDeque<WalEntry>> =
        per_node.into_iter().map(Into::into).collect();
    let crash_after = core.config.recovery_crash_after;
    let mut applied = 0u64;
    loop {
        let mut progress = false;
        let mut remaining = false;
        for q in queues.iter_mut() {
            while let Some(entry) = q.front() {
                if !replay_one(core, fs, entry, &cred)? {
                    remaining = true;
                    break;
                }
                q.pop_front();
                progress = true;
                applied += 1;
                core.counters.incr("recovery_applied");
                if crash_after == Some(applied) {
                    return Err(FsError::Backend("crash-kill: recovery interrupted".into()));
                }
            }
        }
        if !remaining {
            return Ok(());
        }
        if !progress && drop_one_stuck_head(&mut queues) {
            core.counters.incr("recovery_skipped");
        }
    }
}

/// Pick one stuck queue head to abandon when replay cannot make
/// progress. A head is only truly unrecoverable when the path it waits
/// for (its parent for creations, the file itself for writebacks) is not
/// created by *any* entry still queued — prefer dropping such a head.
/// Heads whose prerequisite is merely deeper in another queue get
/// another round once the blocker is gone. Falls back to the first
/// non-empty queue so that (impossible-in-practice) cyclic waits still
/// terminate.
fn drop_one_stuck_head(queues: &mut [std::collections::VecDeque<WalEntry>]) -> bool {
    let pending_creations: std::collections::HashSet<&str> = queues
        .iter()
        .flat_map(|q| q.iter())
        .filter_map(|e| match &e.msg.op {
            CommitOp::Mkdir { path, .. } | CommitOp::Create { path, .. } => Some(path.as_str()),
            _ => None,
        })
        .collect();
    let victim = queues
        .iter()
        .position(|q| {
            q.front().is_some_and(|e| match replay_waits_for(&e.msg.op) {
                Some(need) => !pending_creations.contains(need),
                None => true,
            })
        })
        .or_else(|| queues.iter().position(|q| !q.is_empty()));
    match victim {
        Some(i) => queues[i].pop_front().is_some(),
        None => false,
    }
}

/// The path a blocked replay entry is waiting to appear: the parent
/// directory for namespace creations, the file itself for data
/// writebacks. `None` for ops that never block in [`replay_one`].
fn replay_waits_for(op: &CommitOp) -> Option<&str> {
    match op {
        CommitOp::Mkdir { path, .. } | CommitOp::Create { path, .. } => fspath::parent(path),
        CommitOp::WriteInline { path } => Some(path),
        CommitOp::Unlink { .. } | CommitOp::Barrier { .. } | CommitOp::Batch(_) => None,
    }
}

/// Apply one recovered entry. `Ok(true)` = handled (applied, no-oped or
/// harmlessly moot), `Ok(false)` = blocked on an entry from another
/// node's queue.
fn replay_one(
    core: &RegionCore,
    fs: &dfs::DfsClient,
    entry: &WalEntry,
    cred: &fsapi::Credentials,
) -> FsResult<bool> {
    let msg = &entry.msg;
    let apply_ns = |op: dfs::BatchOp| -> FsResult<()> {
        fs.apply_batch_idempotent(&[op], &[msg.id], cred)
            .pop()
            .unwrap_or(Err(FsError::Backend("empty batch result".into())))
    };
    match &msg.op {
        CommitOp::Mkdir { path, mode } => {
            match apply_ns(dfs::BatchOp::Mkdir { path: path.clone(), mode: *mode }) {
                Ok(()) => Ok(true),
                // The directory exists (created outside the log's view):
                // the intent is satisfied.
                Err(FsError::AlreadyExists) => {
                    core.counters.incr("recovery_exists");
                    Ok(true)
                }
                Err(FsError::NotFound) => Ok(false),
                Err(e) => Err(e),
            }
        }
        CommitOp::Create { path, mode } => {
            match apply_ns(dfs::BatchOp::Create { path: path.clone(), mode: *mode }) {
                Ok(()) => Ok(true),
                Err(FsError::AlreadyExists) => {
                    core.counters.incr("recovery_exists");
                    Ok(true)
                }
                Err(FsError::NotFound) => Ok(false),
                Err(e) => Err(e),
            }
        }
        CommitOp::Unlink { path } => {
            match apply_ns(dfs::BatchOp::Unlink { path: path.clone() }) {
                Ok(()) => Ok(true),
                // Already gone — removal is satisfied.
                Err(FsError::NotFound) => {
                    core.counters.incr("recovery_gone");
                    Ok(true)
                }
                Err(e) => Err(e),
            }
        }
        CommitOp::WriteInline { path } => {
            let data = entry.snapshot.as_deref().unwrap_or(&[]);
            match fs.write_idempotent(path, cred, data, msg.id) {
                Ok(_) => Ok(true),
                Err(FsError::NotFound) => Ok(false),
                Err(e) => Err(e),
            }
        }
        // Barriers and batch wrappers are never logged.
        CommitOp::Barrier { .. } | CommitOp::Batch(_) => Ok(true),
    }
}

impl Drop for PaconRegion {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        let mut threads = self.threads.lock();
        for t in threads.drain(..) {
            // lint: allow(hold-across-blocking, shutdown joins commit threads under `threads`; joined threads never take it)
            let _ = t.join();
        }
    }
}

/// Route for an incoming path (used by the client).
pub enum Route {
    /// Inside this client's own region.
    Own,
    /// Inside merged region `idx` (read-only).
    Merged(usize),
    /// Outside every known region: redirect to the DFS.
    Redirect,
}

/// Pick a route for `path` given the own region and merged handles.
pub fn route_path(core: &RegionCore, merged: &[RegionHandle], path: &str) -> Route {
    if core.contains(path) {
        return Route::Own;
    }
    for (i, h) in merged.iter().enumerate() {
        if fspath::is_same_or_ancestor(&h.root, path) {
            return Route::Merged(i);
        }
    }
    Route::Redirect
}

/// The paper's use case 3 (Section III.B): applications with
/// *overlapping* working directories should run in the same large
/// consistent region — the topmost one. Given the requested workspaces,
/// return the workspace roots to actually launch regions for: every path
/// that has an ancestor in the set collapses into that ancestor.
///
/// ```
/// let roots = pacon::region::collapse_overlapping_workspaces(&[
///     "/A", "/A/B", "/C", "/C/D/E", "/F",
/// ]).unwrap();
/// assert_eq!(roots, vec!["/A", "/C", "/F"]);
/// ```
pub fn collapse_overlapping_workspaces(workspaces: &[&str]) -> FsResult<Vec<String>> {
    let mut normalized: Vec<String> = workspaces
        .iter()
        .map(|w| fspath::normalize(w))
        .collect::<FsResult<_>>()?;
    normalized.sort();
    normalized.dedup();
    let mut roots: Vec<String> = Vec::new();
    for w in normalized {
        // Sorted order guarantees any ancestor appears before its
        // descendants.
        if !roots.iter().any(|r| fspath::is_same_or_ancestor(r, &w)) {
            roots.push(w);
        }
    }
    Ok(roots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfs::DfsCluster;
    use fsapi::Credentials;
    use simnet::LatencyProfile;
    use simnet::Topology;

    fn launch(workspace: &str) -> (Arc<DfsCluster>, Arc<PaconRegion>) {
        let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
        let region = PaconRegion::launch_paused(
            PaconConfig::new(workspace, Topology::new(2, 2), Credentials::new(1, 1)),
            &dfs,
        )
        .unwrap();
        (dfs, region)
    }

    #[test]
    fn launch_creates_the_workspace_chain_on_the_dfs() {
        let (dfs, _region) = launch("/deep/nested/workspace");
        use fsapi::FileSystem;
        let fs = dfs.client();
        let cred = Credentials::new(1, 1);
        assert!(fs.stat("/deep", &cred).unwrap().is_dir());
        assert!(fs.stat("/deep/nested", &cred).unwrap().is_dir());
        assert!(fs.stat("/deep/nested/workspace", &cred).unwrap().is_dir());
    }

    #[test]
    fn workspace_root_rejected() {
        let dfs = DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
        let res = PaconRegion::launch_paused(
            PaconConfig::new("/", Topology::new(1, 1), Credentials::new(1, 1)),
            &dfs,
        );
        assert!(res.is_err());
    }

    #[test]
    fn contains_and_route() {
        let (_dfs, region) = launch("/app");
        let core = region.core();
        assert!(core.contains("/app"));
        assert!(core.contains("/app/x/y"));
        assert!(!core.contains("/apps"));
        assert!(!core.contains("/other"));
        assert!(matches!(route_path(core, &[], "/app/x"), Route::Own));
        assert!(matches!(route_path(core, &[], "/other"), Route::Redirect));
        let handle = region.handle();
        let (_d2, region2) = launch("/other");
        assert!(matches!(
            route_path(region2.core(), &[handle], "/app/x"),
            Route::Merged(0)
        ));
    }

    #[test]
    fn drained_tracks_enqueue_complete() {
        let (_dfs, region) = launch("/app");
        let core = region.core();
        assert!(core.drained());
        core.note_enqueued();
        assert!(!core.drained());
        core.note_completed();
        assert!(core.drained());
    }

    #[test]
    fn now_is_monotonic() {
        let (_dfs, region) = launch("/app");
        let a = region.core().now();
        let b = region.core().now();
        assert!(b > a);
    }

    fn plain_entry(op: CommitOp) -> WalEntry {
        WalEntry {
            msg: QueueMsg {
                op,
                client: 0,
                epoch: 0,
                timestamp: 0,
                id: dfs::OpId::NONE,
                degraded: false,
            },
            snapshot: None,
        }
    }

    /// Regression (review): a stalled replay round must only abandon the
    /// head whose prerequisite is truly lost. Here q0's `create /app/a/f`
    /// is blocked on `mkdir /app/a` sitting *behind* the unrecoverable
    /// `mkdir /lost/x` in q1 — the old all-heads drop lost the create.
    #[test]
    fn stalled_replay_drops_only_unrecoverable_heads() {
        let (dfs, region) = launch("/app");
        let fs = dfs.client();
        let core = region.core();
        let q0 = vec![plain_entry(CommitOp::Create { path: "/app/a/f".into(), mode: 0o644 })];
        let q1 = vec![
            plain_entry(CommitOp::Mkdir { path: "/lost/x".into(), mode: 0o755 }),
            plain_entry(CommitOp::Mkdir { path: "/app/a".into(), mode: 0o755 }),
        ];
        replay_wal_entries(core, &fs, vec![q0, q1]).unwrap();
        let cred = Credentials::new(1, 1);
        assert!(fs.stat("/app/a/f", &cred).unwrap().is_file(), "recoverable op was dropped");
        assert_eq!(core.counters.get("recovery_skipped"), 1, "only /lost/x is unrecoverable");
        assert_eq!(core.counters.get("recovery_applied"), 2);
    }

    #[test]
    fn stalled_replay_with_cyclic_waits_still_terminates() {
        let (dfs, region) = launch("/app");
        let fs = dfs.client();
        let core = region.core();
        // Each head waits on a creation queued behind the other's head.
        let q0 = vec![
            plain_entry(CommitOp::Create { path: "/app/x/f".into(), mode: 0o644 }),
            plain_entry(CommitOp::Mkdir { path: "/app/y".into(), mode: 0o755 }),
        ];
        let q1 = vec![
            plain_entry(CommitOp::Create { path: "/app/y/g".into(), mode: 0o644 }),
            plain_entry(CommitOp::Mkdir { path: "/app/x".into(), mode: 0o755 }),
        ];
        replay_wal_entries(core, &fs, vec![q0, q1]).unwrap();
        // One head had to be sacrificed to break the cycle; everything
        // else must land.
        assert_eq!(core.counters.get("recovery_skipped"), 1);
        assert_eq!(core.counters.get("recovery_applied"), 3);
    }

    #[test]
    fn incarnation_counter_bumps_durably_and_rejects_corruption() {
        let dir = std::env::temp_dir().join(format!(
            "pacon-incarnation-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(bump_incarnation(&dir).unwrap(), 1);
        assert_eq!(bump_incarnation(&dir).unwrap(), 2);
        assert!(!dir.join("incarnation.tmp").exists(), "temp file must not survive");
        // A corrupt counter must fail the launch, not restart from 0.
        std::fs::write(dir.join("incarnation"), "not-a-number").unwrap();
        assert!(bump_incarnation(&dir).is_err());
        // An exhausted counter must refuse rather than truncate.
        std::fs::write(dir.join("incarnation"), (dfs::OpId::MAX_INCARNATION - 1).to_string())
            .unwrap();
        assert!(bump_incarnation(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn collapse_overlapping() {
        let roots =
            collapse_overlapping_workspaces(&["/A/B", "/A", "/C/D/E", "/C", "/F"]).unwrap();
        assert_eq!(roots, vec!["/A", "/C", "/F"]);
        // Disjoint stays disjoint; sibling shared prefixes are distinct.
        let roots = collapse_overlapping_workspaces(&["/ab", "/a"]).unwrap();
        assert_eq!(roots, vec!["/a", "/ab"]);
        // Duplicates collapse.
        let roots = collapse_overlapping_workspaces(&["/x", "/x"]).unwrap();
        assert_eq!(roots, vec!["/x"]);
        // Invalid paths propagate errors.
        assert!(collapse_overlapping_workspaces(&["relative"]).is_err());
    }
}
