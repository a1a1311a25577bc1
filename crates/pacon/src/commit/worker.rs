//! The per-node commit process (the queue subscriber of Fig. 5).
//!
//! `step()` is non-blocking and handles exactly one unit of work, so the
//! same worker can be driven by a dedicated thread (real deployments,
//! threaded tests) or by the discrete-event harness in virtual time.
//!
//! Independent commit: operations the DFS rejects for a namespace-
//! convention reason (parent not created yet, pending removal) go to a
//! retry backlog and are resubmitted (Section III.E-1). Creations under
//! a directory that a barrier commit removed are discarded instead
//! (Section III.D-1). Barrier markers flush the backlog, report to the
//! barrier board and stall the worker until the dependent operation
//! completes (Section III.E-2).
//!
//! Group commit: a [`CommitOp::Batch`] message carries many operations
//! from the node's publish buffer. The worker pays the dispatch cost
//! once per message, commits the namespace ops through a single batched
//! DFS RPC (one namespace-lock acquisition server-side), and settles
//! each inner op independently — failed ops *disaggregate* into the
//! single-op retry backlog, so a partial batch failure degrades to
//! exactly the paper's independent-commit behaviour. When the queue runs
//! empty the worker also pulls whatever is still sitting in its node's
//! publish buffer, which gives quiesce/shutdown liveness without a flush
//! timer.

use std::collections::VecDeque;
use std::sync::Arc;

use dfs::{BatchOp, DfsClient};
use fsapi::{path as fspath, FsError, FsResult};
use fsapi::FileSystem;
use mq::{Consumer, TryRecvError};
use simnet::{charge, NodeId, Station};

use crate::cache::MetaCache;
use crate::commit::op::{CommitOp, QueueMsg};
use crate::commit::wal::CrashPoint;
use crate::region::RegionCore;

/// Outcome of one `step()` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerStep {
    /// One operation applied to the DFS.
    Committed,
    /// One batched message handled; per-op outcomes tallied. Retried ops
    /// were disaggregated into the single-op retry backlog.
    Batch { committed: u32, retried: u32, discarded: u32 },
    /// One operation failed a namespace check and went (back) to the
    /// retry backlog.
    Retried,
    /// One operation was discarded (removed directory, or retry budget
    /// exhausted).
    Discarded,
    /// A barrier marker was consumed and the board notified; the worker
    /// must now wait for the epoch to advance.
    BarrierReported,
    /// Waiting for a barrier epoch to be released (poll again).
    Blocked(u64),
    /// Nothing to do right now.
    Idle,
    /// Queue closed and backlog empty: the worker is done.
    Disconnected,
    /// The crash switch tripped: the node is dead. Unsettled work stays
    /// in the WAL for the next launch's recovery replay.
    Crashed,
}

/// Recent-message dedup window per worker. Duplicates only arise from
/// scripted duplicate delivery and are adjacent in FIFO order, so a
/// small window suffices.
const SEEN_WINDOW: usize = 64;

/// One op awaiting resubmission.
struct RetryEntry {
    msg: QueueMsg,
    attempts: u32,
    /// A previous attempt failed with a transient backend error. The op
    /// may have applied server-side with the reply lost, so a later
    /// `AlreadyExists` on a creation is idempotent success, not a
    /// conflict to retry.
    backend_faulted: bool,
}

pub struct CommitWorker {
    node: NodeId,
    consumer: Consumer<QueueMsg>,
    dfs: DfsClient,
    cache: MetaCache,
    core: Arc<RegionCore>,
    /// Ops awaiting resubmission.
    retry: VecDeque<RetryEntry>,
    /// Barrier epoch we reported and are stalled on.
    waiting: Option<u64>,
    /// Marker seen but backlog not yet flushed.
    flushing_for: Option<u64>,
    /// Consecutive retry-backlog failures with no fresh input; once a full
    /// cycle passes without progress the worker reports `Idle` instead of
    /// spinning (the missing prerequisite lives in another queue).
    stuck_retries: usize,
    /// `(client, timestamp)` of the most recent messages, for dropping
    /// duplicated deliveries (lossy-link fault plane).
    seen: VecDeque<(u32, u64)>,
}

impl CommitWorker {
    pub fn new(
        node: NodeId,
        consumer: Consumer<QueueMsg>,
        dfs: DfsClient,
        core: Arc<RegionCore>,
    ) -> Self {
        let cache = MetaCache::new(core.cache_cluster.client(node));
        Self {
            node,
            consumer,
            dfs,
            cache,
            core,
            retry: VecDeque::new(),
            waiting: None,
            flushing_for: None,
            stuck_retries: 0,
            seen: VecDeque::new(),
        }
    }

    /// Has this exact message already been consumed? Region timestamps
    /// are unique per message (`RegionCore::now` ticks on every build),
    /// so `(client, timestamp)` identifies a delivery exactly; a repeat
    /// within the window is a duplicated send. The publisher counted the
    /// op once, so the duplicate must be dropped without settling.
    fn is_duplicate(&mut self, msg: &QueueMsg) -> bool {
        let key = (msg.client, msg.timestamp);
        if self.seen.contains(&key) {
            return true;
        }
        if self.seen.len() == SEEN_WINDOW {
            self.seen.pop_front();
        }
        self.seen.push_back(key);
        false
    }

    pub fn node(&self) -> NodeId {
        self.node
    }

    /// True when the retry backlog is empty (shutdown condition).
    pub fn backlog_empty(&self) -> bool {
        self.retry.is_empty()
    }

    fn charge_dispatch(&self) {
        charge(
            Station::CommitProc(self.core.config.station_base + self.node.0),
            self.core.config_commit_dispatch(),
        );
    }

    /// Handle one unit of work. Never blocks.
    pub fn step(&mut self) -> WorkerStep {
        // A tripped crash switch means this node is dead: no further
        // progress, no settling — recovery owns whatever is in the log.
        if self.core.crash.tripped() {
            return WorkerStep::Crashed;
        }

        // Stalled at a barrier: resume only when released.
        if let Some(epoch) = self.waiting {
            if self.core.board.is_released(epoch) {
                self.waiting = None;
            } else {
                return WorkerStep::Blocked(epoch);
            }
        }

        // A marker was consumed: flush the retry backlog, then report.
        if let Some(epoch) = self.flushing_for {
            if let Some(e) = self.retry.pop_front() {
                return self.apply(e.msg, e.attempts, e.backend_faulted);
            }
            self.flushing_for = None;
            self.core.board.worker_reached(epoch);
            self.waiting = Some(epoch);
            return WorkerStep::BarrierReported;
        }

        // Fresh messages first; fall back to the publish buffer, then the
        // retry backlog.
        match self.consumer.try_recv() {
            Ok(msg) => {
                if self.is_duplicate(&msg) {
                    self.core.counters.incr("duplicate_drops");
                    return WorkerStep::Retried;
                }
                self.stuck_retries = 0;
                self.charge_dispatch();
                match msg.op {
                    CommitOp::Barrier { epoch } => {
                        self.flushing_for = Some(epoch);
                        // Re-enter immediately on the next step to flush.
                        WorkerStep::Retried
                    }
                    CommitOp::Batch(inner) => self.apply_batch(inner),
                    _ => self.apply(msg, 0, false),
                }
            }
            Err(TryRecvError::Empty) => match self.pull_publish_buffer() {
                Some(step) => step,
                None => self.step_retry(WorkerStep::Idle),
            },
            Err(TryRecvError::Disconnected) => match self.pull_publish_buffer() {
                Some(step) => step,
                None => self.step_retry(WorkerStep::Disconnected),
            },
        }
    }

    /// The queue is empty: drain whatever accumulated in this node's
    /// publish buffer below the flush threshold. Queue-empty plus a
    /// settled redelivery window means every earlier message was
    /// consumed, so buffered ops are the newest and applying them
    /// directly preserves per-node FIFO order. A batch the broker lost,
    /// or one waiting for a severed link to heal, is older than anything
    /// in the buffer: the next publish or flush resends it first.
    ///
    /// Both locks are only tried: a publisher holding either may be
    /// blocked sending into this worker's full queue, so waiting for it
    /// would deadlock. A busy lock just defers the pull to a later step.
    fn pull_publish_buffer(&mut self) -> Option<WorkerStep> {
        if self.core.config.commit_batch_size <= 1 {
            return None;
        }
        let node = self.node.0 as usize;
        let mut buf = self.core.publish_bufs[node].try_lock()?;
        if buf.is_empty() || self.core.queues[node].try_has_undelivered() != Some(false) {
            return None;
        }
        let batch = buf.take_all();
        drop(buf);
        self.stuck_retries = 0;
        self.charge_dispatch();
        if batch.len() == 1 {
            let msg = batch.into_iter().next().expect("len checked");
            Some(self.apply(msg, 0, false))
        } else {
            self.core.counters.incr("batches_flushed");
            self.core.counters.add("batched_ops", batch.len() as u64);
            Some(self.apply_batch(batch))
        }
    }

    /// Work the retry backlog with no fresh input. After one full cycle of
    /// failures, report `empty_step` so the caller can sleep — the
    /// prerequisite commit must come from another queue.
    fn step_retry(&mut self, empty_step: WorkerStep) -> WorkerStep {
        if self.retry.is_empty() {
            return empty_step;
        }
        if self.stuck_retries >= self.retry.len() {
            self.stuck_retries = 0;
            return empty_step;
        }
        let e = self.retry.pop_front().expect("checked non-empty");
        match self.apply(e.msg, e.attempts, e.backend_faulted) {
            WorkerStep::Retried => {
                self.stuck_retries += 1;
                WorkerStep::Retried
            }
            other => {
                self.stuck_retries = 0;
                other
            }
        }
    }

    /// Should a failed creation be discarded because its directory was
    /// removed by a barrier commit at or after the op's epoch?
    fn under_removed_dir(&self, path: &str, op_epoch: u64) -> bool {
        let removed = self.core.removed_dirs.read();
        removed
            .iter()
            .any(|(dir, epoch)| op_epoch <= *epoch && fspath::is_same_or_ancestor(dir, path))
    }

    /// Commit one batched message: namespace ops go through a single
    /// batched DFS RPC (in publish order), inline-data writebacks follow
    /// individually on the data path. Writebacks read the *current*
    /// primary copy at commit time, so settling them after the batch's
    /// namespace ops cannot regress any data. Each op settles
    /// independently; failures disaggregate into single-op retries.
    fn apply_batch(&mut self, inner: Vec<QueueMsg>) -> WorkerStep {
        let cred = self.core.config.cred;
        let mut ns_msgs = Vec::with_capacity(inner.len());
        let mut wb_msgs = Vec::new();
        for msg in inner {
            match &msg.op {
                CommitOp::WriteInline { .. } => wb_msgs.push(msg),
                CommitOp::Barrier { .. } | CommitOp::Batch(_) => {
                    unreachable!("markers and batches are never batched")
                }
                _ => ns_msgs.push(msg),
            }
        }

        let mut committed = 0u32;
        let mut retried = 0u32;
        let mut discarded = 0u32;
        let mut tally = |step: WorkerStep| match step {
            WorkerStep::Committed => committed += 1,
            WorkerStep::Retried => retried += 1,
            WorkerStep::Discarded => discarded += 1,
            other => unreachable!("settle yields commit/retry/discard, got {other:?}"),
        };

        if !ns_msgs.is_empty() {
            let ops: Vec<BatchOp> = ns_msgs
                .iter()
                .map(|m| match &m.op {
                    CommitOp::Mkdir { path, mode } => {
                        BatchOp::Mkdir { path: path.clone(), mode: *mode }
                    }
                    CommitOp::Create { path, mode } => {
                        BatchOp::Create { path: path.clone(), mode: *mode }
                    }
                    CommitOp::Unlink { path } => BatchOp::Unlink { path: path.clone() },
                    _ => unreachable!("partitioned above"),
                })
                .collect();
            let results = if self.core.durable() {
                let ids: Vec<dfs::OpId> = ns_msgs.iter().map(|m| m.id).collect();
                self.dfs.apply_batch_idempotent(&ops, &ids, &cred)
            } else {
                self.dfs.apply_batch(&ops, &cred)
            };
            // Crash window: the DFS applied the batch but nothing has
            // settled. Recovery must re-drive these ops idempotently.
            if self.core.crash.hit(CrashPoint::MidBatch) {
                return WorkerStep::Crashed;
            }
            for (msg, res) in ns_msgs.into_iter().zip(results) {
                tally(self.settle(msg, 0, false, res));
            }
        }
        for msg in wb_msgs {
            let res = self.execute(&msg);
            if self.core.crash.hit(CrashPoint::MidBatch) {
                return WorkerStep::Crashed;
            }
            tally(self.settle(msg, 0, false, res));
        }
        self.core.maybe_truncate_wals();
        WorkerStep::Batch { committed, retried, discarded }
    }

    fn apply(&mut self, msg: QueueMsg, attempts: u32, backend_faulted: bool) -> WorkerStep {
        let result = self.execute(&msg);
        // Same window as the batched path: applied on the DFS, unsettled.
        if self.core.crash.hit(CrashPoint::MidBatch) {
            return WorkerStep::Crashed;
        }
        let step = self.settle(msg, attempts, backend_faulted, result);
        self.core.maybe_truncate_wals();
        step
    }

    /// Run one single operation against the DFS. Ops carrying a replay
    /// identity (durable mode) go through the idempotent MDS entry point
    /// so a post-crash replay of an already-applied op is a no-op.
    fn execute(&mut self, msg: &QueueMsg) -> FsResult<()> {
        let cred = self.core.config.cred;
        let id = msg.id;
        match &msg.op {
            CommitOp::Mkdir { path, mode } => {
                self.apply_ns(BatchOp::Mkdir { path: path.clone(), mode: *mode }, id)
            }
            CommitOp::Create { path, mode } => {
                self.apply_ns(BatchOp::Create { path: path.clone(), mode: *mode }, id)
            }
            CommitOp::Unlink { path } => {
                self.apply_ns(BatchOp::Unlink { path: path.clone() }, id)
            }
            CommitOp::WriteInline { path } => {
                // Release the coalescing slot *before* reading the primary
                // copy: a write racing in after our read re-queues a fresh
                // writeback instead of being silently absorbed.
                self.core.pending_writebacks.lock().remove(path.as_str());
                match self.cache.try_get(path) {
                    // Freshest primary copy wins; a record that vanished,
                    // was marked removed, or went large needs no inline
                    // writeback.
                    Ok(Some((meta, _))) if !meta.removed && !meta.large => {
                        if id.is_none() {
                            self.dfs.write(path, &cred, 0, &meta.inline).map(|_| ())
                        } else {
                            self.dfs
                                .write_idempotent(path, &cred, &meta.inline, id)
                                .map(|_| ())
                        }
                    }
                    Ok(_) => {
                        self.core.counters.incr("writeback_skipped");
                        Ok(())
                    }
                    // Cache node down: retriable through the backlog.
                    // After the node restarts the wiped record reads as
                    // gone and the writeback settles as skipped.
                    Err(_) => Err(FsError::Backend("cache node down".into())),
                }
            }
            CommitOp::Barrier { .. } | CommitOp::Batch(_) => {
                unreachable!("barriers and batches handled in step()")
            }
        }
    }

    /// One namespace op on the DFS, identified when durable.
    fn apply_ns(&self, op: BatchOp, id: dfs::OpId) -> FsResult<()> {
        let cred = self.core.config.cred;
        if id.is_none() {
            return match op {
                BatchOp::Mkdir { path, mode } => self.dfs.mkdir(&path, &cred, mode),
                BatchOp::Create { path, mode } => self.dfs.create(&path, &cred, mode),
                BatchOp::Unlink { path } => self.dfs.unlink(&path, &cred),
            };
        }
        self.dfs
            .apply_batch_idempotent(&[op], &[id], &cred)
            .pop()
            .unwrap_or(Err(FsError::Backend("empty batch reply".into())))
    }

    /// Book the outcome of one single operation's commit attempt.
    fn settle(
        &mut self,
        msg: QueueMsg,
        attempts: u32,
        backend_faulted: bool,
        result: FsResult<()>,
    ) -> WorkerStep {
        match result {
            Ok(()) => {
                // Birth bookkeeping feeds the duplicate-admission check
                // below: the path's committed incarnation is now the one
                // this op made (or removed).
                if let Some(path) = msg.op.path() {
                    if msg.op.is_creation() {
                        self.core.note_birth(path, msg.timestamp);
                    } else if matches!(msg.op, CommitOp::Unlink { .. }) {
                        self.core.clear_birth(path);
                    }
                }
                self.retire(&msg);
                self.after_success(&msg);
                self.core.note_completed();
                self.core.counters.incr("committed");
                WorkerStep::Committed
            }
            // A replayed creation that already failed with a transient
            // backend error may have applied server-side with its reply
            // lost; the DFS entry it "conflicts" with is its own. Treat
            // the replay as success instead of burning retry budget.
            Err(FsError::AlreadyExists)
                if backend_faulted && attempts > 0 && msg.op.is_creation() =>
            {
                self.retire(&msg);
                self.after_success(&msg);
                self.core.note_completed();
                self.core.counters.incr("committed");
                self.core.counters.incr("idempotent_replays");
                WorkerStep::Committed
            }
            // A duplicate admission: the path's committed file is *older*
            // than this creation and no acknowledged unlink separates
            // them, so the path was already created when this op was
            // acknowledged — its admission check saw a cold or
            // unreachable cache (degraded windows, post-crash cold
            // shards). `AlreadyExists` means its outcome is in place
            // (create-if-absent semantics). It must NOT sit in the
            // backlog waiting for the path to free up — committing the
            // duplicate after a later acknowledged unlink would resurrect
            // the file. Both other causes of the conflict fall through to
            // the retry backlog and resolve there: a *pending* unlink
            // between the birth and this creation (a legitimate
            // re-creation waiting for its predecessor's removal) and a
            // committed file *newer* than the creation (a cross-queue
            // race — the blocking file will be removed by an acknowledged
            // unlink).
            Err(FsError::AlreadyExists)
                if msg.op.is_creation() && {
                    let p = msg.op.path().expect("creations have a path");
                    match self.core.birth_of(p) {
                        Some(b) => {
                            b < msg.timestamp
                                && !self.core.unlink_pending_between(p, b, msg.timestamp)
                        }
                        // No tracked birth: the blocking file never
                        // committed through this region. Only a degraded
                        // admission treats that as its own duplicate.
                        None => msg.degraded,
                    }
                } =>
            {
                self.retire(&msg);
                self.after_success(&msg);
                self.core.note_completed();
                self.core.counters.incr("committed");
                self.core.counters.incr("degraded_idempotent");
                WorkerStep::Committed
            }
            // Namespace-convention rejections (resubmit until the missing
            // prerequisite commit arrives — independent commit) and
            // transient backend faults (MDS outage / RPC timeout: retry
            // the same way, bounded by the retry budget).
            Err(
                e @ (FsError::NotFound
                | FsError::AlreadyExists
                | FsError::NotEmpty
                | FsError::Backend(_)),
            ) => {
                if let Some(path) = msg.op.path() {
                    if self.under_removed_dir(path, msg.epoch) {
                        self.retire(&msg);
                        self.core.note_completed();
                        self.core.counters.incr("discarded_removed_dir");
                        return WorkerStep::Discarded;
                    }
                }
                if attempts + 1 >= self.core.config.max_commit_retries {
                    self.retire(&msg);
                    self.core.note_completed();
                    self.core.counters.incr("dropped_retry_budget");
                    return WorkerStep::Discarded;
                }
                self.core.counters.incr("resubmitted");
                self.retry.push_back(RetryEntry {
                    msg,
                    attempts: attempts + 1,
                    backend_faulted: backend_faulted || matches!(e, FsError::Backend(_)),
                });
                WorkerStep::Retried
            }
            Err(_) => {
                // Permission or backend error: not retriable; count and
                // surface through counters (the primary copy stays).
                self.retire(&msg);
                self.core.note_completed();
                self.core.counters.incr("commit_errors");
                WorkerStep::Discarded
            }
        }
    }

    /// Release the pending-removal mark once an unlink settles for good
    /// (committed or discarded). Must run *before* `after_success` so the
    /// deferred cache deletion sees the post-retirement count.
    fn retire(&self, msg: &QueueMsg) {
        if let CommitOp::Unlink { path } = &msg.op {
            self.core.note_unlink_retired(path, msg.timestamp);
        }
    }

    /// Post-commit bookkeeping on the primary copy.
    fn after_success(&mut self, msg: &QueueMsg) {
        let cred = self.core.config.cred;
        match &msg.op {
            CommitOp::Mkdir { path, .. } | CommitOp::Create { path, .. } => {
                // Backup copy now exists: mark the cached record
                // committed. Best-effort — a crashed shard's record is
                // wiped anyway and rewarms as committed from the DFS.
                let _ = self.cache.try_update::<()>(path, |m| {
                    m.committed = true;
                    Ok(())
                });
                // Write back any data staged while the file did not exist
                // on the DFS yet (Section III.D-2).
                let staged = self.core.staging.lock().remove(path.as_str());
                if let Some(data) = staged {
                    if self.dfs.write(path, &cred, 0, &data).is_ok() {
                        self.core.counters.incr("staged_writebacks");
                    } else {
                        self.core.counters.incr("staged_writeback_errors");
                    }
                }
            }
            CommitOp::Unlink { path } => {
                // Deferred cache deletion: drop the record only if it is
                // still the marked-removed version (a re-create must
                // survive) and no *later* unlink of the same path is still
                // queued — the removed-mark we would delete is that
                // unlink's tombstone, and dropping it lets the read path
                // resurrect the record from the not-yet-updated backup
                // copy. Best-effort under faults, as above.
                if !self.core.unlink_pending(path) {
                    if let Ok(Some((meta, _))) = self.cache.try_get(path) {
                        // A record marked stale is this very unlink's
                        // degraded-mode leftover: it never got its
                        // removed-mark, delete it all the same.
                        if (meta.removed || self.core.is_stale_tombstone(path))
                            && self.cache.try_delete(path).is_ok()
                        {
                            self.core.clear_stale_tombstone(path);
                        }
                    }
                }
                self.core.staging.lock().remove(path.as_str());
            }
            CommitOp::WriteInline { .. } | CommitOp::Barrier { .. } | CommitOp::Batch(_) => {}
        }
    }
}

impl RegionCore {
    pub(crate) fn config_commit_dispatch(&self) -> u64 {
        self.cache_cluster.profile().commit_dispatch
    }
}
