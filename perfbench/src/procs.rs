//! The engine processes: closed-loop clients wrapping a `FileSystem`
//! handle, the commit workers, and the fault driver. This is where the
//! virtual cost traces are captured and the wall-clock spans are taken.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use fsapi::{Credentials, FileStat, FileSystem, FsResult};
use pacon::commit::worker::{CommitWorker, WorkerStep};
use pacon::region::RegionCore;
use pacon::{PaconClient, PaconRegion};
use qsim::{Process, Step};
use simnet::{with_recording, CostTrace, FaultPlan, LatencyHistogram, Station};

use crate::calib::{Calibration, SAMPLE_CALLS};
use workloads::ops::FsOp;

/// Poll interval of an idle commit worker or fault driver, virtual ns.
const IDLE_POLL_NS: u64 = 20_000;
/// Keys the fault driver's background transfer moves per tick.
const PUMP_KEYS: usize = 64;

/// Op classes with a client span (index = [`class_of`]).
pub const CLASSES: [&str; 6] = ["create", "write", "unlink", "mkdir", "stat", "stat_many"];

fn class_of(op: &FsOp) -> usize {
    match op {
        FsOp::Create(..) => 0,
        FsOp::Write { .. } => 1,
        FsOp::Unlink(..) => 2,
        FsOp::Mkdir(..) => 3,
        FsOp::Stat(..) => 4,
        FsOp::StatMany(..) => 5,
        other => panic!("workloads never generate {}", other.kind()),
    }
}

/// Virtual demand categories of a client cost trace.
pub const CATS: [&str; 6] = ["client_cpu", "net", "kv", "mds", "data", "backoff"];

fn cat_of(s: Station) -> usize {
    match s {
        Station::ClientCpu => 0,
        Station::Network => 1,
        Station::KvShard(_) => 2,
        Station::Mds(_) | Station::IndexSrv(_) | Station::CommitProc(_) => 3,
        Station::DataServer(_) => 4,
        Station::Compute => 5,
    }
}

/// One recorded wall-clock span.
#[derive(Clone, Copy)]
pub struct Span {
    /// 0..6 = client op class, 8 = worker step, 9 = fault driver tick.
    pub kind: u8,
    /// Process index (client id, worker node, or 0).
    pub proc_id: u32,
    /// Start, ns since the phase began.
    pub start_ns: u64,
    pub dur_ns: u64,
}

pub const SPAN_WORKER: u8 = 8;
pub const SPAN_FAULT: u8 = 9;
/// Spans kept in memory per traced phase; later spans are counted only.
const SPAN_CAP: usize = 2_000_000;

/// Everything the processes measure during one phase.
pub struct Recorder {
    pub traced: bool,
    origin: Instant,
    /// Wall ns inside every `FileSystem` call (always on; raw, for exact
    /// percentiles).
    pub call_wall: Vec<u64>,
    /// Per-class wall spans (traced).
    pub class_wall: Vec<LatencyHistogram>,
    /// Wall ns spent in process `next` bodies (traced).
    pub client_ns: u64,
    pub worker_ns: u64,
    pub fault_ns: u64,
    pub worker_step_wall: LatencyHistogram,
    pub worker_steps: u64,
    pub worker_useful: u64,
    /// Virtual demand of measured jobs per category, and of the workers.
    pub demand: [u64; CATS.len()],
    pub commit_demand: u64,
    /// Exact virtual latency sum and count of measured jobs.
    pub lat_sum: u64,
    pub jobs: u64,
    pub attempted: u64,
    pub failed: u64,
    pub spans: Vec<Span>,
    pub spans_dropped: u64,
    /// Kernel samples of the phase (always on).
    pub cal: Calibration,
}

impl Recorder {
    pub fn new(traced: bool) -> Self {
        Self {
            traced,
            origin: Instant::now(),
            call_wall: Vec::new(),
            class_wall: vec![LatencyHistogram::new(); CLASSES.len()],
            client_ns: 0,
            worker_ns: 0,
            fault_ns: 0,
            worker_step_wall: LatencyHistogram::new(),
            worker_steps: 0,
            worker_useful: 0,
            demand: [0; CATS.len()],
            commit_demand: 0,
            lat_sum: 0,
            jobs: 0,
            attempted: 0,
            failed: 0,
            spans: Vec::new(),
            spans_dropped: 0,
            cal: Calibration::new(),
        }
    }

    /// Measure the calibration kernel and restart the span clock at the
    /// beginning of the measured phase.
    pub fn start(&mut self) {
        self.cal.start();
        self.origin = Instant::now();
    }

    fn span(&mut self, kind: u8, proc_id: u32, start: Instant, dur_ns: u64) {
        if self.spans.len() >= SPAN_CAP {
            self.spans_dropped += 1;
            return;
        }
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            kind,
            proc_id,
            start_ns,
            dur_ns,
        });
    }
}

/// Bring the region's fault-plane clock up to engine time. Backoff
/// sleeps move it ahead of the engine; it never moves back.
fn sync_clock(core: &RegionCore, now: u64) {
    let s = core.sim_ns();
    if now > s {
        core.advance(now - s);
    }
}

fn productive(step: WorkerStep) -> bool {
    !matches!(
        step,
        WorkerStep::Idle | WorkerStep::Blocked(_) | WorkerStep::Disconnected
    )
}

/// The outcome of one client op, kept for the correctness checks.
pub enum Outcome {
    Ok,
    Failed(fsapi::FsError),
    /// A sampled stat result.
    Stat(FileStat),
}

/// A measured closed-loop client: one HPC rank issuing its op list,
/// waiting for each reply before sending the next op.
pub struct ClientProc<'a> {
    pub id: u32,
    fs: PaconClient,
    cred: Credentials,
    core: Arc<RegionCore>,
    ops: Vec<FsOp>,
    pos: usize,
    issued_at: Option<u64>,
    flushed: bool,
    /// Sample every n-th stat result for the checks (0 = none).
    stat_sample: usize,
    pub outcomes: Vec<Outcome>,
    rec: &'a RefCell<Recorder>,
    workers: &'a [RefCell<CommitWorker>],
}

impl<'a> ClientProc<'a> {
    pub fn new(
        id: u32,
        fs: PaconClient,
        core: Arc<RegionCore>,
        ops: Vec<FsOp>,
        stat_sample: usize,
        rec: &'a RefCell<Recorder>,
        workers: &'a [RefCell<CommitWorker>],
    ) -> Self {
        let cred = core.config.cred;
        Self {
            id,
            fs,
            cred,
            core,
            outcomes: Vec::with_capacity(ops.len()),
            ops,
            pos: 0,
            issued_at: None,
            flushed: false,
            stat_sample,
            rec,
            workers,
        }
    }

    pub fn ops(&self) -> &[FsOp] {
        &self.ops
    }

    pub fn client(&self) -> &PaconClient {
        &self.fs
    }

    fn exec(&self, op: &FsOp, sample: bool) -> FsResult<Option<FileStat>> {
        let (fs, cred) = (&self.fs, &self.cred);
        match op {
            FsOp::Mkdir(p, mode) => fs.mkdir(p, cred, *mode).map(|_| None),
            FsOp::Create(p, mode) => fs.create(p, cred, *mode).map(|_| None),
            FsOp::Write { path, offset, data } => fs.write(path, cred, *offset, data).map(|_| None),
            FsOp::Unlink(p) => fs.unlink(p, cred).map(|_| None),
            FsOp::Stat(p) => fs.stat(p, cred).map(|s| sample.then_some(s)),
            FsOp::StatMany(paths) => {
                fs.stat_many(paths, cred)
                    .into_iter()
                    .try_for_each(|r| r.map(|_| ()))?;
                Ok(None)
            }
            other => panic!("workloads never generate {}", other.kind()),
        }
    }

    /// rmdir is a barrier commit: the caller blocks until every commit
    /// worker has drained its queue up to the barrier marker. The workers
    /// are stepped on this thread, so the blocking call runs on a
    /// short-lived helper thread while this thread steps them.
    pub fn rmdir_with_barrier(&self, path: &str) -> FsResult<()> {
        let (fs, cred) = (&self.fs, &self.cred);
        let (res, helper_trace) = std::thread::scope(|s| {
            let helper = s.spawn(move || with_recording(|| fs.rmdir(path, cred)));
            while !helper.is_finished() {
                // Idle and blocked steps charge nothing; the productive
                // steps' charges land in the caller's recorder.
                for w in self.workers {
                    w.borrow_mut().step();
                }
            }
            helper.join().expect("rmdir helper panicked")
        });
        for seg in &helper_trace.segs {
            simnet::charge(seg.station, seg.ns);
        }
        res
    }
}

impl Process for ClientProc<'_> {
    fn next(&mut self, now: u64) -> Step {
        let entered = Instant::now();
        let mut rec = self.rec.borrow_mut();
        if let Some(t) = self.issued_at.take() {
            rec.lat_sum += now - t;
            rec.jobs += 1;
        }
        sync_clock(&self.core, now);
        if self.pos == self.ops.len() {
            if self.flushed {
                return Step::Done;
            }
            // Hand anything a broker outage left in this client's
            // redelivery window to the healed queue before finishing.
            self.flushed = true;
            let (_, trace) = with_recording(|| self.fs.flush_publishes());
            if trace.is_empty() {
                return Step::Done;
            }
            return Step::Work {
                trace,
                ops: 0,
                class: 0,
            };
        }
        let i = self.pos;
        self.pos += 1;
        let class = class_of(&self.ops[i]);
        let sample = self.stat_sample > 0 && i.is_multiple_of(self.stat_sample);
        let before_ns = self.core.sim_ns();
        drop(rec);
        let start = Instant::now();
        let (res, mut trace) = with_recording(|| self.exec(&self.ops[i], sample));
        let wall = start.elapsed().as_nanos() as u64;
        let mut rec = self.rec.borrow_mut();
        rec.call_wall.push(wall);
        rec.attempted += 1;
        self.outcomes.push(match res {
            Ok(Some(st)) => Outcome::Stat(st),
            Ok(None) => Outcome::Ok,
            Err(e) => {
                rec.failed += 1;
                Outcome::Failed(e)
            }
        });
        // Retry backoff sleeps on the region clock are part of this op.
        let backoff = self.core.sim_ns().saturating_sub(before_ns);
        if backoff > 0 {
            trace.push(Station::Compute, backoff);
        }
        if trace.is_empty() {
            trace.push(Station::ClientCpu, 1);
        }
        for seg in &trace.segs {
            rec.demand[cat_of(seg.station)] += seg.ns;
        }
        self.issued_at = Some(now);
        if rec.traced {
            rec.class_wall[class].record(wall);
            rec.span(class as u8, self.id, start, wall);
            rec.client_ns += entered.elapsed().as_nanos() as u64;
        }
        if rec.call_wall.len().is_multiple_of(SAMPLE_CALLS) {
            rec.cal.sample(true);
        }
        Step::Work {
            trace,
            ops: 1,
            class: class as u16,
        }
    }
}

/// Background process stepping one node's commit worker.
pub struct WorkerProc<'a> {
    node: usize,
    workers: &'a [RefCell<CommitWorker>],
    rec: &'a RefCell<Recorder>,
}

impl<'a> WorkerProc<'a> {
    pub fn new(
        node: usize,
        workers: &'a [RefCell<CommitWorker>],
        rec: &'a RefCell<Recorder>,
    ) -> Self {
        Self { node, workers, rec }
    }
}

impl Process for WorkerProc<'_> {
    fn next(&mut self, _now: u64) -> Step {
        let start = Instant::now();
        let mut worker = self.workers[self.node].borrow_mut();
        let (step, mut trace) = with_recording(|| worker.step());
        let mut rec = self.rec.borrow_mut();
        rec.commit_demand += trace.total_ns();
        if rec.traced {
            let wall = start.elapsed().as_nanos() as u64;
            rec.worker_step_wall.record(wall);
            rec.worker_ns += wall;
            rec.worker_steps += 1;
            rec.worker_useful += productive(step) as u64;
            rec.span(SPAN_WORKER, self.node as u32, start, wall);
        }
        // Guarantee virtual-time progress under any profile.
        if trace.is_empty() {
            trace.push(Station::ClientCpu, 1);
        }
        match step {
            WorkerStep::Committed | WorkerStep::Discarded => Step::Work {
                trace,
                ops: 1,
                class: 0,
            },
            WorkerStep::Batch {
                committed,
                discarded,
                ..
            } => Step::Work {
                trace,
                ops: (committed + discarded) as u64,
                class: 0,
            },
            WorkerStep::Retried | WorkerStep::BarrierReported => Step::Work {
                trace,
                ops: 0,
                class: 0,
            },
            WorkerStep::Crashed => Step::Idle { ns: IDLE_POLL_NS },
            WorkerStep::Blocked(_) | WorkerStep::Idle | WorkerStep::Disconnected => {
                if worker.backlog_empty() {
                    Step::Idle { ns: IDLE_POLL_NS }
                } else {
                    // The backlog waits on another queue's commit: stay
                    // alive through the engine's drain phase.
                    let mut t = CostTrace::new();
                    t.push(Station::ClientCpu, IDLE_POLL_NS);
                    Step::Work {
                        trace: t,
                        ops: 0,
                        class: 0,
                    }
                }
            }
        }
    }

    fn measured(&self) -> bool {
        false
    }
}

/// Background process applying a [`FaultPlan`] and pumping live-reshard
/// key transfers. The plan is keyed on phase progress (ops issued per
/// million ops of the phase), so every event lands inside the phase
/// however fast the system runs; the region's fault-plane clock follows
/// engine time.
pub struct FaultProc<'a> {
    region: Arc<PaconRegion>,
    plan: &'a FaultPlan,
    total_ops: u64,
    rec: &'a RefCell<Recorder>,
}

impl<'a> FaultProc<'a> {
    pub fn new(
        region: Arc<PaconRegion>,
        plan: &'a FaultPlan,
        total_ops: u64,
        rec: &'a RefCell<Recorder>,
    ) -> Self {
        Self {
            region,
            plan,
            total_ops: total_ops.max(1),
            rec,
        }
    }
}

impl Process for FaultProc<'_> {
    fn next(&mut self, now: u64) -> Step {
        let start = Instant::now();
        let core = self.region.core();
        sync_clock(core, now);
        let progress = self.rec.borrow().attempted * 1_000_000 / self.total_ops;
        for ev in self.plan.advance_to(progress) {
            self.region.apply_fault(ev);
        }
        let (moved, trace) = with_recording(|| self.region.pump_reshard(PUMP_KEYS));
        let mut rec = self.rec.borrow_mut();
        if rec.traced {
            let wall = start.elapsed().as_nanos() as u64;
            rec.fault_ns += wall;
            rec.span(SPAN_FAULT, 0, start, wall);
        }
        if moved > 0 && !trace.is_empty() {
            return Step::Work {
                trace,
                ops: 0,
                class: 0,
            };
        }
        Step::Idle { ns: IDLE_POLL_NS }
    }

    fn measured(&self) -> bool {
        false
    }
}

/// One engine process of any kind (static dispatch over a dense table).
/// Clients are nearly every entry, so boxing them would only add a hop.
#[allow(clippy::large_enum_variant)]
pub enum Proc<'a> {
    Client(ClientProc<'a>),
    Worker(WorkerProc<'a>),
    Fault(FaultProc<'a>),
}

impl Process for Proc<'_> {
    fn next(&mut self, now: u64) -> Step {
        match self {
            Proc::Client(p) => p.next(now),
            Proc::Worker(p) => p.next(now),
            Proc::Fault(p) => p.next(now),
        }
    }

    fn measured(&self) -> bool {
        matches!(self, Proc::Client(_))
    }
}
