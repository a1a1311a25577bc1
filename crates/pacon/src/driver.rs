//! Single-threaded scenario driver for the fault plane and live
//! resharding (DESIGN.md §10.5, §11): one paused region, one client per
//! node and every commit worker, stepped on the caller's thread in
//! virtual time. The chaos storms and the `scenario` bench share it:
//! [`tick`](ScenarioDriver::tick), issue one workload op,
//! [`step_workers`](ScenarioDriver::step_workers), repeat; then
//! [`settle`](ScenarioDriver::settle) checks the fault plane's promise —
//! no acknowledged update is left behind and the region is Healthy.
//! Every spin is bounded and returns an error instead of panicking.

use std::sync::Arc;

use dfs::DfsCluster;
use fsapi::{FileSystem, FsError, FsResult};
use simnet::{ClientId, FaultEvent, FaultPlan, NodeId};

use crate::commit::worker::CommitWorker;
use crate::config::PaconConfig;
use crate::degraded::Mode;
use crate::region::{PaconRegion, RegionCore};
use crate::PaconClient;

/// Probe rounds [`ScenarioDriver::recover`] may take: the region must be
/// Healthy before the 64th.
const RECOVER_ROUNDS: usize = 64;
/// Pump calls of 16 keys [`ScenarioDriver::settle`] may take to finish
/// a migration.
const MIGRATION_SPINS: u32 = 50_000;

/// A paused region driven tick by tick from one thread.
pub struct ScenarioDriver {
    region: Arc<PaconRegion>,
    clients: Vec<PaconClient>,
    workers: Vec<CommitWorker>,
    last_epoch: u64,
}

impl ScenarioDriver {
    /// Launch a paused region on `dfs` with one client per node (index =
    /// node id) and claim every commit worker.
    pub fn launch(config: PaconConfig, dfs: &Arc<DfsCluster>) -> FsResult<Self> {
        let topo = config.topology;
        let region = PaconRegion::launch_paused(config, dfs)?;
        let clients =
            (0..topo.nodes).map(|n| region.client(ClientId(n * topo.clients_per_node))).collect();
        let workers = (0..topo.nodes as usize).map(|n| region.take_worker(n)).collect();
        let last_epoch = region.core().cache_cluster.ring_epoch();
        Ok(Self { region, clients, workers, last_epoch })
    }

    pub fn region(&self) -> &Arc<PaconRegion> {
        &self.region
    }

    pub fn core(&self) -> &Arc<RegionCore> {
        self.region.core()
    }

    pub fn clients(&self) -> &[PaconClient] {
        &self.clients
    }

    /// Node `n`'s commit worker, for hand-picked step schedules.
    pub fn worker(&mut self, n: usize) -> &mut CommitWorker {
        &mut self.workers[n]
    }

    /// Step every worker once.
    pub fn step_workers(&mut self) {
        for w in &mut self.workers {
            w.step();
        }
    }

    /// Step the workers until every published op has settled, in fewer
    /// than `max_rounds` rounds.
    pub fn drain(&mut self, max_rounds: u32) -> FsResult<()> {
        let mut rounds = 0;
        while !self.core().drained() {
            self.step_workers();
            rounds += 1;
            if rounds >= max_rounds {
                return Err(FsError::Backend("commit pipeline did not converge".into()));
            }
        }
        Ok(())
    }

    /// Advance the region clock by `step_ns`, apply the due events of
    /// `plan`, check the ring epoch never regressed, then move an
    /// in-flight reshard by up to `pump` keys (`0` = no transfer).
    pub fn tick(&mut self, step_ns: u64, plan: &FaultPlan, pump: usize) -> FsResult<()> {
        for ev in plan.advance_to(self.core().advance(step_ns)) {
            self.region.apply_fault(ev);
        }
        self.check_epoch()?;
        if pump > 0 {
            self.region.pump_reshard(pump);
        }
        Ok(())
    }

    fn check_epoch(&mut self) -> FsResult<()> {
        let (last, epoch) = (self.last_epoch, self.core().cache_cluster.ring_epoch());
        if epoch < last {
            return Err(FsError::Backend(format!("ring epoch regressed: {last} -> {epoch}")));
        }
        self.last_epoch = epoch;
        Ok(())
    }

    /// Pull the degraded-mode state machine back to Healthy: each round
    /// lets the recovery probe fall due, stats the next (committed, so
    /// always readable) path of `probe` in turn and steps the workers.
    fn recover(&mut self, probe: &[String]) -> FsResult<()> {
        let cred = self.core().config.cred;
        let mut paths = probe.iter().cycle();
        let mut round = 0;
        while self.core().degraded.mode() != Mode::Healthy {
            let p = paths.next().ok_or_else(|| {
                FsError::Backend("region is not Healthy and has no probe path".into())
            })?;
            self.core().advance(self.core().config.rpc_deadline + 1);
            let st = self.clients[round % self.clients.len()].stat(p, &cred);
            st.map_err(|e| FsError::Backend(format!("{p} unreadable during recovery: {e:?}")))?;
            self.step_workers();
            round += 1;
            if round >= RECOVER_ROUNDS {
                return Err(FsError::Backend("region never recovered to Healthy".into()));
            }
        }
        Ok(())
    }

    /// Bring the region to rest: restart every cache node still down,
    /// finish any migration, [`recover`](Self::recover) with `probe`,
    /// then flush the redelivery windows, [`drain`](Self::drain) within
    /// `drain_rounds`, and flush again — after which every acknowledged
    /// op must be provably consumed.
    pub fn settle(&mut self, probe: &[String], drain_rounds: u32) -> FsResult<()> {
        for n in (0..self.clients.len() as u32).map(NodeId) {
            if self.core().cache_cluster.node_status(n) == memkv::NodeStatus::Down {
                self.region.apply_fault(FaultEvent::RestartCacheNode(n));
            }
        }
        let mut spins = 0;
        while self.core().cache_cluster.migration_active() {
            self.region.pump_reshard(16);
            spins += 1;
            if spins >= MIGRATION_SPINS {
                return Err(FsError::Backend("migration never converged".into()));
            }
        }
        self.check_epoch()?;
        self.recover(probe)?;
        for c in &self.clients {
            c.flush_publishes()?;
        }
        self.drain(drain_rounds)?;
        for c in &self.clients {
            // The second flush reconciles each window against the drained
            // broker: everything must now be provably consumed.
            c.flush_publishes()?;
            if c.unacked_publishes() != 0 {
                return Err(FsError::Backend("redelivery window not empty after drain".into()));
            }
        }
        Ok(())
    }
}
