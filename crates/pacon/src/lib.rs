//! `pacon` — Partial Consistency for scalable, efficient DFS metadata.
//!
//! Reproduction of *"Pacon: Improving Scalability and Efficiency of
//! Metadata Service through Partial Consistency"* (Liu, Lu, Chen, Zhao —
//! IPDPS 2020). Pacon is a client-side library layered over an existing
//! DFS. It splits the global namespace into **consistent regions** (one
//! per application workspace):
//!
//! * inside its region, an application sees **strong consistency**
//!   through a distributed in-memory metadata cache (the primary copy)
//!   shared by the application's client nodes;
//! * metadata updates are committed to the underlying DFS (the backup
//!   copy) **asynchronously** through a per-node commit queue, using
//!   *independent commit* for order-free operations (create/mkdir/rm)
//!   and *barrier commit* for order-dependent ones (rmdir/readdir);
//! * requests outside every known region are **redirected** to the DFS
//!   unchanged, so the global namespace and DFS manageability remain;
//! * permission checks use **batch permission management**: a per-region
//!   normal permission plus a special-permission list, so no path
//!   traversal is ever needed inside a region.
//!
//! Entry points: build a [`PaconRegion`] with [`PaconRegion::launch`],
//! hand out per-process clients with [`PaconRegion::client`], and drive
//! everything through the [`fsapi::FileSystem`] trait.
//!
//! ```
//! use std::sync::Arc;
//! use fsapi::{Credentials, FileSystem};
//! use simnet::{LatencyProfile, Topology};
//!
//! let profile = Arc::new(LatencyProfile::zero());
//! let dfs = dfs::DfsCluster::with_default_config(Arc::clone(&profile));
//! let cred = Credentials::new(1000, 1000);
//! let config = pacon::PaconConfig::new("/app1", Topology::new(2, 2), cred);
//! let region = pacon::PaconRegion::launch(config, &dfs).unwrap();
//! let client = region.client(simnet::ClientId(0));
//! client.mkdir("/app1/out", &cred, 0o755).unwrap();
//! client.create("/app1/out/result.dat", &cred, 0o644).unwrap();
//! assert!(client.stat("/app1/out/result.dat", &cred).unwrap().is_file());
//! region.shutdown().unwrap(); // drains the commit queues
//! assert!(dfs.client().stat("/app1/out/result.dat", &cred).unwrap().is_file());
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod checkpoint;
pub mod client;
pub mod commit;
pub mod config;
pub mod degraded;
pub mod directory;
pub mod driver;
pub mod eviction;
pub mod metadata;
pub mod permission;
pub mod region;
pub mod report;
pub mod retry;

pub use cache::CacheError;
pub use client::PaconClient;
pub use degraded::{DegradedState, Mode as DegradedMode};
pub use retry::RetryPolicy;
pub use commit::op::{CommitOp, QueueMsg};
pub use config::PaconConfig;
pub use directory::RegionDirectory;
pub use driver::ScenarioDriver;
pub use metadata::CachedMeta;
pub use permission::RegionPermissions;
pub use region::{PaconRegion, RegionHandle};
pub use report::RegionReport;
