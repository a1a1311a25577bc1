//! Workload definitions and seeded op generation (the `workloads` layer).
//!
//! Every workload is a closed loop of `nodes × clients_per_node` virtual
//! clients, one per HPC rank. The generator gets the seed and produces
//! each client's op list plus the facts the correctness checks need; the
//! system under test only ever sees the generated ops.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workloads::ops::FsOp;
use workloads::zipf::Zipf;

/// Bytes of inline data written to every file of `create_durable`.
pub const INLINE_BYTES: usize = 512;
/// Group commit size (ops per batch message).
pub const GROUP_COMMIT: usize = 32;
/// Zipf exponent of `stat_hot`.
pub const ZIPF_THETA: f64 = 0.99;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CreateDurable,
    StatHot,
    ChurnFaults,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::CreateDurable,
        Workload::StatHot,
        Workload::ChurnFaults,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CreateDurable => "create_durable",
            Workload::StatHot => "stat_hot",
            Workload::ChurnFaults => "churn_faults",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Workspace root of the workload's consistent region.
    pub fn root(self) -> &'static str {
        match self {
            Workload::CreateDurable => "/cd",
            Workload::StatHot => "/sh",
            Workload::ChurnFaults => "/cf",
        }
    }
}

/// Size of one run: the cluster shape and the per-client op budget.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub nodes: u32,
    pub clients_per_node: u32,
    /// Multiplier on every per-client count (1.0 = the benchmark size).
    pub scale: f64,
    /// WAL appends per fsync in `create_durable`. The log lives inside the
    /// benchmark's working tree, on whatever device holds it; a rare fsync
    /// keeps device latency out of the wall-clock metrics.
    pub wal_fsync_batch: usize,
}

impl Shape {
    /// The benchmark's size: 8 nodes × 20 clients.
    pub const FULL: Shape = Shape {
        nodes: 8,
        clients_per_node: 20,
        scale: 1.0,
        wal_fsync_batch: 1024,
    };
    /// The self-test's size.
    pub const TINY: Shape = Shape {
        nodes: 2,
        clients_per_node: 4,
        scale: 0.05,
        wal_fsync_batch: 32,
    };

    pub fn clients(&self) -> u32 {
        self.nodes * self.clients_per_node
    }

    fn n(&self, full: usize, min: usize) -> usize {
        ((full as f64 * self.scale).round() as usize).max(min)
    }
}

/// What the checks need to know about the generated namespace.
#[derive(Debug, Default)]
pub struct Expect {
    /// Paths that must exist on the DFS after the run, with kind and size
    /// (create_durable: kept files and directories).
    pub must_exist: BTreeMap<String, (bool, u64)>,
    /// Directories emptied in the measured phase and removed by rmdir
    /// (a barrier commit) once it has drained; they must be gone.
    pub removed_dirs: Vec<String>,
    /// Namespace pre-created on the DFS before launch (churn_faults) or
    /// populated through the region during set-up (stat_hot): path → is_dir.
    pub populated: Vec<(String, bool)>,
    /// Mutating ops in the measured phase (publish-buffer denominator).
    pub mutations: u64,
    /// Distinct paths the phase's reads draw from.
    pub read_universe: usize,
    /// Hottest-1% mass of the generated read targets.
    pub top1pct_mass: f64,
}

/// The generated input of one run.
pub struct Generated {
    pub per_client: Vec<Vec<FsOp>>,
    pub expect: Expect,
}

pub fn generate(w: Workload, shape: Shape, seed: u64) -> Generated {
    match w {
        Workload::CreateDurable => create_durable(shape, seed),
        Workload::StatHot => stat_hot(shape, seed),
        Workload::ChurnFaults => churn_faults(shape, seed),
    }
}

fn rng_for(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt)
}

/// Share of read accesses that land on the hottest 1% of `universe`
/// distinct paths.
fn top1pct_mass(hits: &mut [u64], universe: usize) -> f64 {
    let total: u64 = hits.iter().sum();
    if total == 0 {
        return 0.0;
    }
    hits.sort_unstable_by(|a, b| b.cmp(a));
    let top = (universe / 100).max(1);
    hits.iter().take(top).sum::<u64>() as f64 / total as f64
}

/// mdtest-style write storm. Client `c` owns `/cd/c{c}` with `S`
/// subdirectories of `F` files; every file is created and written
/// (512 B inline), then a seeded subset is unlinked. A seeded handful of
/// clients empty one whole subdirectory, which is rmdir'd (a barrier
/// commit) after the phase drains.
fn create_durable(shape: Shape, seed: u64) -> Generated {
    const SUBDIRS: usize = 4;
    const BARRIER_CLIENTS: usize = 4;
    let files = shape.n(60, 4);
    let unlinks = files / 4;
    let clients = shape.clients() as usize;
    let root = Workload::CreateDurable.root();
    let mut rng = rng_for(seed, 1);

    // Which clients remove a subdirectory, and which one.
    let mut doomed: BTreeMap<usize, usize> = BTreeMap::new();
    while doomed.len() < BARRIER_CLIENTS.min(clients) {
        let c = rng.gen_range(0..clients);
        doomed.entry(c).or_insert_with(|| rng.gen_range(0..SUBDIRS));
    }

    let data = vec![0xA5u8; INLINE_BYTES];
    let mut expect = Expect::default();
    let mut per_client = Vec::with_capacity(clients);
    for c in 0..clients {
        let mut ops = Vec::new();
        let home = format!("{root}/c{c}");
        ops.push(FsOp::Mkdir(home.clone(), 0o755));
        expect.must_exist.insert(home.clone(), (true, 0));
        for k in 0..SUBDIRS {
            let dir = format!("{home}/s{k}");
            ops.push(FsOp::Mkdir(dir.clone(), 0o755));
            let paths: Vec<String> = (0..files).map(|i| format!("{dir}/f{i}")).collect();
            for p in &paths {
                ops.push(FsOp::Create(p.clone(), 0o644));
                ops.push(FsOp::Write {
                    path: p.clone(),
                    offset: 0,
                    data: data.clone(),
                });
            }
            if doomed.get(&c) == Some(&k) {
                for p in &paths {
                    ops.push(FsOp::Unlink(p.clone()));
                }
                expect.removed_dirs.push(dir);
            } else {
                let mut idx: Vec<usize> = (0..files).collect();
                for i in 0..unlinks {
                    let j = rng.gen_range(i..files);
                    idx.swap(i, j);
                }
                let gone: std::collections::BTreeSet<usize> =
                    idx[..unlinks].iter().copied().collect();
                for &i in &gone {
                    ops.push(FsOp::Unlink(paths[i].clone()));
                }
                expect.must_exist.insert(dir, (true, 0));
                for (i, p) in paths.into_iter().enumerate() {
                    if !gone.contains(&i) {
                        expect.must_exist.insert(p, (false, INLINE_BYTES as u64));
                    }
                }
            }
        }
        expect.mutations += ops.len() as u64;
        per_client.push(ops);
    }
    Generated { per_client, expect }
}

/// Read-only Zipf(0.99) mix over a namespace populated (and committed)
/// during set-up: ~90% stat, ~10% stat_many of 8 paths. The Zipf rank
/// order is fixed (rank k is the k-th populated file), so the hot keys
/// sit on the same cache shards for every seed and the seed only moves
/// the access sequence. (`readdir_plus` is left out: Pacon serves it
/// behind a region-wide barrier, which is not a read-path operation.)
fn stat_hot(shape: Shape, seed: u64) -> Generated {
    let dirs = shape.n(64, 4);
    let files_per_dir = shape.n(64, 4);
    let ops_per_client = shape.n(5000, 50);
    let root = Workload::StatHot.root();
    let mut expect = Expect::default();

    let mut universe = Vec::with_capacity(dirs * files_per_dir);
    for d in 0..dirs {
        let dir = format!("{root}/d{d}");
        expect.populated.push((dir.clone(), true));
        for f in 0..files_per_dir {
            let p = format!("{dir}/f{f}");
            expect.populated.push((p.clone(), false));
            universe.push(p);
        }
    }
    let mut rng = rng_for(seed, 2);
    let ranked = universe;
    let zipf = Zipf::new(ranked.len(), ZIPF_THETA);
    let mut hits = vec![0u64; ranked.len()];

    let clients = shape.clients() as usize;
    let mut per_client = Vec::with_capacity(clients);
    for _ in 0..clients {
        let mut ops = Vec::with_capacity(ops_per_client);
        for _ in 0..ops_per_client {
            let roll = rng.gen_range(0u32..100);
            let op = if roll < 90 {
                let i = zipf.sample(&mut rng);
                hits[i] += 1;
                FsOp::Stat(ranked[i].clone())
            } else {
                let batch: Vec<String> = (0..8)
                    .map(|_| {
                        let i = zipf.sample(&mut rng);
                        hits[i] += 1;
                        ranked[i].clone()
                    })
                    .collect();
                FsOp::StatMany(batch)
            };
            ops.push(op);
        }
        per_client.push(ops);
    }
    expect.read_universe = ranked.len();
    expect.top1pct_mass = top1pct_mass(&mut hits, ranked.len());
    Generated { per_client, expect }
}

/// Files per directory of the churn namespace.
pub const CHURN_FILES_PER_DIR: usize = 100;

/// 3:1 stats and per-client create/unlink over a namespace pre-created
/// on the DFS. Stats draw uniformly from the namespace (so the cold
/// cache keeps missing and loading from the DFS); client `c` creates
/// `/cf/d{k}/c{c}.{j}` files and unlinks each one `WINDOW` churn ops
/// after creating it.
fn churn_faults(shape: Shape, seed: u64) -> Generated {
    const WINDOW: usize = 1;
    let dirs = shape.n(40, 4);
    let ops_per_client = shape.n(800, 64) / 4 * 4;
    let root = Workload::ChurnFaults.root();
    let mut expect = Expect::default();
    let mut universe = Vec::with_capacity(dirs * CHURN_FILES_PER_DIR);
    for d in 0..dirs {
        let dir = format!("{root}/d{d}");
        expect.populated.push((dir.clone(), true));
        for f in 0..CHURN_FILES_PER_DIR {
            let p = format!("{dir}/f{f}");
            expect.populated.push((p.clone(), false));
            universe.push(p);
        }
    }
    let mut rng = rng_for(seed, 3);
    let mut hits = vec![0u64; universe.len()];
    let clients = shape.clients() as usize;
    let mut per_client = Vec::with_capacity(clients);
    for c in 0..clients {
        let mut ops = Vec::with_capacity(ops_per_client);
        let mut live: std::collections::VecDeque<String> = Default::default();
        let mut made = 0usize;
        for i in 0..ops_per_client {
            if i % 4 != 3 {
                let f = rng.gen_range(0..universe.len());
                hits[f] += 1;
                ops.push(FsOp::Stat(universe[f].clone()));
                continue;
            }
            expect.mutations += 1;
            if live.len() >= WINDOW {
                let p = live.pop_front().expect("window is full");
                ops.push(FsOp::Unlink(p));
            } else {
                let d = rng.gen_range(0..dirs);
                let p = format!("{root}/d{d}/c{c}.{made}");
                made += 1;
                live.push_back(p.clone());
                ops.push(FsOp::Create(p, 0o644));
            }
        }
        per_client.push(ops);
    }
    expect.read_universe = universe.len();
    expect.top1pct_mass = top1pct_mass(&mut hits, universe.len());
    Generated { per_client, expect }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_a_function_of_the_seed() {
        for w in Workload::ALL {
            let a = generate(w, Shape::TINY, 7).per_client;
            let b = generate(w, Shape::TINY, 7).per_client;
            let c = generate(w, Shape::TINY, 8).per_client;
            assert_eq!(a, b, "{}", w.name());
            assert_ne!(a, c, "{}", w.name());
            let len = |v: &Vec<Vec<FsOp>>| v.iter().map(Vec::len).sum::<usize>();
            assert_eq!(
                len(&a),
                len(&c),
                "{}: op count must not depend on the seed",
                w.name()
            );
        }
    }
}
