//! Fault-plane and elasticity benchmark (DESIGN.md §10.5, §11): what do
//! a cache crash plus broker loss, and two live reshards, cost the
//! foreground metadata workload, and does the region return to its
//! healthy throughput afterwards? Measured in virtual time, so every
//! number — and the ≥ 0.9 recovery gate — is exact per run (see
//! `pacon_bench::scenario`).
//!
//! Honours `PACON_BENCH_ITEMS` (ops per phase, default 30 000), prints
//! each scenario's result and writes it to `BENCH_chaos.json` and
//! `BENCH_reshard.json` at the repository root.

use pacon_bench::scenario::{run, ALL};

fn main() {
    let items: u32 =
        std::env::var("PACON_BENCH_ITEMS").ok().and_then(|v| v.parse().ok()).unwrap_or(30_000);
    for s in ALL {
        let json = run(s, items).to_json();
        print!("{json}");
        let out = format!("{}/../../BENCH_{}.json", env!("CARGO_MANIFEST_DIR"), s.name);
        std::fs::write(&out, json).expect("write BENCH json");
        println!("wrote {out}");
    }
}
