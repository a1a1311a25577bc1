//! Benchmark harness for the Pacon reproduction.
//!
//! One binary per paper figure (`src/bin/figNN_*.rs`) regenerates that
//! figure's series on the simulated testbed; `EXPERIMENTS.md` records
//! paper-vs-measured. The [`harness`] module holds the shared assembly:
//! backend test beds, the phase runner, and table printing; the
//! [`scenario`] module runs the fault-plane and reshard scenarios behind
//! the `scenario` binary.

#![forbid(unsafe_code)]

pub mod harness;
pub mod scenario;

pub use harness::*;
