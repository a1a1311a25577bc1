//! Deterministic jittered exponential backoff for cache RPCs.
//!
//! Every delay is a pure function of `(policy, attempt, seed)` — no wall
//! clock, no global RNG — so a chaos run replays identically from its
//! seed and the fault-plane trace. "Sleeping" means advancing the
//! region's virtual clock ([`crate::region::RegionCore::advance`]); real
//! time never passes (lint R3).

use crate::config::PaconConfig;

/// Retry attempts after the initial try of a cache RPC.
pub const RETRY_BUDGET: u32 = 4;

/// First retry's nominal backoff in virtual ns; doubles per retry with
/// deterministic full jitter.
pub const BACKOFF_BASE_NS: u64 = 100_000;

/// How many times the base delay may double before it is clamped. With
/// [`RETRY_BUDGET`] retries the cap never binds; it is a safety rail for
/// hand-built policies with a huge budget.
const CAP_DOUBLINGS: u32 = 6;

/// Backoff/deadline envelope guarding one cache RPC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total virtual ns one guarded call may burn sleeping across all of
    /// its retries before the client declares the node unreachable.
    pub deadline_ns: u64,
    /// Retry attempts after the initial try.
    pub budget: u32,
    /// First retry's nominal delay; doubles per retry.
    pub base_ns: u64,
    /// Clamp on any single delay.
    pub cap_ns: u64,
}

impl RetryPolicy {
    /// Policy for the region's `rpc_deadline` with the fixed
    /// [`RETRY_BUDGET`] and [`BACKOFF_BASE_NS`].
    pub fn from_config(cfg: &PaconConfig) -> Self {
        Self {
            deadline_ns: cfg.rpc_deadline,
            budget: RETRY_BUDGET,
            base_ns: BACKOFF_BASE_NS,
            cap_ns: BACKOFF_BASE_NS << CAP_DOUBLINGS,
        }
    }

    /// Full-jitter delay for retry `attempt` (0-based): uniform in
    /// `[d/2, d]` with `d = min(base · 2^attempt, cap)`. Never zero — a
    /// zero backoff would turn a down node into a hot spin loop.
    pub fn backoff_ns(&self, attempt: u32, seed: u64) -> u64 {
        let nominal = self
            .base_ns
            .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX));
        let d = nominal.min(self.cap_ns).max(2);
        let half = d / 2;
        half + splitmix64(seed ^ ((attempt as u64 + 1) << 32)) % (d - half + 1)
    }

    /// Delay to sleep before retry `attempt` (0-based), given `slept_ns`
    /// already burned by earlier backoffs under the same `seed`. `None`
    /// when the budget or the deadline is exhausted — time to go
    /// degraded. By construction the sum of every `Some` delay for one
    /// `(seed, call)` never exceeds `deadline_ns`.
    pub fn next_backoff(&self, attempt: u32, slept_ns: u64, seed: u64) -> Option<u64> {
        if attempt >= self.budget {
            return None;
        }
        let d = self.backoff_ns(attempt, seed);
        if slept_ns.saturating_add(d) > self.deadline_ns {
            return None;
        }
        Some(d)
    }
}

/// SplitMix64 — the same finalizer the vendored `rand` uses for seeding;
/// one multiply-xor round is plenty for backoff jitter.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsapi::Credentials;
    use simnet::Topology;

    fn policy() -> RetryPolicy {
        let cfg = PaconConfig::new("/app", Topology::new(1, 1), Credentials::new(1, 1));
        RetryPolicy::from_config(&cfg)
    }

    #[test]
    fn same_seed_same_delays() {
        let p = policy();
        for attempt in 0..8 {
            assert_eq!(p.backoff_ns(attempt, 42), p.backoff_ns(attempt, 42));
        }
        assert_ne!(p.backoff_ns(0, 1), p.backoff_ns(0, 2), "seeds must differ");
    }

    #[test]
    fn budget_and_deadline_cut_off() {
        let p = policy();
        assert!(p.next_backoff(p.budget, 0, 7).is_none(), "budget exhausted");
        assert!(p.next_backoff(0, p.deadline_ns, 7).is_none(), "deadline burned");
        assert!(p.next_backoff(0, 0, 7).is_some());
    }

    #[test]
    fn delays_grow_then_clamp() {
        let p = RetryPolicy { deadline_ns: u64::MAX, budget: 40, base_ns: 100, cap_ns: 800 };
        // Nominal doubles 100→200→400→800 then the cap pins it.
        for attempt in 0..40 {
            let d = p.backoff_ns(attempt, 9);
            assert!((1..=800).contains(&d), "attempt {attempt} gave {d}");
        }
        assert!(p.backoff_ns(30, 9) >= 400, "cap region stays in [cap/2, cap]");
    }
}
