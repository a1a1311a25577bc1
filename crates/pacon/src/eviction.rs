//! Cache space management (Section III.F).
//!
//! Metadata is small, so pressure is rare; the policy is deliberately
//! simple. When region-wide cache usage exceeds the configured threshold,
//! pick one top-level entry under the workspace root — round-robin, so
//! consecutive evictions pick different entries and thrashing is
//! dampened — and evict the *committed* metadata of and under it.
//! Uncommitted or removal-marked records are the only primary copy and
//! are never evicted.

use std::sync::atomic::Ordering;

use fsapi::path as fspath;

use crate::cache::MetaCache;
use crate::region::RegionCore;

/// Check the threshold and evict one round-robin-selected top-level entry
/// if usage is above it. Returns the number of evicted records.
pub fn maybe_evict(core: &RegionCore, cache: &MetaCache) -> usize {
    let Some(threshold) = core.config.eviction_threshold else {
        return 0;
    };
    if core.cache_cluster.used_bytes() <= threshold {
        return 0;
    }
    evict_one_entry(core, cache)
}

/// Evict the committed records under the next round-robin top-level entry.
pub fn evict_one_entry(core: &RegionCore, cache: &MetaCache) -> usize {
    let tops = top_level_entries(core);
    if tops.is_empty() {
        return 0;
    }
    let idx = core.evict_cursor.fetch_add(1, Ordering::Relaxed) % tops.len();
    let victim = &tops[idx];
    let keys = core.cache_cluster.keys_with_prefix(victim.as_bytes());
    let paths: Vec<&str> = keys
        .iter()
        .filter_map(|k| std::str::from_utf8(k).ok())
        .filter(|p| fspath::is_same_or_ancestor(victim, p))
        .collect();
    // One batched lookup for the whole subtree instead of a round trip
    // per key; only the backup-copy-backed, not-pending entries may go.
    // Best effort, one unguarded attempt per RPC: a record on a down node
    // reads as a miss and stays.
    let cache = cache.bare();
    let metas = cache.try_multi_get(&paths).unwrap_or_default();
    let mut evicted = 0;
    for (path, meta) in paths.iter().zip(metas) {
        let evictable = meta.map(|(m, _)| m.committed && !m.removed).unwrap_or(false);
        if evictable && cache.try_delete(path) == Ok(true) {
            evicted += 1;
        }
    }
    core.counters.add("evicted", evicted as u64);
    evicted
}

/// Distinct first-level entries under the region root that currently have
/// cached records.
fn top_level_entries(core: &RegionCore) -> Vec<String> {
    let root_prefix = if core.root == "/" {
        "/".to_string()
    } else {
        format!("{}/", core.root)
    };
    let mut tops: Vec<String> = Vec::new();
    for key in core.cache_cluster.keys_with_prefix(root_prefix.as_bytes()) {
        let Ok(path) = std::str::from_utf8(&key) else { continue };
        let rest = &path[root_prefix.len()..];
        let first = rest.split('/').next().unwrap_or("");
        if first.is_empty() {
            continue;
        }
        let top = format!("{root_prefix}{first}");
        if tops.last().map(|t| *t != top).unwrap_or(true) && !tops.contains(&top) {
            tops.push(top);
        }
    }
    tops.sort();
    tops.dedup();
    tops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::MetaCache;
    use crate::config::PaconConfig;
    use crate::region::PaconRegion;
    use fsapi::{Credentials, FileSystem};
    use simnet::{ClientId, LatencyProfile, NodeId, Topology};
    use std::sync::Arc;

    fn region_with_threshold(t: Option<usize>) -> (Arc<dfs::DfsCluster>, Arc<PaconRegion>) {
        let dfs = dfs::DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
        let cred = Credentials::new(1, 1);
        let mut cfg = PaconConfig::new("/w", Topology::new(1, 1), cred);
        cfg.eviction_threshold = t;
        (Arc::clone(&dfs), PaconRegion::launch_paused(cfg, &dfs).unwrap())
    }

    fn cache_of(region: &PaconRegion) -> MetaCache {
        MetaCache::new(region.core().cache_cluster.client(simnet::NodeId(0)))
    }

    #[test]
    fn no_threshold_means_no_eviction() {
        let (_d, region) = region_with_threshold(None);
        let cred = Credentials::new(1, 1);
        let c = region.client(ClientId(0));
        for i in 0..50 {
            c.create(&format!("/w/f{i:02}"), &cred, 0o644).unwrap();
        }
        assert_eq!(maybe_evict(region.core(), &cache_of(&region)), 0);
        assert_eq!(region.core().cache_cluster.len(), 50);
    }

    #[test]
    fn uncommitted_entries_are_never_evicted() {
        let (_d, region) = region_with_threshold(Some(1));
        let cred = Credentials::new(1, 1);
        let c = region.client(ClientId(0));
        // Workers never run (paused region): everything stays uncommitted.
        for i in 0..20 {
            c.create(&format!("/w/f{i:02}"), &cred, 0o644).unwrap();
        }
        // Way over threshold, but nothing is evictable.
        for _ in 0..30 {
            evict_one_entry(region.core(), &cache_of(&region));
        }
        assert_eq!(region.core().cache_cluster.len(), 20, "primary copies must survive");
        assert_eq!(region.core().counters.get("evicted"), 0);
    }

    #[test]
    fn round_robin_rotates_victims() {
        let (_d, region) = region_with_threshold(Some(1));
        let cred = Credentials::new(1, 1);
        let cache = cache_of(&region);
        // Three committed top-level subtrees, planted directly.
        for d in 0..3 {
            for i in 0..4 {
                let mut m = crate::metadata::CachedMeta::new_file(
                    fsapi::Perm::new(0o644, 1, 1),
                    1,
                );
                m.committed = true;
                cache.try_put(&format!("/w/d{d}/f{i}"), &m).unwrap();
            }
        }
        assert_eq!(region.core().cache_cluster.len(), 12);
        // Each eviction round removes exactly one subtree, rotating.
        let e1 = evict_one_entry(region.core(), &cache);
        assert_eq!(e1, 4);
        assert_eq!(region.core().cache_cluster.len(), 8);
        let e2 = evict_one_entry(region.core(), &cache);
        assert_eq!(e2, 4);
        let e3 = evict_one_entry(region.core(), &cache);
        assert_eq!(e3, 4);
        assert_eq!(region.core().cache_cluster.len(), 0);
        assert_eq!(region.core().counters.get("evicted"), 12);
        let _ = cred;
    }

    #[test]
    fn sibling_prefixes_are_not_confused() {
        let (_d, region) = region_with_threshold(Some(1));
        let cache = cache_of(&region);
        let mut m = crate::metadata::CachedMeta::new_file(fsapi::Perm::new(0o644, 1, 1), 1);
        m.committed = true;
        cache.try_put("/w/a", &m).unwrap();
        cache.try_put("/w/ab", &m).unwrap(); // shares the byte prefix of "/w/a"
        let tops = super::top_level_entries(region.core());
        assert_eq!(tops, vec!["/w/a".to_string(), "/w/ab".to_string()]);
        // Evicting "/w/a" must not take "/w/ab" with it.
        region.core().evict_cursor.store(0, std::sync::atomic::Ordering::Relaxed);
        let n = evict_one_entry(region.core(), &cache);
        assert_eq!(n, 1);
        assert!(cache.try_get("/w/ab").unwrap().is_some());
    }

    #[test]
    fn eviction_skips_records_on_a_down_node_mid_leave() {
        let dfs = dfs::DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
        let mut cfg = PaconConfig::new("/w", Topology::new(3, 1), Credentials::new(1, 1));
        cfg.eviction_threshold = Some(1);
        let region = PaconRegion::launch_paused(cfg, &dfs).unwrap();
        let cache = cache_of(&region);
        let mut m = crate::metadata::CachedMeta::new_file(fsapi::Perm::new(0o644, 1, 1), 1);
        m.committed = true;
        for i in 0..200 {
            cache.try_put(&format!("/w/d/f{i:03}"), &m).unwrap();
        }
        let cluster = &region.core().cache_cluster;
        cluster.crash(NodeId(1));
        assert!(cluster.begin_leave(NodeId(2)));

        let evicted = evict_one_entry(region.core(), &cache);
        assert!(evicted > 0, "records on live owners are still evicted");
        // What survives is exactly what a down post-leave owner serves.
        let kept = cluster.keys_with_prefix(b"/w/d/");
        assert!(!kept.is_empty(), "records owned by the down node must stay");
        for key in &kept {
            assert_eq!(cluster.shard_node(key), NodeId(1));
        }
    }
}
