// Seeded violation for R5: per-key cache get inside a loop in pacon
// library code. Analyzed as `crates/pacon/src/fix_r5.rs`.
pub fn warm(cache: &MetaCache, keys: &[&str]) {
    for key in keys {
        let _ = cache.get(key);
    }
}

pub fn warm_fallible(kv: &KvClient, keys: &[&[u8]]) {
    for key in keys {
        let _ = kv.try_get(key);
    }
}
