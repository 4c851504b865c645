//! Concurrency contract of the sharded LRU: under many writer/reader
//! threads the cache never exceeds its capacity bound and never returns a
//! value that was not inserted for exactly that key.

#![allow(
    clippy::unwrap_used,
    clippy::float_cmp,
    reason = "test code: a panic IS the failure report, and fixtures are tiny"
)]

use alss_graph::CanonicalKey;
use alss_serve::{CachedEstimate, ShardedLru};
use std::sync::Arc;

fn key(i: u64) -> CanonicalKey {
    // Spread the shard-selector bits (the cache shards on hash >> 48).
    CanonicalKey {
        nodes: 3,
        edges: 2,
        hash: i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    }
}

/// The value for a key is a pure function of the key, so any torn or
/// misrouted read is detectable.
fn value_for(i: u64) -> CachedEstimate {
    CachedEstimate {
        log10: (i as f64) * 0.25,
        magnitude_class: i % 21,
    }
}

#[test]
fn hammered_cache_stays_bounded_and_never_lies() {
    const THREADS: u64 = 8;
    const OPS: u64 = 2_000;
    const KEYSPACE: u64 = 256; // ≫ capacity: constant eviction pressure
    let cache = Arc::new(ShardedLru::new(64, 8));

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let cache = Arc::clone(&cache);
            s.spawn(move || {
                for op in 0..OPS {
                    let i = (t.wrapping_mul(31).wrapping_add(op).wrapping_mul(77)) % KEYSPACE;
                    if op % 3 == 0 {
                        cache.insert(key(i), value_for(i));
                    } else if let Some(v) = cache.get(&key(i)) {
                        assert_eq!(v, value_for(i), "wrong value for key {i}");
                    }
                    if op % 97 == 0 {
                        assert!(
                            cache.len() <= cache.capacity(),
                            "len {} exceeds capacity {}",
                            cache.len(),
                            cache.capacity()
                        );
                    }
                }
            });
        }
    });

    assert!(cache.len() <= cache.capacity());
    assert!(!cache.is_empty(), "some inserts must have survived");
    // Post-quiescence: every surviving entry still maps to its own value.
    for i in 0..KEYSPACE {
        if let Some(v) = cache.get(&key(i)) {
            assert_eq!(v, value_for(i));
        }
    }
}

#[test]
fn distinct_keys_with_equal_hash_do_not_collide() {
    // CanonicalKey equality includes n and m, so two structures that
    // happened to collide in the 64-bit hash still occupy distinct slots.
    let cache = ShardedLru::new(16, 2);
    let a = CanonicalKey {
        nodes: 3,
        edges: 2,
        hash: 42,
    };
    let b = CanonicalKey {
        nodes: 4,
        edges: 3,
        hash: 42,
    };
    cache.insert(a, value_for(1));
    cache.insert(b, value_for(2));
    assert_eq!(cache.get(&a).unwrap(), value_for(1));
    assert_eq!(cache.get(&b).unwrap(), value_for(2));
}
