//! A sharded, memoized cache of stripped partitions.
//!
//! Lattice-based discovery recomputes `π_X` for the same attribute sets
//! over and over: TANE needs every node of the current level plus its
//! parents, FastFD probes single-attribute partitions, and the PFD / CFD
//! / eCFD miners re-derive the same groupings per candidate. A run-scoped
//! [`PartitionCache`] interns `π_X` by [`AttrSet`] so each partition is
//! computed once and *shared* — across lattice levels, across dependency
//! classes, and across the worker threads of the parallel executors.
//!
//! Design points:
//!
//! * **Sharded**: the key space is split over independent `Mutex`-guarded
//!   shards (selected by a mix of the attrset bits), so concurrent
//!   workers rarely contend on the same lock and never hold two at once.
//! * **Memoized products**: a miss on `X` is computed as
//!   `π_{X∖{a}} · π_{a}` (with `a = max(X)`), recursively through the
//!   cache — exactly TANE's parent-product trick, so a warm cache makes
//!   each new lattice level one product per node. Products run through a
//!   thread-local [`ProductScratch`], reusing probe buffers across calls.
//! * **Budget-aware**: every mutation reports a [`CacheDelta`] of bytes
//!   inserted/evicted so callers can charge the execution engine's
//!   partition-memory budget precisely.
//! * **LRU eviction**: an optional capacity bounds the estimated resident
//!   bytes; inserts over capacity evict least-recently-used entries.
//!   Base partitions (`|X| ≤ 1`) are pinned — they are the leaves of
//!   every recomputation, so evicting them only thrashes. Eviction is
//!   transparent: a later lookup recomputes the identical partition.
//!
//! Correctness invariant (property-tested): a cache hit is bit-identical
//! to a fresh [`StrippedPartition`] computation, with or without
//! eviction, at any thread count.

use crate::attrset::AttrSet;
use crate::partition::{ProductScratch, StrippedPartition};
use crate::relation::Relation;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Number of independent shards. A power of two so shard selection is a
/// mask; 16 comfortably exceeds the worker counts the pool runs with.
const SHARDS: usize = 16;

thread_local! {
    /// Per-thread product scratch: each pool worker reuses its own probe
    /// buffer across every product it computes within a run.
    static SCRATCH: RefCell<ProductScratch> = RefCell::new(ProductScratch::new());
}

/// Bytes inserted into / evicted from the cache by one operation, for
/// charging the engine's partition-memory budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheDelta {
    /// Estimated bytes newly interned by this operation.
    pub inserted_bytes: u64,
    /// Estimated bytes released by LRU eviction during this operation.
    pub evicted_bytes: u64,
}

impl CacheDelta {
    fn merge(self, other: CacheDelta) -> CacheDelta {
        CacheDelta {
            inserted_bytes: self.inserted_bytes + other.inserted_bytes,
            evicted_bytes: self.evicted_bytes + other.evicted_bytes,
        }
    }
}

struct Entry {
    part: Arc<StrippedPartition>,
    bytes: u64,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<AttrSet, Entry>,
}

/// A sharded, memoized, LRU-bounded cache of stripped partitions keyed by
/// attribute set. See the [module docs](self) for the design.
pub struct PartitionCache {
    shards: Vec<Mutex<Shard>>,
    capacity: Option<u64>,
    mem: AtomicU64,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Products computed by the radix kernel
    /// ([`StrippedPartition::product_with_column`]).
    radix_products: AtomicU64,
    /// Products computed by the probe-table fallback
    /// ([`StrippedPartition::product_with`]).
    hash_products: AtomicU64,
}

impl Default for PartitionCache {
    fn default() -> Self {
        PartitionCache::new()
    }
}

impl std::fmt::Debug for PartitionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionCache")
            .field("capacity", &self.capacity)
            .field("mem_estimate", &self.mem_estimate())
            .field("len", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("evictions", &self.evictions())
            .field("radix_products", &self.radix_products())
            .field("hash_products", &self.hash_products())
            .finish()
    }
}

impl PartitionCache {
    /// Unbounded cache.
    pub fn new() -> Self {
        PartitionCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            capacity: None,
            mem: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            radix_products: AtomicU64::new(0),
            hash_products: AtomicU64::new(0),
        }
    }

    /// Cache that evicts least-recently-used unpinned entries once the
    /// resident estimate exceeds `bytes`. The bound is honored modulo the
    /// pinned base partitions (`|X| ≤ 1`), which are never evicted.
    pub fn with_capacity_bytes(bytes: u64) -> Self {
        PartitionCache {
            capacity: Some(bytes),
            ..PartitionCache::new()
        }
    }

    fn shard_for(&self, attrs: AttrSet) -> &Mutex<Shard> {
        // Fibonacci-hash the bitset so dense lattice neighborhoods spread
        // over shards instead of clustering by low bits.
        let h = attrs.bits().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(h >> 60) as usize & (SHARDS - 1)]
    }

    fn lock(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
        shard.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Look up `π_attrs` without computing it on a miss.
    pub fn get(&self, attrs: AttrSet) -> Option<Arc<StrippedPartition>> {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut shard = Self::lock(self.shard_for(attrs));
        match shard.map.get_mut(&attrs) {
            Some(e) => {
                e.last_used = stamp;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&e.part))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Intern a ready-made partition for `attrs`. If another thread won
    /// the race, the incumbent is kept (first insert wins) and the delta
    /// is empty. Returns the interned partition plus the byte delta.
    pub fn insert(
        &self,
        attrs: AttrSet,
        part: StrippedPartition,
    ) -> (Arc<StrippedPartition>, CacheDelta) {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let bytes = part.approx_bytes();
        let arc = Arc::new(part);
        let mut delta = CacheDelta::default();
        {
            let mut shard = Self::lock(self.shard_for(attrs));
            let entry = shard.map.entry(attrs);
            match entry {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    e.get_mut().last_used = stamp;
                    return (Arc::clone(&e.get().part), delta);
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(Entry {
                        part: Arc::clone(&arc),
                        bytes,
                        last_used: stamp,
                    });
                    self.mem.fetch_add(bytes, Ordering::Relaxed);
                    delta.inserted_bytes = bytes;
                }
            }
        }
        delta.evicted_bytes = self.enforce_capacity(attrs);
        (arc, delta)
    }

    /// Fetch `π_attrs`, computing (and interning) it on a miss via the
    /// cached-parent product recursion. Returns the partition and the
    /// accumulated byte delta of every insert/eviction the call caused.
    pub fn get_or_compute(
        &self,
        r: &Relation,
        attrs: AttrSet,
    ) -> (Arc<StrippedPartition>, CacheDelta) {
        if let Some(p) = self.get(attrs) {
            return (p, CacheDelta::default());
        }
        let mut delta = CacheDelta::default();
        let computed = match attrs.len() {
            0 => StrippedPartition::identity(r.n_rows()),
            1 => match attrs.min() {
                Some(a) => StrippedPartition::from_column(r, a),
                None => StrippedPartition::identity(r.n_rows()),
            },
            _ => {
                // π_X = π_{X∖{a}} · π_{a}: the left parent comes
                // (recursively) from the cache, so a warm level costs one
                // product. The product itself picks a strategy: the radix
                // kernel splits the left parent directly on `a`'s code
                // vector; when the dictionary is too wide for it, fall back
                // to materializing `π_a` and the probe-table product. Both
                // strategies are byte-identical by construction and by
                // property test.
                let Some(split) = attrs.max() else {
                    return (Arc::new(StrippedPartition::identity(r.n_rows())), delta);
                };
                let (left, d1) = self.get_or_compute(r, attrs.remove(split));
                delta = delta.merge(d1);
                let radix =
                    SCRATCH.with(|s| left.product_with_column(r.col(split), &mut s.borrow_mut()));
                match radix {
                    Some(p) => {
                        self.radix_products.fetch_add(1, Ordering::Relaxed);
                        p
                    }
                    None => {
                        let (right, d2) = self.get_or_compute(r, AttrSet::single(split));
                        delta = delta.merge(d2);
                        self.hash_products.fetch_add(1, Ordering::Relaxed);
                        SCRATCH.with(|s| left.product_with(&right, &mut s.borrow_mut()))
                    }
                }
            }
        };
        let (arc, d) = self.insert(attrs, computed);
        (arc, delta.merge(d))
    }

    /// Evict least-recently-used unpinned entries until the resident
    /// estimate fits the capacity. `just_inserted` is never evicted by
    /// its own insert (evicting the partition being handed out would make
    /// every over-capacity insert useless). Returns bytes evicted.
    fn enforce_capacity(&self, just_inserted: AttrSet) -> u64 {
        let Some(cap) = self.capacity else {
            return 0;
        };
        let mut evicted_total = 0u64;
        while self.mem.load(Ordering::Relaxed) > cap {
            // Pass 1: find the globally-oldest unpinned victim, one shard
            // lock at a time (never two locks at once).
            let mut victim: Option<(usize, AttrSet, u64)> = None;
            for (i, shard) in self.shards.iter().enumerate() {
                let guard = Self::lock(shard);
                for (&k, e) in &guard.map {
                    if k.len() <= 1 || k == just_inserted {
                        continue; // pinned
                    }
                    if victim.is_none_or(|(_, _, stamp)| e.last_used < stamp) {
                        victim = Some((i, k, e.last_used));
                    }
                }
            }
            let Some((i, k, stamp)) = victim else {
                break; // nothing evictable — over-capacity by pins alone
            };
            // Pass 2: re-lock and remove if untouched since pass 1.
            let mut guard = Self::lock(&self.shards[i]);
            let still_oldest = guard.map.get(&k).is_some_and(|e| e.last_used == stamp);
            if still_oldest {
                if let Some(e) = guard.map.remove(&k) {
                    self.mem.fetch_sub(e.bytes, Ordering::Relaxed);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    evicted_total += e.bytes;
                }
            }
        }
        evicted_total
    }

    /// Explicitly drop `π_attrs` (level-wise miners release levels the
    /// lattice walk no longer needs). Returns the bytes released, 0 when
    /// the entry was absent. Unlike LRU eviction this also drops pinned
    /// base partitions if asked to.
    pub fn remove(&self, attrs: AttrSet) -> u64 {
        let mut shard = Self::lock(self.shard_for(attrs));
        match shard.map.remove(&attrs) {
            Some(e) => {
                self.mem.fetch_sub(e.bytes, Ordering::Relaxed);
                e.bytes
            }
            None => 0,
        }
    }

    /// Estimated resident bytes across all shards.
    pub fn mem_estimate(&self) -> u64 {
        self.mem.load(Ordering::Relaxed)
    }

    /// Number of interned partitions.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| Self::lock(s).map.len()).sum()
    }

    /// True when nothing is interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// LRU evictions so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Partition products computed by the radix (counting-sort) kernel.
    pub fn radix_products(&self) -> u64 {
        self.radix_products.load(Ordering::Relaxed)
    }

    /// Partition products computed by the probe-table (hash-fallback) path.
    pub fn hash_products(&self) -> u64 {
        self.hash_products.load(Ordering::Relaxed)
    }

    /// Drop every entry (stats are kept). Returns bytes released.
    pub fn clear(&self) -> u64 {
        let mut released = 0u64;
        for shard in &self.shards {
            let mut guard = Self::lock(shard);
            for (_, e) in guard.map.drain() {
                released += e.bytes;
            }
        }
        self.mem.fetch_sub(released, Ordering::Relaxed);
        released
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::RelationBuilder;
    use crate::schema::ValueType;
    use crate::AttrId;

    fn rel() -> Relation {
        RelationBuilder::new()
            .attr("a", ValueType::Categorical)
            .attr("b", ValueType::Categorical)
            .attr("c", ValueType::Categorical)
            .row(vec!["x".into(), "p".into(), "1".into()])
            .row(vec!["x".into(), "p".into(), "1".into()])
            .row(vec!["x".into(), "q".into(), "2".into()])
            .row(vec!["y".into(), "q".into(), "2".into()])
            .row(vec!["y".into(), "q".into(), "3".into()])
            .build()
            .expect("consistent arity")
    }

    fn ids(v: &[usize]) -> AttrSet {
        v.iter().map(|&i| AttrId(i)).collect()
    }

    #[test]
    fn hit_equals_fresh_computation() {
        let r = rel();
        let cache = PartitionCache::new();
        for set in [
            ids(&[0]),
            ids(&[0, 1]),
            ids(&[0, 1, 2]),
            ids(&[2]),
            AttrSet::empty(),
        ] {
            let (cached, _) = cache.get_or_compute(&r, set);
            let fresh = StrippedPartition::from_attrs(&r, set);
            assert_eq!(*cached, fresh, "mismatch for {set:?}");
            // Second call is a pure hit, identical again.
            let (again, d) = cache.get_or_compute(&r, set);
            assert_eq!(*again, fresh);
            assert_eq!(d, CacheDelta::default());
        }
        assert!(cache.hits() >= 5);
    }

    #[test]
    fn deltas_track_mem_estimate() {
        let r = rel();
        let cache = PartitionCache::new();
        let mut charged = 0u64;
        for set in [ids(&[0]), ids(&[1]), ids(&[0, 1]), ids(&[0, 1, 2])] {
            let (_, d) = cache.get_or_compute(&r, set);
            charged += d.inserted_bytes;
            charged -= d.evicted_bytes;
        }
        assert_eq!(charged, cache.mem_estimate());
        let released = cache.clear();
        assert_eq!(released, charged);
        assert_eq!(cache.mem_estimate(), 0);
    }

    #[test]
    fn eviction_keeps_results_correct() {
        let r = rel();
        // Absurdly small capacity: every multi-attribute insert evicts.
        let cache = PartitionCache::with_capacity_bytes(1);
        let sets = [ids(&[0, 1]), ids(&[1, 2]), ids(&[0, 2]), ids(&[0, 1, 2])];
        for &set in &sets {
            let (p, _) = cache.get_or_compute(&r, set);
            assert_eq!(*p, StrippedPartition::from_attrs(&r, set));
        }
        assert!(cache.evictions() > 0);
        // Re-query everything: recomputation after eviction is identical.
        for &set in &sets {
            let (p, _) = cache.get_or_compute(&r, set);
            assert_eq!(*p, StrippedPartition::from_attrs(&r, set));
        }
    }

    #[test]
    fn base_partitions_are_pinned() {
        let r = rel();
        let cache = PartitionCache::with_capacity_bytes(1);
        for a in 0..3 {
            cache.get_or_compute(&r, ids(&[a]));
        }
        cache.get_or_compute(&r, ids(&[0, 1, 2]));
        // Singletons survive even though the cache is far over capacity.
        for a in 0..3 {
            assert!(cache.get(ids(&[a])).is_some(), "singleton {a} evicted");
        }
    }

    #[test]
    fn product_strategy_counters_track_paths() {
        let r = rel();
        let cache = PartitionCache::new();
        cache.get_or_compute(&r, ids(&[0, 1]));
        assert_eq!(
            (cache.radix_products(), cache.hash_products()),
            (1, 0),
            "tiny dictionaries take the radix kernel"
        );
        // `key` repeats on two rows only, and `id` has 1099 distinct
        // values: a dictionary too wide for either radix strategy over a
        // two-row partition, so the product falls back to the probe table.
        let mut b = RelationBuilder::new()
            .attr("key", ValueType::Categorical)
            .attr("id", ValueType::Numeric);
        for i in 0..1100i64 {
            let key = if i < 2 {
                "dup".to_string()
            } else {
                format!("k{i}")
            };
            b = b.row(vec![crate::Value::Str(key), i.max(1).into()]);
        }
        let wide = b.build().expect("consistent arity");
        let wide_cache = PartitionCache::new();
        let (p, _) = wide_cache.get_or_compute(&wide, ids(&[0, 1]));
        assert_eq!(
            (wide_cache.radix_products(), wide_cache.hash_products()),
            (0, 1),
            "a wide dictionary takes the probe-table fallback"
        );
        assert_eq!(*p, StrippedPartition::from_attrs(&wide, ids(&[0, 1])));
        assert_eq!(p.classes(), &[vec![0, 1]]);
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let r = rel();
        let cache = PartitionCache::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for bits in 1u64..8 {
                        let set = AttrSet::from_bits(bits);
                        let (p, _) = cache.get_or_compute(&r, set);
                        assert_eq!(*p, StrippedPartition::from_attrs(&r, set));
                    }
                });
            }
        });
        // Every distinct set interned exactly once.
        assert_eq!(cache.len(), 7);
        let expected: u64 = (1u64..8)
            .map(|bits| StrippedPartition::from_attrs(&r, AttrSet::from_bits(bits)).approx_bytes())
            .sum();
        assert_eq!(cache.mem_estimate(), expected);
    }
}
