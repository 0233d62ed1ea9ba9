//! TANE (Huhtala et al.): level-wise FD discovery with stripped
//! partitions. The canonical lattice algorithm most later discovery
//! methods extend (CTANE, PFD mining, FFD mining, …).
//!
//! This implementation is the repo's flagship *parallel* lattice walk:
//! each level's candidate nodes are evaluated concurrently on the
//! work-stealing pool (`deptree_core::engine::pool`) against a shared
//! [`PartitionCache`], with node/row budget *reserved* per batch so the
//! emitted dependency set — including the anytime prefix under an
//! exhausted budget — is bit-identical at every thread count (see
//! `Exec::try_reserve_nodes`). Candidate verdicts are merged in canonical
//! lattice order, and the final FD list is sorted, so output order never
//! depends on scheduling.

use deptree_core::engine::{obs, pool, Exec, Outcome};
use deptree_core::Fd;
use deptree_relation::{AttrSet, PartitionCache, Relation};
use std::collections::{HashMap, HashSet};

/// Configuration for [`discover`].
#[derive(Debug, Clone)]
pub struct TaneConfig {
    /// Maximum size of the determinant set (lattice depth). TANE's lattice
    /// is exponential in this; the Fig. 3 scaling bench sweeps it.
    pub max_lhs: usize,
    /// Maximum `g3` error: `0.0` discovers exact FDs, a positive value
    /// discovers AFDs (`g3 ≤ ε`), exactly TANE's approximate mode.
    pub max_error: f64,
}

impl Default for TaneConfig {
    fn default() -> Self {
        TaneConfig {
            max_lhs: 5,
            max_error: 0.0,
        }
    }
}

/// Statistics from a run, for the scaling experiments.
#[derive(Debug, Clone, Default)]
pub struct TaneStats {
    /// Lattice nodes visited.
    pub nodes_visited: usize,
    /// Partition products computed (lattice nodes materialized).
    pub partition_products: usize,
    /// FDs emitted.
    pub fds_found: usize,
    /// Partition-cache hits over the whole run.
    pub cache_hits: u64,
    /// Partition-cache misses over the whole run.
    pub cache_misses: u64,
}

/// The result of a TANE run.
#[derive(Debug)]
pub struct TaneResult {
    /// Minimal non-trivial dependencies `X → A` (single-attribute RHS),
    /// each with `g3 ≤ max_error`.
    pub fds: Vec<Fd>,
    /// Run statistics.
    pub stats: TaneStats,
}

/// Run TANE on `r` to completion (no resource limits). Thread count comes
/// from the `DEPTREE_THREADS` environment default.
pub fn discover(r: &Relation, cfg: &TaneConfig) -> TaneResult {
    discover_bounded(r, cfg, &Exec::unbounded()).result
}

/// Run TANE on `r` under `exec`'s budget, with `exec.threads()` workers
/// and a run-private partition cache (capacity = the budget's
/// partition-memory cap, when set).
///
/// Anytime contract: every FD in the result holds on `r` (with
/// `g3 ≤ max_error` in approximate mode) even when the run was stopped
/// early — FDs are only emitted after their partition check passes. What
/// an exhausted run forfeits is *completeness*: unvisited lattice nodes
/// may hide further (and, for FDs whose minimality pruning depended on
/// them, smaller) dependencies. Under node/row budgets the anytime prefix
/// is additionally *deterministic across thread counts*; deadline and
/// memory budgets cut off at a timing-dependent point by nature.
pub fn discover_bounded(r: &Relation, cfg: &TaneConfig, exec: &Exec) -> Outcome<TaneResult> {
    let cache = match exec.budget().max_partition_bytes {
        Some(cap) => PartitionCache::with_capacity_bytes(cap),
        None => PartitionCache::new(),
    };
    discover_with_cache(r, cfg, exec, &cache)
}

/// [`discover_bounded`] against a caller-provided [`PartitionCache`],
/// sharing interned partitions with other discovery runs over the same
/// relation (the CLI's `profile` pipelines do this). The cache must only
/// hold partitions of `r`.
pub fn discover_with_cache(
    r: &Relation,
    cfg: &TaneConfig,
    exec: &Exec,
    cache: &PartitionCache,
) -> Outcome<TaneResult> {
    let n_attrs = r.n_attrs();
    let all = r.all_attrs();
    let approx = cfg.max_error > 0.0;
    let threads = exec.threads();
    let mut stats = TaneStats::default();
    let mut fds = Vec::new();
    let cache_hits0 = cache.hits();
    let cache_misses0 = cache.misses();
    let cache_evictions0 = cache.evictions();
    let radix_products0 = cache.radix_products();
    let hash_products0 = cache.hash_products();

    // Materialize the base partitions (π_∅ is implicit in the cache).
    let mut base_span = exec.span("tane.base_partitions");
    base_span.attr("attrs", n_attrs as u64);
    for a in r.schema().ids() {
        let (p, delta) = cache.get_or_compute(r, AttrSet::single(a));
        exec.free_partition(delta.evicted_bytes);
        obs::engine_metrics()
            .cache_inserted_bytes
            .add(delta.inserted_bytes);
        if delta.inserted_bytes > 0 {
            exec.alloc_partition(delta.inserted_bytes);
        }
        exec.tick_rows(r.n_rows() as u64);
        drop(p);
    }
    drop(base_span);

    // C+ candidate RHS sets per node.
    let mut cplus: HashMap<AttrSet, AttrSet> = HashMap::new();
    cplus.insert(AttrSet::empty(), all);

    // Level 1: singletons.
    let mut level: Vec<AttrSet> = r.schema().ids().map(AttrSet::single).collect();
    for &x in &level {
        cplus.insert(x, all);
    }
    // The previous level's node sets, releasable after the next one is
    // generated (singletons are kept for approximate checks).
    let mut prev_level: Vec<AttrSet> = Vec::new();

    let mut depth = 1usize;
    'search: while !level.is_empty() && depth <= cfg.max_lhs.saturating_add(1).min(n_attrs) {
        let mut level_span = exec.span("tane.level");
        level_span.attr("level", depth as u64);
        level_span.attr("candidates", level.len() as u64);
        // compute_dependencies: reserve the level's node budget up front,
        // evaluate the granted prefix in parallel, merge in lattice order.
        let granted = exec.try_reserve_nodes(level.len() as u64) as usize;
        level_span.attr("granted", granted as u64);
        let batch = &level[..granted];
        let verdicts: Vec<(AttrSet, AttrSet)> = pool::map(threads, batch, |_, &x| {
            if exec.interrupted() {
                // Deadline/cancellation fired mid-batch: stop evaluating.
                // (Deterministic budgets — nodes/rows/memory — never abort
                // the granted batch; it runs to completion so the output
                // is identical at every thread count.)
                return (AttrSet::empty(), AttrSet::empty());
            }
            // C+(X) = ∩_{A ∈ X} C+(X \ {A}) — reads only previous-level
            // entries, all inserted before this batch was dispatched.
            let mut cx = all;
            for a in x.iter() {
                match cplus.get(&x.remove(a)) {
                    Some(&c) => cx = cx.intersect(c),
                    None => cx = AttrSet::empty(),
                }
            }
            let mut valid = AttrSet::empty();
            for a in x.intersect(cx).iter() {
                let lhs = x.remove(a);
                let (px, _) = cache.get_or_compute(r, lhs);
                let holds = if approx {
                    let (pa, _) = cache.get_or_compute(r, AttrSet::single(a));
                    px.g3_error(&pa) <= cfg.max_error
                } else {
                    let (pxa, _) = cache.get_or_compute(r, x);
                    px.refines(&pxa)
                };
                if holds {
                    valid = valid.insert(a);
                }
            }
            (cx, valid)
        });
        for (&x, &(cx0, valid)) in batch.iter().zip(&verdicts) {
            stats.nodes_visited += 1;
            let mut cx = cx0;
            for a in x.intersect(cx0).iter() {
                if valid.contains(a) {
                    fds.push(Fd::new(r.schema(), x.remove(a), AttrSet::single(a)));
                    cx = cx.remove(a);
                    // Remove all B ∈ R \ X from C+(X): no FD with a larger
                    // RHS candidate through this node stays minimal.
                    if !approx {
                        cx = cx.difference(all.difference(x));
                    }
                }
            }
            cplus.insert(x, cx);
        }
        if granted < level.len() {
            break 'search;
        }

        // prune
        let mut survivors = Vec::with_capacity(level.len());
        for &x in &level {
            let cx = cplus.get(&x).copied().unwrap_or_default();
            if cx.is_empty() {
                continue;
            }
            // Key pruning: if X is a (super)key, emit X → A for remaining
            // candidates outside X and stop expanding.
            if !approx && cache.get_or_compute(r, x).0.error() == 0 {
                if x.len() <= cfg.max_lhs {
                    for a in cx.difference(x).iter() {
                        // TANE's minimality condition for key-derived FDs:
                        // A ∈ C+((X ∪ {A}) \ {B}) for every B ∈ X.
                        // Never-generated nodes have their C+ computed on
                        // demand via C+(X) = ∩_B C+(X \ {B}), per the TANE
                        // paper's deletion fallback.
                        let minimal = x
                            .iter()
                            .all(|b| cplus_of(x.insert(a).remove(b), &mut cplus, all).contains(a));
                        if minimal {
                            fds.push(Fd::new(r.schema(), x, AttrSet::single(a)));
                        }
                    }
                }
                continue;
            }
            survivors.push(x);
        }
        level = survivors;

        // generate_next_level: join nodes sharing a (|X|−1)-prefix. The
        // union list is assembled serially (cheap bitset algebra), the
        // partition products are computed in parallel through the shared
        // cache, and budget charges replay serially in canonical order so
        // row/memory exhaustion cuts at the same union at every thread
        // count.
        // The join is quadratic in the level (500k pairs on a 1001-node
        // level), so a deadline or cancellation is polled once per row:
        // stopping here ends the search exactly as the next level's
        // zero node grant would. Deterministic budgets never stop it.
        let mut unions: Vec<AttrSet> = Vec::new();
        let mut seen: HashSet<AttrSet> = HashSet::new();
        let survivors: HashSet<AttrSet> = level.iter().copied().collect();
        for i in 0..level.len() {
            if exec.interrupted() {
                break 'search;
            }
            for j in (i + 1)..level.len() {
                let union = level[i].union(level[j]);
                if union.len() != depth + 1 || !seen.insert(union) {
                    continue;
                }
                // All |X|−1 subsets must survive in the current (pruned)
                // level for the node to be generable — children of pruned
                // nodes are implied or hopeless (standard TANE test).
                let all_parents = union.iter().all(|c| survivors.contains(&union.remove(c)));
                if all_parents {
                    unions.push(union);
                }
            }
        }
        let mut product_span = exec.span("tane.products");
        product_span.attr("level", depth as u64);
        product_span.attr("products", unions.len() as u64);
        let deltas = pool::map(threads, &unions, |_, &u| {
            if exec.interrupted() {
                // Deadline/cancellation mid-generation: stop computing
                // partition products; the serial replay below sees the
                // sticky exhaustion on its first tick and winds down.
                // (Deterministic budgets never abort here — see the
                // compute_dependencies batch above.)
                return deptree_relation::CacheDelta::default();
            }
            cache.get_or_compute(r, u).1
        });
        let mut next: Vec<AttrSet> = Vec::with_capacity(unions.len());
        let m = obs::engine_metrics();
        for (&union, delta) in unions.iter().zip(&deltas) {
            stats.partition_products += 1;
            exec.free_partition(delta.evicted_bytes);
            m.cache_evicted_bytes.add(delta.evicted_bytes);
            m.cache_inserted_bytes.add(delta.inserted_bytes);
            let live = exec.tick_rows(r.n_rows() as u64)
                && (delta.inserted_bytes == 0 || exec.alloc_partition(delta.inserted_bytes));
            cplus.entry(union).or_insert(all);
            next.push(union);
            if !live {
                // Memory/row budget hit while materializing the next
                // level: stop generating, process nothing further.
                next.clear();
                break 'search;
            }
        }
        drop(product_span);

        // Release partitions of the level before last — the next level no
        // longer needs them as parents (keep singletons for approximate
        // checks and cross-run sharing).
        for &s in prev_level.iter().filter(|s| s.len() > 1) {
            exec.free_partition(cache.remove(s));
        }
        prev_level = std::mem::take(&mut level);
        level = next;
        depth += 1;
    }

    fds.sort_by_key(|fd| (fd.lhs().len(), fd.lhs(), fd.rhs()));
    stats.fds_found = fds.len();
    stats.cache_hits = cache.hits().saturating_sub(cache_hits0);
    stats.cache_misses = cache.misses().saturating_sub(cache_misses0);
    // Publish the run's cache traffic to the global registry — the cache
    // itself lives in `relation`, below the engine, so callers surface its
    // counters.
    let m = obs::engine_metrics();
    m.cache_hits.add(stats.cache_hits);
    m.cache_misses.add(stats.cache_misses);
    m.cache_evictions
        .add(cache.evictions().saturating_sub(cache_evictions0));
    m.partition_product_radix
        .add(cache.radix_products().saturating_sub(radix_products0));
    m.partition_product_hash
        .add(cache.hash_products().saturating_sub(hash_products0));
    exec.finish(TaneResult { fds, stats })
}

/// Look up `C+(set)`, computing it on demand through the TANE recurrence
/// `C+(X) = ∩_{B∈X} C+(X \ {B})` (with `C+(∅)` = all attributes) when the
/// node was never generated; memoizes the result.
fn cplus_of(set: AttrSet, cplus: &mut HashMap<AttrSet, AttrSet>, all: AttrSet) -> AttrSet {
    if let Some(&c) = cplus.get(&set) {
        return c;
    }
    if set.is_empty() {
        return all;
    }
    let mut c = all;
    for b in set.iter() {
        c = c.intersect(cplus_of(set.remove(b), cplus, all));
    }
    cplus.insert(set, c);
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use deptree_core::Dependency;
    use deptree_relation::examples::{hotels_r5, hotels_r7};
    use deptree_relation::AttrId;
    use deptree_synth::{categorical, CategoricalConfig};

    #[test]
    fn discovers_planted_fds() {
        let cfg = CategoricalConfig {
            n_rows: 300,
            n_key_attrs: 2,
            n_dep_attrs: 2,
            domain: 40,
            error_rate: 0.0,
            seed: 1,
        };
        let data = categorical::generate(&cfg, &mut deptree_synth::rng(cfg.seed));
        let result = discover(&data.relation, &TaneConfig::default());
        for &(lhs, rhs) in &data.planted_fds {
            let found = result.fds.iter().any(|fd| {
                fd.lhs().is_subset(AttrSet::single(lhs)) && fd.rhs() == AttrSet::single(rhs)
            });
            assert!(found, "planted {lhs} -> {rhs} missing: {:?}", result.fds);
        }
    }

    #[test]
    fn all_results_hold_and_are_minimal() {
        let r = hotels_r5();
        let result = discover(&r, &TaneConfig::default());
        for fd in &result.fds {
            assert!(fd.holds(&r), "{fd} does not hold");
            assert!(!fd.is_trivial(), "{fd} is trivial");
            // Minimality: no proper subset of the LHS also works.
            for a in fd.lhs().iter() {
                let smaller = Fd::new(r.schema(), fd.lhs().remove(a), fd.rhs());
                assert!(!smaller.holds(&r), "{fd} not minimal ({smaller} holds)");
            }
        }
    }

    #[test]
    fn r7_numeric_keys() {
        // In r7 every attribute is a key (all values distinct), so every
        // A → B with single attributes is found.
        let r = hotels_r7();
        let result = discover(&r, &TaneConfig::default());
        // 4 attributes, each determines the 3 others: 12 single-attr FDs.
        assert_eq!(result.fds.len(), 12);
        assert!(result.fds.iter().all(|fd| fd.lhs().len() == 1));
    }

    #[test]
    fn approximate_mode_tolerates_noise() {
        let cfg = CategoricalConfig {
            n_rows: 400,
            n_key_attrs: 1,
            n_dep_attrs: 1,
            domain: 30,
            error_rate: 0.02,
            seed: 2,
        };
        let data = categorical::generate(&cfg, &mut deptree_synth::rng(cfg.seed));
        // Exact discovery misses the planted FD…
        let exact = discover(&data.relation, &TaneConfig::default());
        let planted = |fds: &[Fd]| {
            fds.iter().any(|fd| {
                fd.lhs() == AttrSet::single(AttrId(0)) && fd.rhs() == AttrSet::single(AttrId(1))
            })
        };
        assert!(!planted(&exact.fds));
        // …approximate discovery recovers it.
        let approx = discover(
            &data.relation,
            &TaneConfig {
                max_error: 0.05,
                ..Default::default()
            },
        );
        assert!(planted(&approx.fds), "{:?}", approx.fds);
    }

    #[test]
    fn lattice_depth_bound_respected() {
        let r = hotels_r5();
        let shallow = discover(
            &r,
            &TaneConfig {
                max_lhs: 1,
                max_error: 0.0,
            },
        );
        assert!(shallow.fds.iter().all(|fd| fd.lhs().len() <= 1));
        assert!(shallow.stats.nodes_visited <= r.n_attrs() * 2);
    }

    #[test]
    fn bounded_run_is_sound_and_deterministic() {
        use deptree_core::engine::Budget;
        let cfg = CategoricalConfig {
            n_rows: 200,
            n_key_attrs: 3,
            n_dep_attrs: 3,
            domain: 8,
            error_rate: 0.0,
            seed: 7,
        };
        let data = categorical::generate(&cfg, &mut deptree_synth::rng(cfg.seed));
        let r = &data.relation;
        let full = discover(r, &TaneConfig::default());
        // A node budget far below the full lattice forces a partial run.
        let budget = Budget::new().with_max_nodes(4);
        let partial = discover_bounded(r, &TaneConfig::default(), &Exec::new(budget.clone()));
        assert!(!partial.complete);
        assert!(partial.result.fds.len() < full.fds.len());
        // Sound: every FD in the partial result holds.
        for fd in &partial.result.fds {
            assert!(fd.holds(r), "{fd} unsound under budget");
        }
        // Deterministic: a second identical run returns the same FDs.
        let again = discover_bounded(r, &TaneConfig::default(), &Exec::new(budget));
        let names = |fds: &[Fd]| fds.iter().map(|f| f.to_string()).collect::<Vec<_>>();
        assert_eq!(names(&partial.result.fds), names(&again.result.fds));
    }

    #[test]
    fn memory_budget_stops_lattice_growth() {
        use deptree_core::engine::{Budget, BudgetKind};
        let r = hotels_r5();
        let exec = Exec::new(Budget::new().with_max_partition_bytes(1));
        let out = discover_bounded(&r, &TaneConfig::default(), &exec);
        assert!(!out.complete);
        assert!(matches!(
            out.exhausted,
            Some(BudgetKind::Memory | BudgetKind::Rows)
        ));
        for fd in &out.result.fds {
            assert!(fd.holds(&r));
        }
    }

    #[test]
    fn unbounded_exec_reports_complete() {
        let r = hotels_r5();
        let out = discover_bounded(&r, &TaneConfig::default(), &Exec::unbounded());
        assert!(out.complete);
        assert_eq!(out.exhausted, None);
        assert!(out.stats.nodes_visited > 0);
    }

    #[test]
    fn parallel_run_matches_serial() {
        let cfg = CategoricalConfig {
            n_rows: 250,
            n_key_attrs: 2,
            n_dep_attrs: 3,
            domain: 6,
            error_rate: 0.05,
            seed: 13,
        };
        let data = categorical::generate(&cfg, &mut deptree_synth::rng(cfg.seed));
        let r = &data.relation;
        let names = |res: &TaneResult| res.fds.iter().map(|f| f.to_string()).collect::<Vec<_>>();
        let serial = discover_bounded(
            r,
            &TaneConfig::default(),
            &Exec::unbounded().with_threads(1),
        );
        for threads in [2, 4, 8] {
            let par = discover_bounded(
                r,
                &TaneConfig::default(),
                &Exec::unbounded().with_threads(threads),
            );
            assert_eq!(
                names(&serial.result),
                names(&par.result),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn shared_cache_reuses_partitions_across_runs() {
        let r = hotels_r5();
        let cache = PartitionCache::new();
        let first = discover_with_cache(&r, &TaneConfig::default(), &Exec::unbounded(), &cache);
        let warm = discover_with_cache(&r, &TaneConfig::default(), &Exec::unbounded(), &cache);
        let names = |res: &TaneResult| res.fds.iter().map(|f| f.to_string()).collect::<Vec<_>>();
        assert_eq!(names(&first.result), names(&warm.result));
        // The warm run found every partition it asked for in the cache...
        // except the intermediates the first run released level-by-level.
        assert!(warm.result.stats.cache_hits > 0);
        assert!(warm.result.stats.cache_misses <= first.result.stats.cache_misses);
    }

    #[test]
    fn empty_relation() {
        let r = Relation::empty(hotels_r5().schema().clone()).unwrap();
        let result = discover(&r, &TaneConfig::default());
        // Everything holds vacuously; TANE still terminates cleanly.
        assert!(result.fds.iter().all(|fd| fd.holds(&r)));
    }
}
