//! Cross-round featurization cache for the tuning hot loop.
//!
//! A config's feature vector is a pure function of `(space, config)` — it
//! never changes over a campaign — yet the pre-cache tuners recomputed it
//! from the factorization lattice on every surrogate fit *and* every
//! batch prediction. [`FeatureCache`] memoizes rows behind the space's
//! [`flat_index`](glimpse_space::SearchSpace::flat_index) bijection so each
//! config is featurized exactly once per campaign, however many times the
//! fit/predict/acquisition paths revisit it.
//!
//! Rows are shared as `Arc<[f64]>`: a hit hands back a pointer clone, and
//! the GBT training/prediction APIs accept `AsRef<[f64]>` rows, so cached
//! features flow into [`glimpse_mlkit::gbt::Gbt::fit`] without copying the
//! matrix.
//!
//! **Determinism contract:** the cache is *derived state* — a memo of a
//! pure function keyed by a `BTreeMap` (D2) — so it is never journaled and
//! never influences results, only their cost. Replayed and resumed runs
//! issue the same lookups in the same order, which also makes the hit/miss
//! counters reproducible. The per-step SA proposal stream is deliberately
//! *not* routed through the cache: those configs are rarely revisited, so
//! caching them would grow memory without paying for the lock traffic.

use glimpse_mlkit::parallel::{parallel_map, Threads};
use glimpse_space::{Config, SearchSpace};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Minimum batch size before miss featurization fans out across workers
/// (same threshold the cost model used before the cache existed).
const PARALLEL_FEATURIZE_ROWS: usize = 64;

pub(crate) fn featurize_threads(rows: usize) -> Threads {
    if rows >= PARALLEL_FEATURIZE_ROWS {
        Threads::AUTO
    } else {
        Threads::fixed(1)
    }
}

/// Hit/miss counters and current size of a [`FeatureCache`], surfaced in
/// tuning diagnostics and the throughput harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to featurize.
    pub misses: u64,
    /// Distinct configs currently cached.
    pub entries: usize,
}

impl CacheStats {
    /// Total lookups.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from the cache (0 when never queried).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

/// Deterministic memo of `space.features(config)` keyed by the space's
/// mixed-radix config index. See the module docs for the contract.
#[derive(Debug, Default)]
pub struct FeatureCache {
    rows: Mutex<BTreeMap<u128, Arc<[f64]>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl FeatureCache {
    /// Empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The feature row of `config`, featurizing on first sight.
    #[must_use]
    pub fn row(&self, space: &SearchSpace, config: &Config) -> Arc<[f64]> {
        let key = space.flat_index(config);
        if let Some(row) = self.rows.lock().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(row);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let fresh: Arc<[f64]> = Arc::from(space.features(config));
        Arc::clone(self.rows.lock().entry(key).or_insert(fresh))
    }

    /// Feature rows for a batch of configs, in input order. Hits are
    /// resolved under one lock acquisition; misses are featurized in
    /// parallel (outside the lock) and inserted afterwards, so the values
    /// are identical to mapping [`FeatureCache::row`] in order.
    // Every slot is either filled on the hit pass or listed in `miss_at` and
    // filled on the miss pass.
    #[must_use]
    pub fn rows_batch<'a, I>(&self, space: &SearchSpace, configs: I) -> Vec<Arc<[f64]>>
    where
        I: IntoIterator<Item = &'a Config>,
    {
        let configs: Vec<&Config> = configs.into_iter().collect();
        let keys: Vec<u128> = configs.iter().map(|c| space.flat_index(c)).collect();
        let mut out: Vec<Option<Arc<[f64]>>> = vec![None; configs.len()];
        let mut miss_at: Vec<usize> = Vec::new();
        {
            let rows = self.rows.lock();
            for (i, key) in keys.iter().enumerate() {
                match rows.get(key) {
                    Some(row) => out[i] = Some(Arc::clone(row)),
                    None => miss_at.push(i),
                }
            }
        }
        self.hits.fetch_add((configs.len() - miss_at.len()) as u64, Ordering::Relaxed);
        self.misses.fetch_add(miss_at.len() as u64, Ordering::Relaxed);
        if !miss_at.is_empty() {
            let fresh = parallel_map(featurize_threads(miss_at.len()), &miss_at, |_, &i| -> Arc<[f64]> {
                Arc::from(space.features(configs[i]))
            });
            let mut rows = self.rows.lock();
            for (&i, row) in miss_at.iter().zip(fresh) {
                // A duplicate config within the batch featurizes twice but
                // keeps the first inserted row; the values are identical.
                out[i] = Some(Arc::clone(rows.entry(keys[i]).or_insert(row)));
            }
        }
        out.into_iter()
            .map(|r| r.expect("every slot is a hit or a resolved miss"))
            .collect()
    }

    /// Current hit/miss counters and entry count.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.rows.lock().len(),
        }
    }

    /// Drops every cached row and zeroes the counters (used when a model
    /// is re-targeted at a fresh campaign).
    pub fn clear(&self) {
        self.rows.lock().clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

impl Clone for FeatureCache {
    /// Clones the memo (pointer clones per row) and the counters, so a
    /// cloned model keeps the same diagnostics trajectory.
    fn clone(&self) -> Self {
        Self {
            rows: Mutex::new(self.rows.lock().clone()),
            hits: AtomicU64::new(self.hits.load(Ordering::Relaxed)),
            misses: AtomicU64::new(self.misses.load(Ordering::Relaxed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glimpse_space::templates;
    use glimpse_tensor_prog::models;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> SearchSpace {
        let model = models::alexnet();
        templates::space_for_task(&model.tasks()[2])
    }

    #[test]
    fn row_matches_fresh_featurization() {
        let s = space();
        let cache = FeatureCache::new();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let c = s.sample_uniform(&mut rng);
            assert_eq!(cache.row(&s, &c).as_ref(), s.features(&c).as_slice());
        }
    }

    #[test]
    fn second_lookup_hits_and_shares_the_row() {
        let s = space();
        let cache = FeatureCache::new();
        let mut rng = StdRng::seed_from_u64(2);
        let c = s.sample_uniform(&mut rng);
        let first = cache.row(&s, &c);
        let second = cache.row(&s, &c);
        assert!(Arc::ptr_eq(&first, &second), "hit must share the cached row");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2 - 1, 1));
    }

    #[test]
    fn batch_matches_scalar_lookups_and_counts_once_per_config() {
        let s = space();
        let cache = FeatureCache::new();
        let reference = FeatureCache::new();
        let mut rng = StdRng::seed_from_u64(3);
        let configs: Vec<Config> = (0..150).map(|_| s.sample_uniform(&mut rng)).collect();
        let batch = cache.rows_batch(&s, &configs);
        for (c, row) in configs.iter().zip(&batch) {
            assert_eq!(row.as_ref(), reference.row(&s, c).as_ref());
        }
        // Second pass over the same configs: all hits.
        let before = cache.stats();
        let again = cache.rows_batch(&s, &configs);
        let after = cache.stats();
        assert_eq!(after.misses, before.misses, "revisit must not featurize");
        assert_eq!(after.hits, before.hits + configs.len() as u64);
        for (a, b) in batch.iter().zip(&again) {
            assert!(Arc::ptr_eq(a, b));
        }
    }

    #[test]
    fn clear_resets_rows_and_counters() {
        let s = space();
        let cache = FeatureCache::new();
        let mut rng = StdRng::seed_from_u64(4);
        let configs: Vec<Config> = (0..10).map(|_| s.sample_uniform(&mut rng)).collect();
        let _ = cache.rows_batch(&s, &configs);
        cache.clear();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
    }

    #[test]
    fn clone_preserves_rows_and_counters() {
        let s = space();
        let cache = FeatureCache::new();
        let mut rng = StdRng::seed_from_u64(5);
        let c = s.sample_uniform(&mut rng);
        let _ = cache.row(&s, &c);
        let cloned = cache.clone();
        assert_eq!(cloned.stats(), cache.stats());
        let row = cloned.row(&s, &c);
        assert_eq!(row.as_ref(), s.features(&c).as_slice());
        assert_eq!(cloned.stats().hits, cache.stats().hits + 1);
    }

    #[test]
    fn hit_rate_is_zero_when_never_queried() {
        let stats = FeatureCache::new().stats();
        assert_eq!(stats.hit_rate(), 0.0);
        assert_eq!(stats.lookups(), 0);
    }
}
