//! The compiled-query cache: repeated patterns skip lex/parse/DFA
//! compilation.
//!
//! Compiling a pattern (regex/`LIKE` → AST → NFA → containment DFA →
//! [`ScanKernel`](crate::kernel::ScanKernel)) is most of the cost of a
//! small repeated statement. The session keeps a bounded LRU of compiled
//! [`Query`]s keyed by `(pattern, dialect)` — the only [`QueryRequest`]
//! fields [`QueryRequest::compile`] reads — behind an `Arc`, so
//! concurrent executions share one DFA.
//!
//! An entry never goes stale: a `Query` is immutable and depends on no
//! stored row or registered index (the kernel's label memo lives in the
//! per-statement `ScanScratch`). The plan is *not* cached; the session
//! derives it again every statement, so an ingest or an index
//! registration is visible to the next statement and nothing here has
//! to be dropped for it.
//!
//! One `RwLock`'d map: a hit is a read lock, a lookup, an `Arc` clone and
//! a relaxed recency store; a miss compiles outside the lock and takes
//! the write lock to insert, evicting the globally least recently used
//! entry at capacity. The bound stays because patterns arrive over HTTP.
//! Errors are never cached — a failing pattern recompiles (and re-fails)
//! each time.

use crate::error::QueryError;
use crate::plan::{Dialect, QueryRequest};
use crate::query::Query;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

/// Compiled queries held per session.
const DEFAULT_QUERY_CACHE_CAPACITY: usize = 256;

/// The request fields compilation reads: pattern and dialect.
type CacheKey = (String, Dialect);

fn key_of(request: &QueryRequest) -> CacheKey {
    (request.pattern.clone(), request.dialect)
}

struct Entry {
    query: Arc<Query>,
    /// LRU recency, stored by hitters under the read lock.
    last_used: AtomicU64,
}

/// Cache effectiveness counters (monotonic over the session's lifetime).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct QueryCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Entries dropped to stay within capacity.
    pub evictions: u64,
    /// Entries currently held.
    pub len: usize,
    /// Maximum entries held.
    pub capacity: usize,
}

/// A bounded LRU of compiled queries. Internally synchronized; all
/// methods take `&self`.
pub(crate) struct QueryCache {
    map: RwLock<HashMap<CacheKey, Entry>>,
    capacity: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for QueryCache {
    fn default() -> QueryCache {
        QueryCache::with_capacity(DEFAULT_QUERY_CACHE_CAPACITY)
    }
}

impl QueryCache {
    fn with_capacity(capacity: usize) -> QueryCache {
        QueryCache {
            map: RwLock::new(HashMap::new()),
            capacity: capacity.max(1),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The compiled query for `request`: shared from the cache, or
    /// compiled (outside any lock) and inserted. Counts one lookup.
    pub(crate) fn get_or_compile(&self, request: &QueryRequest) -> Result<Arc<Query>, QueryError> {
        let key = key_of(request);
        if let Some(query) = self.get(&key) {
            return Ok(query);
        }
        let query = Arc::new(request.compile()?);
        self.insert(key, Arc::clone(&query));
        Ok(query)
    }

    fn get(&self, key: &CacheKey) -> Option<Arc<Query>> {
        let tick = self.tick.fetch_add(1, Relaxed) + 1;
        let found = self.map.read().get(key).map(|entry| {
            entry.last_used.store(tick, Relaxed);
            Arc::clone(&entry.query)
        });
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Relaxed);
        found
    }

    /// Insert a freshly compiled query, evicting the least recently used
    /// entry if the cache is full.
    fn insert(&self, key: CacheKey, query: Arc<Query>) {
        let last_used = AtomicU64::new(self.tick.fetch_add(1, Relaxed) + 1);
        let mut map = self.map.write();
        if map.len() >= self.capacity && !map.contains_key(&key) {
            let victim = map.iter().min_by_key(|(_, e)| e.last_used.load(Relaxed));
            let victim = victim.map(|(k, _)| k.clone()).expect("full, so non-empty");
            map.remove(&victim);
            self.evictions.fetch_add(1, Relaxed);
        }
        map.insert(key, Entry { query, last_used });
    }

    pub(crate) fn stats(&self) -> QueryCacheStats {
        QueryCacheStats {
            hits: self.hits.load(Relaxed),
            misses: self.misses.load(Relaxed),
            evictions: self.evictions.load(Relaxed),
            len: self.map.read().len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggregateFunc;
    use crate::exec::Approach;
    use crate::plan::PlanPreference;

    fn key(pattern: &str) -> CacheKey {
        key_of(&QueryRequest::keyword(pattern))
    }

    fn query(pattern: &str) -> Arc<Query> {
        Arc::new(Query::keyword(pattern).unwrap())
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let cache = QueryCache::with_capacity(4);
        assert!(cache.get(&key("president")).is_none());
        cache.insert(key("president"), query("president"));
        let hit = cache.get(&key("president")).expect("cached");
        assert_eq!(hit.pattern, "president");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.len), (1, 1, 1));
    }

    #[test]
    fn key_ignores_num_ans_and_min_prob_but_not_plan_inputs() {
        let base = QueryRequest::keyword("ford");
        // Execution parameters and plan inputs do not change what
        // compiles: one key.
        for same in [
            base.clone().num_ans(7).min_prob(0.5),
            base.clone().approach(Approach::Map),
            base.clone().parallelism(4),
            base.clone().plan_preference(PlanPreference::ForceFileScan),
            base.clone().aggregate(AggregateFunc::CountStar),
        ] {
            assert_eq!(key_of(&same), key_of(&base), "{same:?}");
        }
        // Pattern and dialect are what compiles: distinct keys.
        assert_ne!(
            key_of(&QueryRequest::like("ford")),
            key_of(&QueryRequest::regex("ford"))
        );
        assert_ne!(key_of(&QueryRequest::keyword("forde")), key_of(&base));
    }

    #[test]
    fn lru_eviction_respects_recency() {
        let cache = QueryCache::with_capacity(2);
        for pat in ["a", "b"] {
            cache.insert(key(pat), query(pat));
        }
        // Touch "a" so "b" is the LRU victim.
        assert!(cache.get(&key("a")).is_some());
        cache.insert(key("c"), query("c"));
        assert!(cache.get(&key("a")).is_some());
        assert!(cache.get(&key("b")).is_none(), "evicted");
        assert!(cache.get(&key("c")).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn concurrent_gets_and_inserts_keep_counts_exact() {
        let cache = std::sync::Arc::new(QueryCache::with_capacity(256));
        let patterns: Vec<String> = (0..32).map(|i| format!("pat{i}")).collect();
        std::thread::scope(|scope| {
            for t in 0..8usize {
                let cache = std::sync::Arc::clone(&cache);
                let patterns = patterns.clone();
                scope.spawn(move || {
                    for round in 0..64usize {
                        let pat = &patterns[(t * 7 + round) % patterns.len()];
                        if cache.get(&key(pat)).is_none() {
                            cache.insert(key(pat), query(pat));
                        }
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 8 * 64, "every get counted once");
        assert!(s.len <= 32);
        // Everything is cached now: 32 more gets, all hits.
        let before = cache.stats().hits;
        for pat in &patterns {
            assert!(cache.get(&key(pat)).is_some());
        }
        assert_eq!(cache.stats().hits, before + 32);
    }
}
