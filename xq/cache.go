package xq

import (
	"hash/maphash"
	"sync"

	"lopsided/internal/obs"
	"lopsided/internal/xquery/interp"
	"lopsided/internal/xquery/optimizer"
)

// The process-wide plan cache. Most embedders (the document generator, the
// AWB calculus, the CLIs) compile a small fixed set of programs and then
// evaluate them against many inputs — often from many goroutines. Caching
// the compiled plan makes repeat compilation a map hit.
//
// The key is the source text plus the option fingerprint that affects
// compilation: the optimizer level and the trace-effectfulness flag.
// Everything else in Options is runtime-only configuration (tracers,
// resolvers, limits, policies) and is applied per returned *Query, so
// callers with different runtime options still share one compiled plan.
//
// The cache is sharded: each shard is a plain map under its own mutex,
// selected by a hash of the source text. The batch generation path hits the
// cache once per phase per document from every worker; sharding keeps those
// lookups from serializing on one lock (and profiling showed the previous
// sync.Map paying interface-conversion and amortized-copy overhead on
// exactly this read-mostly workload).

type planKey struct {
	src            string
	optLevel       OptLevel
	traceEffectful bool
	noAccessPaths  bool
	noShapes       bool
	// update marks plans compiled through the update-sublanguage pipeline
	// (CompileUpdateCached); the same source text can legally exist as both
	// a query and an update program.
	update bool
}

// planEntry is one cache slot. The sync.Once makes concurrent first
// requests for the same key compile exactly once; the losers block until
// the winner finishes and then share its result.
type planEntry struct {
	once  sync.Once
	prog  *interp.Program
	stats optimizer.Stats
	err   error
}

const (
	// planCacheMaxEntries bounds the cache across all shards. When an
	// insertion pushes a shard past its share of the cap, eviction sweeps
	// arbitrary entries (map range order) down to ~7/8, so a host that
	// feeds unbounded user-supplied source through CompileCached degrades
	// to extra compiles instead of unbounded memory growth.
	planCacheMaxEntries = 1024
	planCacheShards     = 16
	planShardMaxEntries = planCacheMaxEntries / planCacheShards
)

type planShard struct {
	mu sync.Mutex
	m  map[planKey]*planEntry
}

var (
	planShards [planCacheShards]planShard
	planSeed   = maphash.MakeSeed()
)

func shardFor(key *planKey) *planShard {
	h := maphash.String(planSeed, key.src)
	// The compile-affecting option bits land in the shard choice too, so
	// the same source at two opt levels can spread across shards.
	h ^= uint64(key.optLevel) * 0x9e3779b97f4a7c15
	if key.traceEffectful {
		h ^= 0xd1b54a32d192ed03
	}
	if key.noAccessPaths {
		h ^= 0x2545f4914f6cdd1d
	}
	if key.noShapes {
		h ^= 0xbf58476d1ce4e5b9
	}
	if key.update {
		h ^= 0x94d049bb133111eb
	}
	return &planShards[h%planCacheShards]
}

// CompileCached is Compile backed by a process-wide concurrent plan cache.
// The compiled plan is keyed by the source text and the compile-affecting
// options (optimizer level, trace effectfulness); runtime options such as
// tracers, document resolvers, limits, and duplicate-attribute policies are
// applied to the returned *Query without affecting the shared plan.
//
// Compilation errors are cached too: recompiling a bad program is as cheap
// as recompiling a good one.
//
// The cache holds at most planCacheMaxEntries plans; past that, arbitrary
// entries are evicted (recompiling is always safe). EvalStats.PlanCacheHit
// and the process metrics record hit/miss/eviction traffic.
func CompileCached(src string, opts ...Option) (*Query, error) {
	return compileCached(src, opts, false)
}

// CompileUpdateCached is CompileUpdate backed by the same process-wide plan
// cache as CompileCached; update plans and query plans never collide even
// for identical source text.
func CompileUpdateCached(src string, opts ...Option) (*Query, error) {
	return compileCached(src, opts, true)
}

// compileCached is the shared cache lookup behind CompileCached and
// CompileUpdateCached; a miss runs compileModule.
func compileCached(src string, opts []Option, update bool) (*Query, error) {
	cfg := newConfig(opts)
	key := planKey{
		src:            src,
		optLevel:       cfg.optLevel,
		traceEffectful: cfg.traceIsEffectful,
		noAccessPaths:  cfg.noAccessPaths,
		noShapes:       cfg.noShapes,
		update:         update,
	}
	sh := shardFor(&key)
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[planKey]*planEntry)
	}
	e, ok := sh.m[key]
	if !ok {
		if len(sh.m) >= planShardMaxEntries {
			evictShardLocked(sh)
		}
		e = &planEntry{}
		sh.m[key] = e
	}
	sh.mu.Unlock()

	missed := false
	// Compilation runs outside the shard lock; concurrent first requests
	// serialize on the entry's Once, not on the shard.
	e.once.Do(func() {
		missed = true
		e.prog, e.stats, e.err = compileModule(src, cfg, update)
	})
	reg := obs.Default()
	if missed {
		reg.PlanCacheMisses.Add(1)
	} else {
		reg.PlanCacheHits.Add(1)
	}
	if e.err != nil {
		return nil, e.err
	}
	q := newQuery(e.prog, e.stats, cfg)
	q.cacheHit = !missed
	return q, nil
}

// evictShardLocked sweeps one full shard down to ~7/8 of its cap. Map range
// order is unspecified, so this is effectively random eviction — cheap, and
// correct for a cache whose entries can always be rebuilt.
func evictShardLocked(sh *planShard) {
	target := planShardMaxEntries - planShardMaxEntries/8
	reg := obs.Default()
	for k := range sh.m {
		if len(sh.m) <= target {
			break
		}
		delete(sh.m, k)
		reg.PlanCacheEvictions.Add(1)
	}
}

// CacheStats describes the process-wide plan cache: hit/miss/eviction
// traffic plus current occupancy. All fields are monotonic except Entries
// and SourceBytes, which are point-in-time. Safe to call concurrently with
// compilation.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	// Entries is the current number of cached plans, cached compile
	// failures included.
	Entries int64
	// SourceBytes is the total source-text length of the cached keys — a
	// proxy for the cache's memory footprint.
	SourceBytes int64
}

// PlanCache reports the plan cache's current statistics. The traffic
// counters are the process registry's (MetricsSnapshot's PlanCache*).
func PlanCache() CacheStats {
	reg := obs.Default()
	st := CacheStats{
		Hits:      reg.PlanCacheHits.Load(),
		Misses:    reg.PlanCacheMisses.Load(),
		Evictions: reg.PlanCacheEvictions.Load(),
	}
	for i := range planShards {
		sh := &planShards[i]
		sh.mu.Lock()
		for k := range sh.m {
			st.Entries++
			st.SourceBytes += int64(len(k.src))
		}
		sh.mu.Unlock()
	}
	return st
}
