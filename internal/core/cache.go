package core

import (
	"hash/maphash"
	"sort"
	"sync"

	"turbosyn/internal/decomp"
	"turbosyn/internal/decomp/cachelog"
	"turbosyn/internal/obs"
)

// decompCache memoizes decomp.DecomposeEffort outcomes behind mutex-striped
// shards, so label workers running in parallel reuse each other's Roth-Karp
// results without serializing on one lock. A nil stored tree records a
// failed decomposition (also worth remembering — the window scans are the
// expensive part either way).
//
// Keys embed everything DecomposeEffort depends on — K, the depth budget, the
// bound-set priority order and the NPN-canonical cone function — so a cached
// value always equals what a fresh call would compute. That purity is what
// lets the cache be shared across workers, across feasibility probes, across
// the whole binary search, and (with Options.CacheDir) across runs without
// making results depend on execution order.
const decompCacheShards = 64

// decompEntry is one memoized DecomposeEffort outcome: the tree (nil = failure)
// plus whether the search was truncated by an effort budget. The degraded
// flag replays into Stats.Degradations on every hit, so budget accounting
// stays consistent whether the outcome was computed or cached. persisted
// marks entries that arrived from the cross-run log (hit accounting only;
// such entries are never degraded — degraded outcomes are never persisted).
type decompEntry struct {
	tree      *decomp.Tree
	degraded  bool
	persisted bool
}

// A decompCache outlives any single run — the Engine shares one across every
// probe of every run — so it carries no per-run state: hit/miss accounting
// goes to the counter set the caller passes into lookup.
type decompCache struct {
	seed   maphash.Seed
	log    *cachelog.Log // non-nil once openLog succeeded on a CacheDir
	shards [decompCacheShards]struct {
		mu sync.Mutex
		m  map[string]decompEntry
		// dirty lists keys stored since the last flush that the log does not
		// have yet (first store wins; degraded entries are never listed).
		// Drained by closeLog.
		dirty []string
	}
}

func newDecompCache() *decompCache {
	dc := &decompCache{seed: maphash.MakeSeed()}
	for i := range dc.shards {
		dc.shards[i].m = make(map[string]decompEntry)
	}
	return dc
}

func (dc *decompCache) shardFor(key string) int {
	return int(maphash.String(dc.seed, key) % decompCacheShards)
}

// lookup returns the cached outcome (entry.tree nil = cached failure) and
// whether the key was present, charging the hit/miss to the calling run's
// counter set.
func (dc *decompCache) lookup(key string, conc *counters) (decompEntry, bool) {
	sh := &dc.shards[dc.shardFor(key)]
	sh.mu.Lock()
	entry, ok := sh.m[key]
	sh.mu.Unlock()
	if ok {
		conc.cacheHits.Add(1)
		if entry.persisted {
			conc.cachePersisted.Add(1)
		}
	} else {
		conc.cacheMisses.Add(1)
	}
	return entry, ok
}

// store records a DecomposeEffort outcome (nil tree for failure). Concurrent
// stores for the same key are benign: DecomposeEffort is a pure function of the
// key — which embeds the effort budget — so both writers carry structurally
// identical values. When a persistent log is attached, first-seen
// non-degraded outcomes are queued for the shutdown flush; degraded ones
// never are (a truncated search is not worth replaying into runs that may
// carry different budgets in their keys anyway, and persisting them would
// replay their degradation accounting into unrelated runs).
func (dc *decompCache) store(key string, entry decompEntry) {
	sh := &dc.shards[dc.shardFor(key)]
	sh.mu.Lock()
	if _, exists := sh.m[key]; !exists && dc.log != nil && !entry.degraded {
		sh.dirty = append(sh.dirty, key)
	}
	sh.m[key] = entry
	sh.mu.Unlock()
}

// openLog attaches the persistent cross-run log when opts.CacheDir is set:
// it loads every valid entry into the shards (marked persisted) and keeps
// the log handle so closeLog can append this run's new outcomes. Failures
// are never fatal — a missing, corrupt or version-skewed log just means a
// cold cache. Called before any worker runs, on the public API entry path.
func (dc *decompCache) openLog(opts Options) {
	if opts.CacheDir == "" {
		return
	}
	instant := func(n int64, b int64) {
		if opts.Trace != nil {
			opts.Trace.NewRing("cache").Instant(obs.OpCacheLoad, n, b)
		}
	}
	lg, err := cachelog.Open(opts.CacheDir)
	if err != nil {
		if opts.Logger != nil {
			opts.Logger.Warn("decomp cache unavailable", "dir", opts.CacheDir, "err", err)
		}
		instant(0, -1)
		return
	}
	entries, err := lg.Load()
	if err != nil {
		// A real I/O error reading the log: start cold but keep the handle —
		// the flush may still succeed once the error clears.
		if opts.Logger != nil {
			opts.Logger.Warn("decomp cache load failed", "path", lg.Path(), "err", err)
		}
		dc.log = lg
		instant(0, -1)
		return
	}
	loaded := 0
	for _, e := range entries {
		sh := &dc.shards[dc.shardFor(e.Key)]
		sh.mu.Lock()
		if _, ok := sh.m[e.Key]; !ok {
			sh.m[e.Key] = decompEntry{tree: e.Tree, persisted: true}
			loaded++
		}
		sh.mu.Unlock()
	}
	dc.log = lg
	instant(int64(loaded), 0)
	if opts.Logger != nil {
		opts.Logger.Debug("decomp cache loaded", "path", lg.Path(), "entries", loaded)
	}
}

// closeLog appends this run's new non-degraded outcomes to the persistent
// log (no-op without one). Keys are flushed in sorted order, so the bytes a
// given set of outcomes appends are deterministic regardless of worker
// scheduling. Safe to call on every exit path: entries are pure functions of
// their keys, so persisting the partial work of an aborted run is sound.
func (dc *decompCache) closeLog(opts Options) {
	if dc.log == nil {
		return
	}
	var keys []string
	for i := range dc.shards {
		sh := &dc.shards[i]
		sh.mu.Lock()
		keys = append(keys, sh.dirty...)
		sh.dirty = nil
		sh.mu.Unlock()
	}
	sort.Strings(keys)
	entries := make([]cachelog.Entry, 0, len(keys))
	for _, k := range keys {
		sh := &dc.shards[dc.shardFor(k)]
		sh.mu.Lock()
		e := sh.m[k]
		sh.mu.Unlock()
		entries = append(entries, cachelog.Entry{Key: k, Tree: e.tree})
	}
	err := dc.log.Append(entries)
	if opts.Trace != nil {
		b := int64(0)
		if err != nil {
			b = -1
		}
		opts.Trace.NewRing("cache").Instant(obs.OpCacheFlush, int64(len(entries)), b)
	}
	if err != nil {
		if opts.Logger != nil {
			opts.Logger.Warn("decomp cache flush failed", "path", dc.log.Path(), "err", err)
		}
		return
	}
	if opts.Logger != nil {
		opts.Logger.Debug("decomp cache flushed", "path", dc.log.Path(), "entries", len(entries))
	}
}
