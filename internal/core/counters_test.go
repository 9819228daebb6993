package core

import (
	"sync"
	"testing"
)

// TestConcurrencyCountersUnderContention hammers one counter set from many
// goroutines the way a parallel run writes it: sums must be exact and
// peaks must be the maximum any goroutine reported.
func TestConcurrencyCountersUnderContention(t *testing.T) {
	var c counters
	const workers = 16
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			raise(&c.workers, w+1)
			for i := 0; i < perWorker; i++ {
				c.tasks.Add(1)
				if i%2 == 0 {
					c.cacheHits.Add(1)
				} else {
					c.cacheMisses.Add(1)
				}
			}
			c.inlineTasks.Add(1)
			gauge(&c.queueDepth, &c.queueDepthPeak, w)
			raise(&c.busyPeak, w+1)
			c.probesLaunched.Add(1)
		}()
	}
	wg.Wait()
	var st Stats
	c.fold(&st)
	if st.Workers != workers {
		t.Errorf("Workers = %d, want high-water mark %d", st.Workers, workers)
	}
	if st.ParallelTasks != workers*perWorker {
		t.Errorf("ParallelTasks = %d, want %d", st.ParallelTasks, workers*perWorker)
	}
	if st.CacheShardHits+st.CacheShardMisses != workers*perWorker {
		t.Errorf("cache traffic %d+%d, want %d", st.CacheShardHits, st.CacheShardMisses, workers*perWorker)
	}
	if st.InlineTasks != workers || st.ProbesLaunched != workers {
		t.Errorf("inline/probes = %d/%d, want %d each", st.InlineTasks, st.ProbesLaunched, workers)
	}
	if st.QueueDepthPeak != workers-1 {
		t.Errorf("QueueDepthPeak = %d, want high-water mark %d", st.QueueDepthPeak, workers-1)
	}
	if st.WorkerOccupancy != workers {
		t.Errorf("WorkerOccupancy = %d, want high-water mark %d", st.WorkerOccupancy, workers)
	}
}

// TestWorkersCounterIsHighWaterMark: a narrower probe after a wider one leaves
// the widest pool in place, and folding keeps the larger of the two sides.
func TestWorkersCounterIsHighWaterMark(t *testing.T) {
	var c counters
	raise(&c.workers, 8)
	raise(&c.workers, 2)
	st := Stats{Workers: 3}
	c.fold(&st)
	if st.Workers != 8 {
		t.Fatalf("Workers = %d, want 8", st.Workers)
	}
}
