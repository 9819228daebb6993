package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"turbosyn/internal/bench"
	"turbosyn/internal/decomp"
	"turbosyn/internal/logic"
	"turbosyn/internal/netlist"
)

// goldenCase is one circuit/configuration of the equivalence matrix. The
// generators are deterministic in their seed, so the sequential run defines
// a golden result the parallel runs must reproduce bit-for-bit.
type goldenCase struct {
	name      string
	k         int
	decompose bool
	build     func() *netlist.Circuit
}

func fsmCircuit(seed int64, bits, cubes int) func() *netlist.Circuit {
	return func() *netlist.Circuit {
		rng := rand.New(rand.NewSource(seed))
		return bench.FSM(rng, fmt.Sprintf("fsm_s%d", seed), bench.FSMSpec{
			StateBits: bits, Inputs: 4, Outputs: 3, Cubes: cubes, Span: 5,
		})
	}
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{"fsm_s1_k4_syn", 4, true, fsmCircuit(1, 6, 4)},
		{"fsm_s2_k5_syn", 5, true, fsmCircuit(2, 7, 4)},
		{"fsm_s3_k6_syn", 6, true, fsmCircuit(3, 6, 5)},
		{"fsm_s2_k5_map", 5, false, fsmCircuit(2, 7, 4)},
		{"acc12_k5_syn", 5, true, func() *netlist.Circuit {
			return bench.Accumulator("acc12", 12, []int{3, 7})
		}},
		{"lfsr16_k4_syn", 4, true, func() *netlist.Circuit {
			return bench.LFSR("lfsr16", 16, []int{2, 9, 13})
		}},
	}
}

func blifBytes(t *testing.T, c *netlist.Circuit) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := netlist.WriteBLIF(&buf, c); err != nil {
		t.Fatalf("WriteBLIF: %v", err)
	}
	return buf.Bytes()
}

// TestParallelMatchesSequentialGolden is the determinism contract of
// Options.Workers: for every circuit, K and algorithm, the parallel engine
// (dataflow-scheduled label sweeps, shared sharded cache, every probe on
// the whole pool) must return the exact result of the sequential reference — same
// phi, same converged labels, same LUT count, and a byte-identical mapped
// netlist.
func TestParallelMatchesSequentialGolden(t *testing.T) {
	fenceGoroutines(t)
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.build()
			if err := c.Check(); err != nil {
				t.Fatal(err)
			}
			opts := DefaultOptions()
			opts.K = tc.k
			opts.Decompose = tc.decompose
			if !c.IsKBounded(tc.k) {
				var err error
				if c, err = decomp.KBound(c, tc.k); err != nil {
					t.Fatal(err)
				}
			}
			want := reference(t, c, opts)

			pools := []int{2, 4}
			if testing.Short() {
				pools = pools[1:]
			}
			for _, workers := range pools {
				opts.Workers = workers
				got, err := Minimize(c, opts)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				checkMatchesReference(t, fmt.Sprintf("workers=%d", workers), got, want)
			}
		})
	}
}

// TestFeasibleParallelMatchesSequential covers the single-probe entry point
// across feasible and infeasible targets: sequential and parallel verdicts
// must both be the reference's (feasible exactly from its phi upward).
func TestFeasibleParallelMatchesSequential(t *testing.T) {
	fenceGoroutines(t)
	c := fsmCircuit(4, 8, 4)()
	opts := DefaultOptions()
	if !c.IsKBounded(opts.K) {
		var err error
		if c, err = decomp.KBound(c, opts.K); err != nil {
			t.Fatal(err)
		}
	}
	ref := reference(t, c, opts)
	for phi := 1; phi <= 4; phi++ {
		for _, workers := range []int{1, 4} {
			opts.Workers = workers
			got, _, err := Feasible(c, phi, opts)
			if err != nil {
				t.Fatal(err)
			}
			if want := phi >= ref.Phi; got != want {
				t.Errorf("phi=%d workers=%d: verdict %v, reference %v", phi, workers, got, want)
			}
		}
	}
}

// TestSchedulerStressRandom hammers the dataflow scheduler (run under -race
// via the CI race job): randomized FSM circuits, probes across the
// feasibility boundary and worker counts {2, 8, GOMAXPROCS}, each checked
// for a verdict identical to the reference probe (sequential, full sweeps,
// cold) and — on feasible probes — bit-identical converged labels.
// Infeasible probes abort mid-iteration, so their intermediate labels
// legitimately depend on scheduling; only their verdict is pinned.
func TestSchedulerStressRandom(t *testing.T) {
	fenceGoroutines(t)
	workerPools := identityWorkerPools()[1:]
	seeds := []int64{11, 12, 13, 14}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("fsm_s%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			c := bench.FSM(rng, fmt.Sprintf("stress_s%d", seed), bench.FSMSpec{
				StateBits: 6, Inputs: 4, Outputs: 3, Cubes: 4, Span: 5,
			})
			base := DefaultOptions()
			if !c.IsKBounded(base.K) {
				var err error
				if c, err = decomp.KBound(c, base.K); err != nil {
					t.Fatal(err)
				}
			}
			// One cache and counter set per circuit: the cache is keyed on
			// full Decompose inputs, so sharing it across configurations
			// cannot change any result.
			conc := &counters{}
			cache := newDecompCache()
			probe := func(phi, workers int, fullSweep bool) (bool, []int) {
				opts := base
				opts.Workers = workers
				s := newState(c, phi, opts)
				s.fullSweep = fullSweep
				s.cache, s.conc = cache, conc
				ok, err := s.run()
				if err != nil {
					t.Fatalf("phi=%d workers=%d: unexpected run error: %v", phi, workers, err)
				}
				return ok, s.labels
			}
			for phi := 1; phi <= 4; phi++ {
				wantOK, wantLabels := probe(phi, 1, true)
				for _, workers := range workerPools {
					gotOK, gotLabels := probe(phi, workers, false)
					if gotOK != wantOK {
						t.Fatalf("phi=%d workers=%d: verdict %v, reference %v",
							phi, workers, gotOK, wantOK)
					}
					if !gotOK {
						continue
					}
					for id := range wantLabels {
						if gotLabels[id] != wantLabels[id] {
							t.Fatalf("phi=%d workers=%d: label[%d] = %d, reference %d",
								phi, workers, id, gotLabels[id], wantLabels[id])
						}
					}
				}
			}
		})
	}
}

// TestDecompCacheConcurrentStress hammers the sharded decomposition cache
// from many goroutines with overlapping keys (run under -race via the CI
// race job). Keys mix distinct functions, depth budgets and priority orders;
// values mix real decomposition trees and cached failures (nil). After the
// storm every key must be present, and the counters must account for every
// lookup exactly once.
func TestDecompCacheConcurrentStress(t *testing.T) {
	conc := &counters{}
	cache := newDecompCache()

	type entry struct {
		key string
		val decompEntry
	}
	var entries []entry
	prios := [][]int{{0, 1, 2, 3, 4, 5}, {5, 4, 3, 2, 1, 0}, {2, 0, 3, 1, 5, 4}}
	for nvar := 4; nvar <= 6; nvar++ {
		for fi, fn := range []*logic.TT{logic.AndAll(nvar), logic.XorAll(nvar), logic.OrAll(nvar)} {
			for depth := 1; depth <= 3; depth++ {
				for pi, prio := range prios {
					p := prio[:nvar]
					var tree *decomp.Tree
					if (fi+depth+pi)%2 == 0 {
						tree, _, _ = decomp.DecomposeEffort(fn, 3, depth+1, p, decomp.Effort{})
					}
					entries = append(entries, entry{decompKey(3, depth, p, fn, decomp.Effort{}), decompEntry{tree: tree}})
				}
			}
		}
	}

	const (
		goroutines = 16
		rounds     = 200
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				e := entries[(g*rounds+r)%len(entries)]
				if got, ok := cache.lookup(e.key, conc); ok {
					if got.tree != nil && len(got.tree.Nodes) == 0 {
						t.Errorf("key %q: corrupt cached tree", e.key)
						return
					}
				} else {
					cache.store(e.key, e.val)
				}
			}
		}(g)
	}
	wg.Wait()

	for _, e := range entries {
		if _, ok := cache.lookup(e.key, conc); !ok {
			t.Errorf("key %q missing after stress", e.key)
		}
	}
	hits, misses := int(conc.cacheHits.Load()), int(conc.cacheMisses.Load())
	lookups := goroutines*rounds + len(entries)
	if hits+misses != lookups {
		t.Errorf("hits %d + misses %d != lookups %d", hits, misses, lookups)
	}
	if misses < len(entries) {
		t.Errorf("misses %d cannot be below distinct keys %d", misses, len(entries))
	}
}
