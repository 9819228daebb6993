package logic

import (
	"math/rand"
	"testing"
)

// TestComposePoolMatchesUnpooled: the pooled composition is the same
// pure function as the allocating one, for random tables across variable
// counts, and the pool ends each round holding every transient it issued
// (nothing leaks, nothing double-frees into visible corruption).
func TestComposePoolMatchesUnpooled(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var pool TTPool
	for round := 0; round < 200; round++ {
		k := 1 + rng.Intn(5)  // outer function arity
		nv := 1 + rng.Intn(9) // substitution variable count
		f := randTT(rng, k)
		subs := make([]*TT, k)
		for i := range subs {
			subs[i] = randTT(rng, nv)
		}
		want := f.Compose(subs, nil)
		got := f.Compose(subs, &pool)
		if !got.Equal(want) {
			t.Fatalf("round %d: pooled compose diverged\nwant %s\ngot  %s", round, want, got)
		}
		pool.Put(got)
	}
	if pool.Bytes() == 0 {
		t.Error("pool retained nothing after 200 rounds")
	}
}

// TestComposePreservesInputs: composition must not mutate the outer
// function or the substitutions, pooled or not.
func TestComposePreservesInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var pool TTPool
	f := randTT(rng, 4)
	subs := make([]*TT, 4)
	snap := make([]*TT, 4)
	for i := range subs {
		subs[i] = randTT(rng, 8)
		snap[i] = subs[i].Clone()
	}
	fsnap := f.Clone()
	got := f.Compose(subs, &pool)
	if !f.Equal(fsnap) {
		t.Error("Compose mutated the outer function")
	}
	for i := range subs {
		if !subs[i].Equal(snap[i]) {
			t.Errorf("Compose mutated substitution %d", i)
		}
	}
	pool.Put(got)
}

// TestTTPoolReuse: Get after Put returns the pooled table; nil pools
// degrade to allocation; Bytes tracks the freelist.
func TestTTPoolReuse(t *testing.T) {
	var pool TTPool
	a := pool.Get(8)
	if pool.Bytes() != 0 {
		t.Error("empty pool reports retained bytes")
	}
	pool.Put(a)
	if pool.Bytes() == 0 {
		t.Error("pool retains nothing after Put")
	}
	b := pool.Get(8)
	if a != b {
		t.Error("Get did not reuse the pooled table")
	}
	if c := pool.Get(8); c == a {
		t.Error("Get issued the same table twice")
	}
	var nilPool *TTPool
	if nilPool.Get(3) == nil {
		t.Error("nil pool Get returned nil")
	}
	nilPool.Put(NewTT(3)) // must not panic
	if nilPool.Bytes() != 0 {
		t.Error("nil pool reports bytes")
	}
}
