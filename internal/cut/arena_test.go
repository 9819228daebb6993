package cut

import (
	"math/rand"
	"reflect"
	"testing"

	"turbosyn/internal/expand"
	"turbosyn/internal/logic"
	"turbosyn/internal/netlist"
)

// TestArenaMatchesOneShot: a reused Arena must reproduce a fresh Arena's
// one-shot KCut exactly — same verdict, same cut replicas, same cone order — across many
// random expansions and k values.
func TestArenaMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a := &Arena{}
	for trial := 0; trial < 60; trial++ {
		c := netlist.NewCircuit("am")
		pi := c.AddPI("x")
		ids := []int{pi}
		var gates []int
		n := 5 + rng.Intn(18)
		for i := 0; i < n; i++ {
			nf := 1 + rng.Intn(2)
			fanins := make([]netlist.Fanin, nf)
			for j := range fanins {
				fanins[j] = netlist.Fanin{From: ids[rng.Intn(len(ids))], Weight: rng.Intn(2)}
			}
			fn := logic.Buf()
			if nf == 2 {
				fn = logic.AndAll(2)
			}
			id := c.AddGate("", fn, fanins...)
			ids = append(ids, id)
			gates = append(gates, id)
		}
		c.InvalidateCaches()
		c.AddPO("z", gates[len(gates)-1], 0)
		if c.Check() != nil {
			continue
		}
		labels := make([]int, c.NumNodes())
		for _, nd := range c.Nodes {
			if nd.Kind == netlist.Gate {
				labels[nd.ID] = 1 + rng.Intn(3)
			}
		}
		v := gates[rng.Intn(len(gates))]
		x, ok := (&expand.Builder{}).Build(c, v, labels, 1, rng.Intn(3), expand.Options{LowDepth: rng.Intn(3)})
		if !ok {
			continue
		}
		k := 1 + rng.Intn(5)
		want, okW := (&Arena{}).KCut(x, k)
		got, okG := a.KCut(x, k)
		if okW != okG {
			t.Fatalf("trial %d: arena ok=%v, one-shot ok=%v", trial, okG, okW)
		}
		if !okW {
			continue
		}
		if len(got.Cut) != len(want.Cut) || len(got.Cone) != len(want.Cone) {
			t.Fatalf("trial %d: cut/cone sizes %d/%d, want %d/%d",
				trial, len(got.Cut), len(got.Cone), len(want.Cut), len(want.Cone))
		}
		for i := range want.Cut {
			if got.Cut[i] != want.Cut[i] {
				t.Fatalf("trial %d: cut[%d] = %d, want %d", trial, i, got.Cut[i], want.Cut[i])
			}
		}
		for i := range want.Cone {
			if got.Cone[i] != want.Cone[i] {
				t.Fatalf("trial %d: cone[%d] = %d, want %d", trial, i, got.Cone[i], want.Cone[i])
			}
		}
		checkConeParents(t, x, got)
	}
}

// checkConeParents asserts the Parent contract: the root has no parent, and
// every other cone entry is a fanin of an earlier entry, its parent.
func checkConeParents(t *testing.T, x *expand.Expanded, res *Result) {
	t.Helper()
	if len(res.Parent) != len(res.Cone) || res.Parent[0] != -1 {
		t.Fatalf("parents %v for cone %v", res.Parent, res.Cone)
	}
	for i := 1; i < len(res.Cone); i++ {
		p := res.Parent[i]
		if p < 0 || p >= i {
			t.Fatalf("cone[%d]: parent position %d is not earlier", i, p)
		}
		found := false
		for _, f := range x.Fanins[res.Cone[p]] {
			found = found || f == res.Cone[i]
		}
		if !found {
			t.Fatalf("cone[%d] = %d is not a fanin of its parent %d", i, res.Cone[i], res.Cone[p])
		}
	}
}

// TestWarmArenaZeroAlloc pins the acceptance property: a warm Arena answers
// a KCut check with zero heap allocation.
func TestWarmArenaZeroAlloc(t *testing.T) {
	x, _, _ := andTreeExpansion(t, 100)
	a := &Arena{}
	check := func() {
		if _, ok := a.KCut(x, 4); !ok {
			t.Fatal("4-cut must exist")
		}
		if _, ok := a.KCut(x, 2); ok {
			t.Fatal("2-cut must not exist")
		}
	}
	check() // warm up
	if allocs := testing.AllocsPerRun(100, check); allocs != 0 {
		t.Fatalf("warm Arena.KCut allocates %.1f objects/run, want 0", allocs)
	}
}

// TestArenaBytesCountsEveryArray: Bytes must charge the capacity of every
// slice the Arena retains, so arena high-water accounting and the byte
// budget see all of it.
func TestArenaBytesCountsEveryArray(t *testing.T) {
	x, _, _ := andTreeExpansion(t, 100)
	a := &Arena{}
	if _, ok := a.KCut(x, 4); !ok {
		t.Fatal("4-cut must exist")
	}
	want := 0
	var sum func(v reflect.Value)
	sum = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); f.Kind() {
			case reflect.Slice:
				want += f.Cap() * int(f.Type().Elem().Size())
			case reflect.Struct:
				sum(f)
			}
		}
	}
	sum(reflect.ValueOf(a).Elem())
	if got := a.Bytes(); got != want || want == 0 {
		t.Fatalf("Bytes() = %d, retained slices hold %d bytes", got, want)
	}
}
