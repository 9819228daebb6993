package core

import (
	"math/rand"
	"reflect"
	"testing"

	"turbosyn/internal/cut"
	"turbosyn/internal/expand"
	"turbosyn/internal/logic"
	"turbosyn/internal/netlist"
)

// composeCone is the definition coneFunction must meet: the cone's function
// over the cut signals, built by composing every interior gate's table with
// its fanins' functions (logic.TT.Compose), memoized per replica.
func composeCone(c *netlist.Circuit, x *expand.Expanded, res *cut.Result) *logic.TT {
	m := len(res.Cut)
	memo := make(map[int]*logic.TT)
	for j, id := range res.Cut {
		memo[id] = logic.Var(m, j)
	}
	var eval func(id int) *logic.TT
	eval = func(id int) *logic.TT {
		if tt, ok := memo[id]; ok {
			return tt
		}
		fn := c.Nodes[x.Nodes[id].Orig].Func
		var tt *logic.TT
		if fn.NumVars() == 0 {
			_, v := fn.IsConst()
			tt = logic.Const(m, v)
		} else {
			subs := make([]*logic.TT, len(x.Fanins[id]))
			for i, ch := range x.Fanins[id] {
				subs[i] = eval(ch)
			}
			tt = fn.Compose(subs)
		}
		memo[id] = tt
		return tt
	}
	return eval(expand.Root)
}

// randomCut draws a cut of x: walking back from the root, each replica met
// for the first time joins the cone (when it can: a gate whose fanins are
// all expanded) or the cut, as next decides. It returns false when the cut
// is wider than a truth table can range over.
func randomCut(c *netlist.Circuit, x *expand.Expanded, next func(int) int) (*cut.Result, bool) {
	res := &cut.Result{Cone: []int{expand.Root}, Parent: []int{-1}}
	seen := map[int]bool{expand.Root: true}
	for qi := 0; qi < len(res.Cone); qi++ {
		for _, ch := range x.Fanins[res.Cone[qi]] {
			if seen[ch] {
				continue
			}
			seen[ch] = true
			orig := c.Nodes[x.Nodes[ch].Orig]
			interior := orig.Kind == netlist.Gate && len(x.Fanins[ch]) == len(orig.Fanins)
			if interior && next(3) > 0 {
				res.Cone = append(res.Cone, ch)
				res.Parent = append(res.Parent, qi)
			} else {
				res.Cut = append(res.Cut, ch)
			}
		}
	}
	return res, len(res.Cut) <= logic.MaxVars
}

// coneCircuit is fuzzCircuit with arbitrary gate functions: constants,
// buffers, inverters and random tables of up to k inputs, so every compiled
// kernel appears in the cones.
func coneCircuit(next func(int) int, k int) *netlist.Circuit {
	c := fuzzCircuit(next, k)
	for _, n := range c.Nodes {
		if n.Kind != netlist.Gate {
			continue
		}
		fn := logic.NewTT(len(n.Fanins))
		switch next(4) {
		case 0: // a buffer of one fanin
			fn.SetVar(next(len(n.Fanins)))
		case 1: // an inverter of one fanin
			fn.Not(fn.SetVar(next(len(n.Fanins))))
		default:
			for i := 0; i < fn.NumBits(); i++ {
				fn.SetBit(i, next(2) == 1)
			}
		}
		n.Func = fn
	}
	return c
}

// coneOracle checks coneFunction against composeCone on every gate of c:
// on the resynthesis cut KCut finds at width cmax and on random cuts, with
// one arena reused throughout.
func coneOracle(t *testing.T, c *netlist.Circuit, phi, k int, next func(int) int) {
	t.Helper()
	opts := witnessOpts(true, k, 0)
	s := newState(c, phi, opts)
	if _, err := s.run(); err != nil {
		t.Fatal(err)
	}
	ar := s.arenaFor(0)
	var ca cut.Arena
	check := func(x *expand.Expanded, res *cut.Result) {
		t.Helper()
		got, reps := s.coneFunction(x, res, ar)
		if want := composeCone(c, x, res); !got.Equal(want) {
			t.Fatalf("cone of %d replicas over %d cut signals: simulated %s, composed %s",
				len(res.Cone), len(res.Cut), got, want)
		}
		for j, id := range res.Cut {
			if reps[j] != (Replica{Orig: x.Nodes[id].Orig, W: x.Nodes[id].W}) {
				t.Fatalf("replica %d is %+v, cut replica %d", j, reps[j], id)
			}
		}
	}
	for _, n := range c.Nodes {
		if n.Kind != netlist.Gate || len(n.Fanins) == 0 {
			continue
		}
		var xb expand.Builder
		x, ok := xb.Build(c, n.ID, s.labels, phi, s.computeL(n.ID)-next(2), expand.Options{MaxNodes: opts.MaxExpand})
		if !ok {
			continue
		}
		if res, ok := ca.KCut(x, cmax); ok {
			check(x, res)
		}
		for i := 0; i < 3; i++ {
			if res, ok := randomCut(c, x, next); ok {
				check(x, res)
			}
		}
	}
}

// rngBytes returns n bytes drawn from seed, input for byteSource.
func rngBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// TestConeFunctionMatchesCompose runs the cone oracle on seeded random
// circuits.
func TestConeFunctionMatchesCompose(t *testing.T) {
	for seed := 0; seed < 40; seed++ {
		src := byteSource(rngBytes(int64(seed), 256))
		c := coneCircuit(src.intn, 4+seed%2)
		if c.Check() != nil {
			continue
		}
		coneOracle(t, c, 1+seed%3, 4+seed%2, src.intn)
	}
}

// FuzzConeFunction drives the cone oracle from arbitrary bytes: they pick K
// and phi, shape the circuit and its gate functions, and draw the cuts.
func FuzzConeFunction(f *testing.F) {
	f.Add([]byte{1, 2, 2, 0, 6, 2, 1, 1, 3, 0, 2, 2, 1, 4, 4, 3, 0, 3, 1, 2, 5, 0, 1})
	f.Add([]byte("000000000000000107020200120002X2X01111000"))
	f.Add(rngBytes(7, 200))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := byteSource(data)
		k := 4 + src.intn(2)
		phi := 1 + src.intn(3)
		c := coneCircuit(src.intn, k)
		if c.Check() != nil {
			return
		}
		coneOracle(t, c, phi, k, src.intn)
	})
}

// TestWarmConeFunctionAllocs: on a warm arena, coneFunction allocates only
// what it returns — the root table (its header and words) and the replica
// list.
func TestWarmConeFunctionAllocs(t *testing.T) {
	c := fsmCircuit(2, 7, 4)()
	opts := witnessOpts(true, 5, 0)
	s := newState(c, 2, opts)
	if _, err := s.run(); err != nil {
		t.Fatal(err)
	}
	ar := s.arenaFor(0)
	var ca cut.Arena
	var xb expand.Builder
	checked := 0
	for _, n := range c.Nodes {
		if n.Kind != netlist.Gate || len(n.Fanins) == 0 {
			continue
		}
		x, ok := xb.Build(c, n.ID, s.labels, 2, s.computeL(n.ID)-1, expand.Options{MaxNodes: opts.MaxExpand})
		if !ok {
			continue
		}
		res, ok := ca.KCut(x, cmax)
		if !ok || len(res.Cone) < 3 {
			continue
		}
		s.coneFunction(x, res, ar) // warm the arena for this cone
		if allocs := testing.AllocsPerRun(10, func() { s.coneFunction(x, res, ar) }); allocs != 3 {
			t.Fatalf("warm coneFunction on %d replicas allocates %.1f objects/run, want 3", len(res.Cone), allocs)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no cone of three or more replicas to check")
	}
}

// TestArenaBytesCountsEveryArray: bytes must charge the capacity of every
// slice the arena retains, so ArenaPeakBytes and ArenaByteBudget see all
// of it. The builder and the cut arena report their own footprints (pinned
// by their packages' tests), and the NPN memo is charged per entry.
func TestArenaBytesCountsEveryArray(t *testing.T) {
	c := fsmCircuit(2, 7, 4)()
	s := newState(c, 1, witnessOpts(true, 5, 3))
	if _, err := s.run(); err != nil {
		t.Fatal(err)
	}
	ar := s.arenaFor(0)
	s.sccIsolated(0, ar) // the run hits no positive-loop check
	want := ar.xb.Bytes() + ar.ca.Bytes() + len(ar.npnMemo)*npnEntryBytes
	v := reflect.ValueOf(ar).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch name := v.Type().Field(i).Name; {
		case f.Kind() == reflect.Slice:
			if f.Cap() == 0 {
				t.Errorf("arena.%s was never grown; the check cannot see it counted", name)
			}
			want += f.Cap() * int(f.Type().Elem().Size())
		case name == "xb" || name == "ca" || name == "npnMemo":
		case f.Kind() == reflect.Map || f.Kind() == reflect.Struct:
			t.Errorf("arena.%s retains memory that bytes does not charge", name)
		}
	}
	if got := ar.bytes(); got != want {
		t.Fatalf("bytes() = %d, retained arrays hold %d bytes", got, want)
	}
}
