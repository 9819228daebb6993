package core

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"turbosyn/internal/bench"
	"turbosyn/internal/netlist"
)

// groundingVerdicts decides phi with PLD on (the grounding certificate) and
// off (the n^2 rule alone), each under both objectives. The label iteration
// reads Pipelined only in its final output check, so one run per setting
// serves both objectives: the clock-period verdict is the MDR verdict plus
// checkOutputs. extra, when non-negative, caps the n^2 run (IterBudget) at
// extra sweeps past the certificate's iteration count; a negative extra
// lets the n^2 rule run to its own end.
func groundingVerdicts(t *testing.T, c *netlist.Circuit, phi int, opts Options, extra int) (on, off [2]bool) {
	t.Helper()
	decide := func(opts Options) ([2]bool, int) {
		opts.Pipelined = true
		s := newState(c, phi, opts)
		ok, err := s.run()
		if err != nil {
			t.Fatalf("%s phi=%d pld=%v: %v", c.Name, phi, opts.PLD, err)
		}
		s.opts.Pipelined = false
		return [2]bool{ok, ok && s.checkOutputs()}, s.stats.Iterations
	}
	on, iters := decide(opts)
	opts.PLD = false
	if extra >= 0 {
		opts.IterBudget = iters + extra
	}
	off, _ = decide(opts)
	return on, off
}

// checkGrounding compares the two verdicts of every phi from 1 to hi under
// TurboMap and TurboSYN, and checks that they are monotone in phi: once a
// phi is feasible under an objective, every larger one is too (the phi
// search relies on it).
func checkGrounding(t *testing.T, c *netlist.Circuit, k, hi, extra int) {
	t.Helper()
	for _, decompose := range []bool{false, true} {
		opts := DefaultOptions()
		opts.K = k
		opts.Decompose = decompose
		opts.Workers = 1
		var prev [2]bool
		for phi := 1; phi <= hi; phi++ {
			on, off := groundingVerdicts(t, c, phi, opts, extra)
			if on != off {
				t.Fatalf("%s decompose=%v phi=%d: PLD says feasible (ratio, period) = %v, the n^2 rule %v",
					c.Name, decompose, phi, on, off)
			}
			for obj, was := range prev {
				if was && !on[obj] {
					t.Fatalf("%s decompose=%v: feasible (ratio, period) = %v at phi=%d but %v at phi=%d",
						c.Name, decompose, prev, phi-1, on, phi)
				}
			}
			prev = on
		}
	}
}

// TestGroundingMatchesN2Rule: on the suite circuits, every phi from 1 to
// the clock-period minimum P gets the same verdict from the grounding
// certificate as from the n^2 stopping rule, under TurboMap and TurboSYN and
// both objectives. -short keeps bbara and s420. The n^2 rule's infeasible
// verdicts cost up to n^2 sweeps per component (seconds per probe on the
// larger circuits), so each n^2 run stops 64 sweeps past the certificate's
// iteration count: a feasible probe follows the certificate's trajectory to
// the same fixpoint, and a certificate that fired on a run converging
// within those 64 sweeps is caught. FuzzGrounding compares against the
// uncapped rule. A small ScaleFSM machine, kept under -short, adds one
// large component with many register-driving members. Every case also
// checks that the verdicts are monotone in phi.
func TestGroundingMatchesN2Rule(t *testing.T) {
	short := map[string]bool{"bbara": true, "s420": true, "scale_fsm": true}
	fsm := bench.ScaleFSM("TestGroundingMatchesN2Rule", 8, 4)
	cases := append(bench.Suite(), bench.Case{Name: "scale_fsm", Circuit: fsm})
	for _, cs := range cases {
		if testing.Short() && !short[cs.Name] {
			continue
		}
		t.Run(cs.Name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Pipelined = false
			res, err := minimizeOnce(cs.Circuit, opts)
			if err != nil {
				t.Fatal(err)
			}
			checkGrounding(t, cs.Circuit, opts.K, res.Phi, 64)
		})
	}
}

// FuzzGrounding: on random small K-bounded sequential circuits, the
// grounding certificate and the uncapped n^2 rule agree on every phi from 1
// to 8, under TurboMap and TurboSYN and both objectives.
func FuzzGrounding(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(0))
	f.Add(int64(7), uint8(12), uint8(1))
	f.Add(int64(42), uint8(16), uint8(2))
	// TurboSYN feasible at phi 1: TurboMap's threshold (base+2) alone
	// would certify it infeasible.
	f.Add(int64(-97), uint8('n'), uint8(0x15))
	// A 14-gate K=5 circuit with a 12-member component on which
	// TurboSYN's certificate fires at phi 1.
	f.Add(int64(3516), uint8(11), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, size, k uint8) {
		K := 2 + int(k)%4
		c := randomSequential(rand.New(rand.NewSource(seed)), 3+int(size)%14, K)
		if c.Check() != nil || !c.IsKBounded(K) {
			return
		}
		checkGrounding(t, c, K, 8, -1)
	})
}

// TestBoundSetPriorityShiftInvariant: the grounding certificate's proof
// (DESIGN.md, "PLD") lowers every member label, and so L, by one once no
// member is grounded (L >= base+maxH+1+prioSlack), and needs every
// resynthesis cut's bound-set priority order to survive that shift. On
// random leaf sets, with external leaves arriving at or below base and
// member leaves anywhere up to the cut's height, it does for every such L
// and every h the resynthesis loop tries. Sorting by the unclamped arrival
// fails here: an external and a member leaf at equal arrival swap.
func TestBoundSetPriorityShiftInvariant(t *testing.T) {
	order := func(eff []int, L, h int) []int {
		prio := make([]int, len(eff))
		for i := range prio {
			prio[i] = i
		}
		slices.SortStableFunc(prio, func(a, b int) int {
			return cmp.Compare(leafPriority(eff[a], L, h), leafPriority(eff[b], L, h))
		})
		return prio
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		base := rng.Intn(6)
		minL := base + maxH + 1 + prioSlack
		for L := minL; L <= minL+6; L++ {
			for h := 1; h <= maxH; h++ {
				n := 1 + rng.Intn(cmax)
				eff, lowered := make([]int, n), make([]int, n)
				for i := range eff {
					if rng.Intn(2) == 0 { // external: arrival <= base
						eff[i] = base - rng.Intn(base+6)
						lowered[i] = eff[i]
					} else { // member: arrival <= L-h, the cut's height
						eff[i] = L - h - rng.Intn(L-h+6)
						lowered[i] = eff[i] - 1
					}
				}
				if got, want := order(lowered, L-1, h), order(eff, L, h); !slices.Equal(got, want) {
					t.Fatalf("base=%d L=%d h=%d arrivals %v: order %v, lowered by one %v",
						base, L, h, eff, want, got)
				}
			}
		}
	}
}
