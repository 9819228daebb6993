package core

import (
	"fmt"

	"turbosyn/internal/cut"
	"turbosyn/internal/expand"
	"turbosyn/internal/logic"
	"turbosyn/internal/obs"
)

// arena is the per-worker scratch of the label hot path: one expansion
// builder, one cut arena (flow state + cone walk scratch) and the
// cone-simulation scratch. Every piece retains its backing arrays
// across calls, so a warm arena decides a node's label without heap
// allocation on the structural path.
//
// Ownership model (see DESIGN.md, "Scratch arenas"): the sequential engine
// owns arena 0; the dataflow scheduler hands arena w to worker goroutine w
// before launch, and that one goroutine uses it from the probe's first
// component to its last. Between probes the engine's pool passes an arena
// on only through checkin and checkout. Results never alias arena memory —
// covers copy replicas out — so arenas are invisible in the output.
type arena struct {
	xb expand.Builder
	ca cut.Arena

	// coneFunction scratch. slot[id] is 1 + the index in tabs of replica
	// id's table, 0 when it has none; every entry is 0 between calls. The
	// interior tables live in slab; stack is the bottom-up walk and ins the
	// fanin tables of the gate being simulated.
	slot  []int32
	tabs  [][]uint64
	slab  []uint64
	stack []coneFrame
	ins   [][]uint64

	// NPN canonicalization memo (worker-local, so lock-free): cone functions
	// recur heavily across label iterations and the exact canonicalization of
	// a 6-input cone enumerates ~92k candidates, so tryDecompose memoizes
	// (canon, transform) by raw function. npnKey is the reusable key scratch.
	npnMemo map[string]npnEntry
	npnKey  []byte

	// prio and canonPrio are tryDecompose's bound-set priority orders over
	// the cut and over the canonical cone function's inputs.
	prio, canonPrio []int

	// witRun is witness.holds' candidate-run scratch, one entry per cone
	// replica of the witness being checked.
	witRun []int32

	// sccIsolated scratch, sized to the circuit. (The per-component update
	// lists iterateComp sweeps are precomputed CSR ranges in analysis, not
	// arena scratch.)
	reach  []bool
	rqueue []int

	// built reports whether the builder's expansion is valid for the node
	// being decided (set by decide and tryDecompose, consumed by the
	// settle path's Loosen).
	built bool

	// curNode is the circuit node the owning worker is currently deciding,
	// -1 between decisions. Read only by the panic-containment boundary
	// (safeRunComp) to attribute a contained panic to a node.
	curNode int

	// poisoned marks an arena whose run was interrupted in a way that may
	// have left its scratch mid-mutation (a contained panic in the owning
	// worker, or a run aborted by cancellation/strict budget). A poisoned
	// arena is discarded at pool checkin instead of being reused; the flag is
	// cleared on checkout of a (necessarily clean) pooled arena.
	poisoned bool

	// ring is the owning worker's trace buffer, nil unless Options.Trace is
	// set. Single-owner like the rest of the arena: only the goroutine
	// running on this arena writes it, and the recorder reads it after the
	// run's goroutines have been joined.
	ring *obs.Ring
}

// reset releases every retained array back to the allocator (the
// ArenaByteBudget degradation). The arena stays usable; it just re-grows
// from cold on its next use.
func (ar *arena) reset() {
	*ar = arena{curNode: ar.curNode, ring: ar.ring, poisoned: ar.poisoned}
}

// bytes reports the approximate footprint of the arena's retained arrays
// (the Stats.ArenaPeakBytes high-water mark).
func (ar *arena) bytes() int {
	return ar.xb.Bytes() + ar.ca.Bytes() +
		cap(ar.slot)*4 + (cap(ar.tabs)+cap(ar.ins))*24 + cap(ar.slab)*8 +
		cap(ar.stack)*8 + (cap(ar.prio)+cap(ar.canonPrio))*8 + cap(ar.witRun)*4 +
		cap(ar.reach) + cap(ar.rqueue)*8 +
		len(ar.npnMemo)*npnEntryBytes + cap(ar.npnKey)
}

// npnEntry is one memoized canonicalization: the canonical table and the
// transform with tr.Apply(raw) == canon. Both are immutable once stored —
// canon feeds cache keys and DecomposeEffort (which never mutate their input) and
// the transform's Perm is only read.
type npnEntry struct {
	canon *logic.TT
	tr    logic.NPNTransform
}

// npnMemoCap bounds the per-arena memo; when full it is cleared wholesale
// (cone functions cluster in time, so wholesale reset beats eviction
// bookkeeping). npnEntryBytes is the rough per-entry footprint charged to
// the arena byte budget (key string + table + transform).
const (
	npnMemoCap    = 1 << 12
	npnEntryBytes = 96
)

// npnCanon is logic.NPNCanon behind the arena's memo.
func (ar *arena) npnCanon(fn *logic.TT) (*logic.TT, logic.NPNTransform) {
	ar.npnKey = append(ar.npnKey[:0], byte(fn.NumVars()))
	ar.npnKey = fn.AppendWordBytes(ar.npnKey)
	if e, ok := ar.npnMemo[string(ar.npnKey)]; ok {
		return e.canon, e.tr
	}
	canon, tr := logic.NPNCanon(fn)
	if ar.npnMemo == nil {
		ar.npnMemo = make(map[string]npnEntry)
	} else if len(ar.npnMemo) >= npnMemoCap {
		clear(ar.npnMemo)
	}
	ar.npnMemo[string(ar.npnKey)] = npnEntry{canon: canon, tr: tr}
	return canon, tr
}

// arenaFor returns the worker's scratch arena, checking it out of the
// engine's pool (warm backing arrays, no re-growth) or creating it on first
// use. The cold path also attaches the worker's trace ring: one ring per
// (probe, worker), labelled by the probe's phi so a trace groups each
// probe's workers together.
//
// Callers never race: the sequential sweep asks for arena 0 on the run
// goroutine, and the parallel scheduler checks every worker's arena out
// before spawning the pool — which also makes the checkout counters plain
// s.stats writes.
func (s *state) arenaFor(w int) *arena {
	for len(s.arenas) <= w {
		ar, pooled := s.pool.checkout()
		s.stats.ArenaCheckouts++
		if pooled {
			s.stats.ArenaPoolHits++
		}
		if s.rec != nil {
			ar.ring = s.rec.NewRing(fmt.Sprintf("phi=%d worker %d", s.phi, len(s.arenas)))
		}
		s.arenas = append(s.arenas, ar)
	}
	return s.arenas[w]
}
