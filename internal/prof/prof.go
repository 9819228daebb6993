// Package prof attributes mapper time to its stages via runtime/pprof
// goroutine labels. CPU profiles taken with -cpuprofile then break down by
// the "phase" label: expand (E_v construction), flow (K-cut max-flow),
// decompose (Roth–Karp resynthesis), pld (positive loop detection) and label
// (everything else in the sweep).
//
// Since the observability layer landed (internal/obs, DESIGN.md §8), the
// stage vocabulary is owned by obs: prof keys its label sets off the same
// obs.Op enumeration the span recorder uses, so a pprof profile and a
// Perfetto trace of the same run slice time identically, and the engine
// switches both with a single call (core's phase hook). obs.Recorder is the
// run's common clock source; prof adds no clock of its own.
//
// Labelling sits inside the zero-allocation hot path, so it is disabled by
// default and costs one predictable-branch check per phase switch. Enable
// flips to pre-built label sets: no allocation happens per call even when
// profiling (the label contexts are constructed once, indexed by op).
package prof

import (
	"context"
	"runtime/pprof"

	"turbosyn/internal/obs"
)

// Phase names used by the label engine, re-exported for callers that want
// the string forms (profiles are filtered with `-tagfocus phase=flow` etc.).
const (
	PhaseLabel     = "label"
	PhaseExpand    = "expand"
	PhaseFlow      = "flow"
	PhaseDecompose = "decompose"
	PhasePLD       = "pld"
)

var enabled bool

// phaseCtx holds one pre-built label context per obs.Op; ops that are not
// pprof phases (component/probe spans, instants) share the "label" context.
var phaseCtx [obs.NumOps]context.Context

func init() {
	labelled := map[obs.Op]string{
		obs.OpLabel:     PhaseLabel,
		obs.OpExpand:    PhaseExpand,
		obs.OpFlow:      PhaseFlow,
		obs.OpDecompose: PhaseDecompose,
		obs.OpPLD:       PhasePLD,
	}
	for op := obs.Op(0); op < obs.NumOps; op++ {
		name, ok := labelled[op]
		if !ok {
			name = PhaseLabel
		}
		phaseCtx[op] = pprof.WithLabels(context.Background(),
			pprof.Labels("phase", name))
	}
}

// Enable turns phase labelling on (or off). Not safe to toggle while label
// sweeps run; call it before the first synthesis run, as cmd/turbosyn does when
// -cpuprofile is set.
func Enable(on bool) { enabled = on }

// Phase tags the calling goroutine with the named stage until the next Phase
// call. A no-op (one branch, zero allocation) when labelling is disabled.
func Phase(op obs.Op) {
	if !enabled {
		return
	}
	pprof.SetGoroutineLabels(phaseCtx[op])
}
