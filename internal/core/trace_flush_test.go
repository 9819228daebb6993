package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"turbosyn/internal/faultinject"
	"turbosyn/internal/obs"
)

// flushedTrace mirrors the Chrome trace schema WriteTrace commits to, just
// deeply enough to validate it.
type flushedTrace struct {
	TraceEvents []struct {
		Name string   `json:"name"`
		Ph   string   `json:"ph"`
		Dur  *float64 `json:"dur"`
	} `json:"traceEvents"`
	OtherData struct {
		Events        int `json:"events"`
		DroppedEvents int `json:"droppedEvents"`
	} `json:"otherData"`
}

// checkFlushedTrace asserts the recorder's rings are quiescent and export as
// well-formed trace JSON containing real span events.
func checkFlushedTrace(t *testing.T, rec *obs.Recorder) {
	t.Helper()
	events, _ := rec.Totals()
	if events == 0 {
		t.Fatal("no events recorded before the abort")
	}
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf, "test-run"); err != nil {
		t.Fatalf("WriteTrace after abort: %v", err)
	}
	var tr flushedTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("flushed trace is not valid JSON: %v", err)
	}
	spans := 0
	for i, ev := range tr.TraceEvents {
		switch ev.Ph {
		case "M", "i":
		case "X":
			if ev.Dur == nil {
				t.Fatalf("event %d (%s): complete span without dur", i, ev.Name)
			}
			spans++
		default:
			t.Fatalf("event %d (%s): unknown phase %q", i, ev.Name, ev.Ph)
		}
	}
	if spans == 0 {
		t.Fatal("flushed trace contains no span events")
	}
	if tr.OtherData.Events != events {
		t.Errorf("otherData.events = %d, recorder says %d", tr.OtherData.Events, events)
	}
}

// TestTraceFlushPanicAbort: a panic contained deep inside a worker must not
// lose the trace — the engine joins every ring owner before surfacing the
// *InternalError, so the recorder is quiescent and exports valid trace JSON
// with the spans recorded up to the fault. (Injection plans are
// process-global; no t.Parallel.)
func TestTraceFlushPanicAbort(t *testing.T) {
	c := faultCircuit(t)
	for _, workers := range faultWorkerPools {
		t.Run(fmt.Sprintf("j%d", workers), func(t *testing.T) {
			fenceGoroutines(t)
			plan, off := faultinject.Activate(faultinject.Config{PanicAtCutCheck: 200})
			defer off()
			rec := obs.NewRecorder(0)
			opts := DefaultOptions()
			opts.Workers = workers
			opts.Trace = rec
			if _, err := minimizeOnce(c, opts); err == nil {
				t.Fatal("contained panic did not surface as an error")
			}
			if plan.Fired(faultinject.KindPanicCutCheck) == 0 {
				t.Fatal("fault never fired")
			}
			checkFlushedTrace(t, rec)
		})
	}
}

// TestTraceFlushCancelAbort: same contract on the cancellation path — a
// mid-sweep context cancel aborts with *CancelError and the trace still
// flushes complete and valid.
func TestTraceFlushCancelAbort(t *testing.T) {
	c := faultCircuit(t)
	for _, workers := range faultWorkerPools {
		t.Run(fmt.Sprintf("j%d", workers), func(t *testing.T) {
			fenceGoroutines(t)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			plan, off := faultinject.Activate(faultinject.Config{
				CancelAtSweep: 3, OnCancel: cancel,
			})
			defer off()
			rec := obs.NewRecorder(0)
			opts := DefaultOptions()
			opts.Workers = workers
			opts.Trace = rec
			if _, err := minimizeOnceContext(ctx, c, opts); err == nil {
				t.Fatal("cancelled run returned no error")
			}
			if plan.Fired(faultinject.KindCancelSweep) == 0 {
				t.Fatal("cancel point never fired")
			}
			checkFlushedTrace(t, rec)
		})
	}
}
