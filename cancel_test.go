package turbosyn

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"turbosyn/internal/bench"
)

// TestSynthesizeCancelPromptly is the cancellation-latency contract: on a
// BenchmarkScale1k-sized circuit (~28s of sequential synthesis), cancelling
// the context must return a *CancelError wrapping context.Canceled well
// within a second of the cancel — the engine polls its abort flag at sweep
// granularity, never at run granularity.
func TestSynthesizeCancelPromptly(t *testing.T) {
	c := bench.ScaleFSM("BenchmarkScale1k", 24, 8)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelAt := make(chan time.Time, 1)
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancelAt <- time.Now()
		cancel()
	}()
	res, err := SynthesizeContext(ctx, c, Options{})
	returned := time.Now()
	if err == nil {
		t.Fatal("cancelled synthesis returned no error (finished before the cancel?)")
	}
	if res != nil {
		t.Fatal("non-nil result alongside a cancellation error")
	}
	if latency := returned.Sub(<-cancelAt); latency > time.Second {
		t.Fatalf("abort latency %v exceeds 1s", latency)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("error is not a *CancelError: %v", err)
	}
	if ce.Phase == "" {
		t.Error("CancelError.Phase empty")
	}
	if ce.Stats.Iterations == 0 {
		t.Error("no partial work recorded before a 100ms-deep abort")
	}
}

// TestSynthesizeDeadline covers the -timeout path: deadline expiry surfaces
// as a *CancelError wrapping context.DeadlineExceeded.
func TestSynthesizeDeadline(t *testing.T) {
	c := bench.ScaleFSM("BenchmarkScale1k", 24, 8)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := SynthesizeContext(ctx, c, Options{})
	if err == nil {
		t.Fatal("deadline did not abort the synthesis")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline abort took %v", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error does not wrap context.DeadlineExceeded: %v", err)
	}
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("error is not a *CancelError: %v", err)
	}
}

// TestSynthesizeExpiredContext: a context that is already done must abort
// before any engine work, with BestPhi reporting that no probe ran.
func TestSynthesizeExpiredContext(t *testing.T) {
	c := buildLoop6(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SynthesizeContext(ctx, c, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("error is not a *CancelError: %v", err)
	}
	if ce.BestPhi != -1 {
		t.Errorf("BestPhi = %d with no probe run, want -1", ce.BestPhi)
	}
}

// TestOptionsValidation: malformed Options must fail fast with descriptive
// errors before any synthesis work starts.
func TestOptionsValidation(t *testing.T) {
	c := buildLoop6(t)
	cases := []struct {
		name string
		mut  func(*Options)
		want string // substring of the error message
	}{
		{"K too small", func(o *Options) { o.K = 1 }, "too small"},
		{"K too large", func(o *Options) { o.K = 99 }, "exceeds"},
		{"negative workers", func(o *Options) { o.Workers = -1 }, "Workers"},
		{"negative Cmax", func(o *Options) { o.Cmax = -1 }, "Cmax"},
		{"oversized Cmax", func(o *Options) { o.Cmax = 99 }, "Cmax"},
		{"negative MaxH", func(o *Options) { o.MaxH = -3 }, "MaxH"},
		{"negative budget", func(o *Options) { o.BDDNodeBudget = -1 }, "budget"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var opts Options
			tc.mut(&opts)
			_, err := Synthesize(c, opts)
			if err == nil {
				t.Fatal("invalid options accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			if _, _, ferr := Feasible(c, 2, opts); ferr == nil {
				t.Error("Feasible accepted the same invalid options")
			}
		})
	}
}
