package server

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"turbosyn/internal/core"
)

// TestErrorTaxonomyJSONRoundTrip: every engine error kind survives
// EncodeError -> JSON -> decode -> Err with its type, its errors.Is
// targets, and its load-bearing fields intact. This is the contract that
// makes client-side errors.As behave like a local run's.
func TestErrorTaxonomyJSONRoundTrip(t *testing.T) {
	roundTrip := func(t *testing.T, err error) error {
		t.Helper()
		info := EncodeError(err)
		data, jerr := json.Marshal(info)
		if jerr != nil {
			t.Fatal(jerr)
		}
		var decoded ErrorInfo
		if jerr := json.Unmarshal(data, &decoded); jerr != nil {
			t.Fatal(jerr)
		}
		return decoded.Err()
	}

	t.Run("cancel", func(t *testing.T) {
		orig := &core.CancelError{Phase: "binary-search", BestPhi: 4, Err: context.Canceled}
		got := roundTrip(t, orig)
		var ce *core.CancelError
		if !errors.As(got, &ce) {
			t.Fatalf("not a *core.CancelError: %v", got)
		}
		if !errors.Is(got, context.Canceled) {
			t.Error("lost the context.Canceled cause")
		}
		if ce.Phase != "binary-search" || ce.BestPhi != 4 {
			t.Errorf("lost detail: %+v", ce)
		}
	})

	t.Run("timeout", func(t *testing.T) {
		orig := &core.CancelError{Phase: "sweep", Err: context.DeadlineExceeded}
		got := roundTrip(t, orig)
		if !errors.Is(got, context.DeadlineExceeded) {
			t.Error("deadline cause did not survive the wire")
		}
		if errors.Is(got, context.Canceled) {
			t.Error("timeout decoded as explicit cancel")
		}
	})

	t.Run("budget", func(t *testing.T) {
		orig := &core.BudgetError{Resource: "rothkarp-candidates", Limit: 1000, Node: 42}
		got := roundTrip(t, orig)
		var be *core.BudgetError
		if !errors.As(got, &be) {
			t.Fatalf("not a *core.BudgetError: %v", got)
		}
		if be.Resource != "rothkarp-candidates" || be.Limit != 1000 || be.Node != 42 {
			t.Errorf("lost detail: %+v", be)
		}
	})

	t.Run("internal", func(t *testing.T) {
		orig := &core.InternalError{Op: "label", Phase: "sweep", Comp: 3, Node: 7, Value: "boom"}
		got := roundTrip(t, orig)
		var ie *core.InternalError
		if !errors.As(got, &ie) {
			t.Fatalf("not a *core.InternalError: %v", got)
		}
		if ie.Op != "label" {
			t.Errorf("lost op: %+v", ie)
		}
	})

	t.Run("retryable verdicts", func(t *testing.T) {
		cases := []struct {
			info *ErrorInfo
			want bool
		}{
			{EncodeError(&core.CancelError{Err: context.Canceled}), true},
			{EncodeError(&core.BudgetError{Resource: "r"}), false},
			{EncodeError(&core.InternalError{Op: "x"}), false},
			{invalidError(errors.New("bad blif")), false},
			{shedError("drained"), true},
		}
		for _, tc := range cases {
			if tc.info.Retryable != tc.want {
				t.Errorf("%s: retryable = %v, want %v", tc.info.Kind, tc.info.Retryable, tc.want)
			}
		}
	})

	t.Run("nil", func(t *testing.T) {
		var info *ErrorInfo
		if info.Err() != nil {
			t.Error("nil ErrorInfo raised a non-nil error")
		}
	})
}
