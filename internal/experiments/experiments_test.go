package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestQuickTables runs every table with a quick mode (small circuits only)
// plus the period table, and sanity-checks the rendered output. This is the
// smoke test; the full runs live in cmd/experiments and EXPERIMENTS.md.
// `make test` runs it on its own, without -short.
func TestQuickTables(t *testing.T) {
	if testing.Short() {
		t.Skip("about 9s plain and nearly 3 minutes under -race on 2 CPUs")
	}
	var buf bytes.Buffer
	cfg := Config{K: 5, Quick: true, Out: &buf}

	if err := Table1(cfg); err != nil {
		t.Fatalf("Table1: %v", err)
	}
	out := buf.String()
	// Times are wall-clock (time.Since), and the headers say so.
	if !strings.Contains(out, "bbara") || !strings.Contains(out, "geomean period ratio") ||
		!strings.Contains(out, "ts.wall") {
		t.Fatalf("Table1 output incomplete:\n%s", out)
	}
	// Table1 itself enforces the row-wise invariants ts.phi <= tm.phi and
	// ts.phi <= fsns.phi (it returns an error otherwise), which make both
	// geomeans >= 1 by construction; check the rendered numbers agree.
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "geomean period ratio") {
			continue
		}
		for _, ratio := range []string{"FlowSYN-s/TurboSYN = ", "TurboMap/TurboSYN = "} {
			_, after, found := strings.Cut(line, ratio)
			if !found {
				t.Fatalf("geomean line lost %q: %s", ratio, line)
			}
			if strings.HasPrefix(after, "0.") {
				t.Fatalf("%s below 1: %s", ratio, line)
			}
		}
	}

	buf.Reset()
	if err := Table2(cfg); err != nil {
		t.Fatalf("Table2: %v", err)
	}
	if !strings.Contains(buf.String(), "ts.luts") {
		t.Fatalf("Table2 output incomplete:\n%s", buf.String())
	}

	buf.Reset()
	if err := TablePLD(cfg); err != nil {
		t.Fatalf("TablePLD: %v", err)
	}
	if !strings.Contains(buf.String(), "speedup") || !strings.Contains(buf.String(), "wall.pld") {
		t.Fatalf("TablePLD output incomplete:\n%s", buf.String())
	}

	// TablePeriod has no quick variant (about 1s); it fails if mapping ever
	// loses to plain retiming.
	buf.Reset()
	if err := TablePeriod(cfg); err != nil {
		t.Fatalf("TablePeriod: %v", err)
	}
	if !strings.Contains(buf.String(), "s1423") || !strings.Contains(buf.String(), "mapped+retimed") {
		t.Fatalf("TablePeriod output incomplete:\n%s", buf.String())
	}

	buf.Reset()
	if err := TableScale(cfg); err != nil {
		t.Fatalf("TableScale: %v", err)
	}
	if !strings.Contains(buf.String(), "fsm0.8k") || !strings.Contains(buf.String(), "wall") {
		t.Fatalf("TableScale output incomplete:\n%s", buf.String())
	}
}
