package netlist

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadBLIF drives the BLIF reader with arbitrary byte strings. The
// contract under fuzzing: ReadBLIF either returns a descriptive error or a
// circuit that passes every structural invariant in Check(), and a circuit
// it accepts must survive a WriteBLIF -> ReadBLIF round trip. It must never
// panic and never hand back a malformed graph.
func FuzzReadBLIF(f *testing.F) {
	seeds := []string{
		sampleBLIF,
		".model m\n.inputs a\n.outputs z\n.names a z\n1 1\n.end",
		".model m\n.inputs a\n.outputs q\n.latch a q 0\n.end",
		".model m\n.inputs a\n.outputs q\n.latch q q 0\n.end",
		".model m\n.inputs a b\n.outputs z\n.names a b z\n11 1\n00 0\n.end",
		".model m\n.inputs a\n.outputs z\n.names b z\n1 1\n.end",
		".inputs a \\\nb\n.outputs z\n.names a b z\n-1 1\n.end",
		".model m\n.inputs a\n.outputs z\n.names a z\n2 1\n.end",
		".model m\n.outputs c\n.names c\n1\n.end",
		".model m\n.inputs a\n.outputs z\n.subckt foo x=a\n.end",
		".model m # comment\n.inputs a\n.outputs z\n.names a z\n0 0\n.end",
		".latch",
		".names\n\x00\xff",
		".names 0\\ ",  // a backslash followed by a blank ends a name
		".names 0\\\f", // the same with a form feed
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64<<10 {
			return // keep worst-case parse time bounded
		}
		c, err := ReadBLIF(bytes.NewReader(data))
		if err != nil {
			if c != nil {
				t.Fatal("non-nil circuit returned alongside an error")
			}
			if err.Error() == "" {
				t.Fatal("empty error message")
			}
			return
		}
		if err := c.Check(); err != nil {
			t.Fatalf("accepted circuit violates invariants: %v\ninput: %q", err, data)
		}
		var buf bytes.Buffer
		if err := WriteBLIF(&buf, c); err != nil {
			t.Fatalf("accepted circuit cannot be written: %v", err)
		}
		d, err := ReadBLIF(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round trip rejected: %v\nwritten:\n%s", err, buf.String())
		}
		if err := d.Check(); err != nil {
			t.Fatalf("round-tripped circuit violates invariants: %v", err)
		}
		if len(d.PIs) != len(c.PIs) || len(d.POs) != len(c.POs) {
			t.Fatalf("round trip changed interface: %d/%d -> %d/%d PIs/POs",
				len(c.PIs), len(c.POs), len(d.PIs), len(d.POs))
		}
	})
}

// TestFuzzSeedsDirect replays the fuzz seed corpus as a plain test so the
// invariant check runs even when the build has fuzzing disabled.
func TestFuzzSeedsDirect(t *testing.T) {
	seeds := []string{
		sampleBLIF,
		".model m\n.inputs a\n.outputs q\n.latch a q 0\n.end",
		".model m\n.inputs a\n.outputs z\n.names a z\n2 1\n.end",
	}
	for _, s := range seeds {
		c, err := ReadBLIF(strings.NewReader(s))
		if err != nil {
			continue
		}
		if err := c.Check(); err != nil {
			t.Errorf("seed violates invariants: %v", err)
		}
	}
}
