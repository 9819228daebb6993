package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := newTable("name", "phi", "ratio")
	tb.AddRow("bbara", 3, 1.5)
	tb.AddRow("verylongname", 12, 0.333333)
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[2], "1.50") {
		t.Errorf("float formatting: %q", lines[2])
	}
	if !strings.HasPrefix(lines[3], "verylongname") {
		t.Errorf("row order: %q", lines[3])
	}
	// Columns aligned: "phi" column starts at the same offset everywhere.
	idx := strings.Index(lines[0], "phi")
	if !strings.HasPrefix(lines[2][idx:], "3") {
		t.Errorf("misaligned columns:\n%s", out)
	}
}

func TestGeoMean(t *testing.T) {
	if g := geoMean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geoMean(2,8) = %v", g)
	}
	if g := geoMean([]float64{5}); math.Abs(g-5) > 1e-12 {
		t.Errorf("geoMean(5) = %v", g)
	}
	if g := geoMean([]float64{2, 0, 8}); math.Abs(g-4) > 1e-12 {
		t.Errorf("zeros must be skipped: %v", g)
	}
	if !math.IsNaN(geoMean(nil)) {
		t.Error("empty input must be NaN")
	}
}

func TestRatioSummary(t *testing.T) {
	a := []float64{4, 9}
	b := []float64{2, 3}
	if g := ratioSummary(a, b); math.Abs(g-math.Sqrt(6)) > 1e-12 {
		t.Errorf("ratioSummary = %v", g)
	}
}
