package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// table accumulates rows and renders fixed-width text output.
type table struct {
	header []string
	rows   [][]string
}

// newTable starts a table with the given column headers.
func newTable(header ...string) *table {
	return &table{header: header}
}

// AddRow appends a row; values are formatted with %v.
func (t *table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the table.
func (t *table) Render(w io.Writer) {
	width := make([]int, len(t.header))
	for i, h := range t.header {
		width[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(width) {
				parts[i] = fmt.Sprintf("%-*s", width[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

// geoMean returns the geometric mean of the values; zero or negative values
// are skipped (they would be undefined), and an empty input returns NaN.
func geoMean(values []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range values {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Exp(sum / float64(n))
}

// ratioSummary returns the geometric mean of a[i]/b[i].
func ratioSummary(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	ratios := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if a[i] > 0 && b[i] > 0 {
			ratios = append(ratios, a[i]/b[i])
		}
	}
	return geoMean(ratios)
}
