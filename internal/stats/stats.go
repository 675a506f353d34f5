// Package stats provides the small statistics toolkit shared by the cores
// and the experiment harness: rate helpers, geometric means, histograms and
// fixed-width text tables matching the paper's figures.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Ratio returns a/b, or 0 if b is zero.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Geomean returns the geometric mean of xs, ignoring non-positive entries.
// It returns 0 if no positive entries exist.
func Geomean(xs []float64) float64 {
	var sum float64
	var n int
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Hist is a simple histogram over small non-negative integer values with a
// catch-all overflow bucket. The zero value is not ready to use; call
// NewHist.
type Hist struct {
	buckets  []uint64
	overflow uint64
	count    uint64
	sum      float64
	last     int // the value Add recorded last, after clamping
}

// NewHist creates a histogram with buckets for values 0..max-1; larger
// values land in an overflow bucket but still contribute to Mean.
func NewHist(max int) *Hist {
	if max < 1 {
		max = 1
	}
	return &Hist{buckets: make([]uint64, max)}
}

// Add records one observation of v (negative values clamp to 0).
func (h *Hist) Add(v int) {
	if v < 0 {
		v = 0
	}
	h.last = v
	if v < len(h.buckets) {
		h.buckets[v]++
	} else {
		h.overflow++
	}
	h.count++
	h.sum += float64(v)
}

// Repeat records n more observations of the last value Add recorded —
// exactly equivalent to calling Add with that value n times; it does
// nothing on an empty histogram. It exists for clock fast-forwarding: when
// a core skips k provably idle cycles, the occupancy it would have sampled
// on each of them is the frozen value its embedded cycle just sampled, so
// the model records that sample k more times without looping. Callers must
// pass the weight for every skipped cycle; dropping it would silently
// under-sample the histogram (Count no longer equals simulated cycles) and
// skew Mean toward busy cycles.
func (h *Hist) Repeat(n uint64) {
	if h.count == 0 {
		return
	}
	v := h.last
	if v < len(h.buckets) {
		h.buckets[v] += n
	} else {
		h.overflow += n
	}
	h.count += n
	h.sum += float64(v) * float64(n)
}

// Count returns the number of observations.
func (h *Hist) Count() uint64 { return h.count }

// Sum returns the sum of all observations. Values beyond the bucket
// range contribute their true value, not the overflow bound. Exposition
// hook: Prometheus-style renderers pair the exact _sum with Count.
func (h *Hist) Sum() float64 { return h.sum }

// Mean returns the mean observation, or 0 if empty.
func (h *Hist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile returns the smallest recorded value v such that at least
// q*Count observations are <= v (the inverse-CDF convention; q is clamped
// to [0,1]). Observations in the overflow bucket are only known to be >=
// the bucket range, so a quantile landing there reports the range bound —
// a lower bound on the true value. Returns 0 for an empty histogram.
func (h *Hist) Quantile(q float64) int {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for v, n := range h.buckets {
		cum += n
		if cum >= rank {
			return v
		}
	}
	return len(h.buckets)
}

// Bucket returns the count of observations with value v (0 for out of range).
func (h *Hist) Bucket(v int) uint64 {
	if v < 0 || v >= len(h.buckets) {
		return 0
	}
	return h.buckets[v]
}

// Overflow returns the count of observations >= the bucket range.
func (h *Hist) Overflow() uint64 { return h.overflow }

// Fraction returns the fraction of observations equal to v.
func (h *Hist) Fraction(v int) float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.Bucket(v)) / float64(h.count)
}

// Table accumulates rows and renders a fixed-width text table. It is used
// by cmd/casino-bench to print the paper's figures as text.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells are formatted with %v. Numeric floats use 3
// decimal places.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case float32:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], cell)
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// SortRowsBy sorts data rows by the given column, lexicographically.
func (t *Table) SortRowsBy(col int) {
	if col < 0 || col >= len(t.header) {
		return
	}
	sort.SliceStable(t.rows, func(i, j int) bool { return t.rows[i][col] < t.rows[j][col] })
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }
