package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestRatio(t *testing.T) {
	if got := Ratio(6, 3); got != 2 {
		t.Errorf("Ratio(6,3) = %v, want 2", got)
	}
	if got := Ratio(1, 0); got != 0 {
		t.Errorf("Ratio(1,0) = %v, want 0", got)
	}
}

func TestGeomean(t *testing.T) {
	got := Geomean([]float64{1, 4})
	if math.Abs(got-2) > 1e-12 {
		t.Errorf("Geomean(1,4) = %v, want 2", got)
	}
	if Geomean(nil) != 0 {
		t.Error("Geomean(nil) != 0")
	}
	// Non-positive entries are ignored.
	got = Geomean([]float64{0, -3, 8, 2})
	if math.Abs(got-4) > 1e-12 {
		t.Errorf("Geomean with non-positive = %v, want 4", got)
	}
}

func TestGeomeanScaleInvariance(t *testing.T) {
	f := func(a, b, c uint8) bool {
		xs := []float64{float64(a) + 1, float64(b) + 1, float64(c) + 1}
		g := Geomean(xs)
		scaled := []float64{xs[0] * 2, xs[1] * 2, xs[2] * 2}
		return math.Abs(Geomean(scaled)-2*g) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v, want 2", got)
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
}

func TestHist(t *testing.T) {
	h := NewHist(4)
	for _, v := range []int{0, 1, 1, 2, 9, -5} {
		h.Add(v)
	}
	if h.Count() != 6 {
		t.Errorf("Count = %d, want 6", h.Count())
	}
	if h.Bucket(1) != 2 {
		t.Errorf("Bucket(1) = %d, want 2", h.Bucket(1))
	}
	if h.Bucket(0) != 2 { // 0 and clamped -5
		t.Errorf("Bucket(0) = %d, want 2", h.Bucket(0))
	}
	if h.Overflow() != 1 {
		t.Errorf("Overflow = %d, want 1", h.Overflow())
	}
	wantMean := (0.0 + 1 + 1 + 2 + 9 + 0) / 6
	if math.Abs(h.Mean()-wantMean) > 1e-12 {
		t.Errorf("Mean = %v, want %v", h.Mean(), wantMean)
	}
	if f := h.Fraction(1); math.Abs(f-2.0/6) > 1e-12 {
		t.Errorf("Fraction(1) = %v", f)
	}
	if h.Bucket(-1) != 0 || h.Bucket(100) != 0 {
		t.Error("out-of-range Bucket should be 0")
	}
	// Sum pairs with Count for Prometheus summary exposition: overflow
	// observations keep their true value (9, not the bucket bound), and
	// negatives clamp to 0 exactly as Add records them.
	if want := 0.0 + 1 + 1 + 2 + 9 + 0; h.Sum() != want {
		t.Errorf("Sum = %v, want %v", h.Sum(), want)
	}
	if got := h.Sum() / float64(h.Count()); math.Abs(got-h.Mean()) > 1e-12 {
		t.Errorf("Sum/Count = %v, Mean = %v; must agree", got, h.Mean())
	}
}

func TestHistEmpty(t *testing.T) {
	h := NewHist(0) // clamps to 1 bucket
	if h.Mean() != 0 || h.Fraction(0) != 0 || h.Count() != 0 {
		t.Error("empty hist should report zeros")
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("app", "ipc")
	tb.AddRow("mcf", 0.51234)
	tb.AddRow("gcc", 1.25)
	s := tb.String()
	if !strings.Contains(s, "app") || !strings.Contains(s, "0.512") || !strings.Contains(s, "1.250") {
		t.Errorf("table output missing cells:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 { // header, separator, two rows
		t.Errorf("got %d lines, want 4:\n%s", len(lines), s)
	}
	if tb.NumRows() != 2 {
		t.Errorf("NumRows = %d, want 2", tb.NumRows())
	}
}

func TestTableSort(t *testing.T) {
	tb := NewTable("app", "x")
	tb.AddRow("zeta", 1)
	tb.AddRow("alpha", 2)
	tb.SortRowsBy(0)
	s := tb.String()
	if strings.Index(s, "alpha") > strings.Index(s, "zeta") {
		t.Errorf("rows not sorted:\n%s", s)
	}
	tb.SortRowsBy(99) // out of range: no-op, must not panic
}

// TestHistRepeatEquivalence pins the repeated-sample contract: Add(v)
// followed by Repeat(n) is observationally identical to calling Add(v)
// n+1 times, across in-range, clamped-negative and overflow values, and
// Repeat on an empty histogram records nothing. Fast-forwarded occupancy
// sampling relies on this equivalence for bit-identical results.
func TestHistRepeatEquivalence(t *testing.T) {
	loop := NewHist(4)
	bulk := NewHist(4)
	bulk.Repeat(5)
	if bulk.Count() != 0 {
		t.Fatalf("Repeat on an empty histogram recorded %d samples", bulk.Count())
	}
	cases := []struct {
		v int
		n uint64
	}{{0, 3}, {2, 5}, {-1, 2}, {7, 4}, {3, 1}, {2, 0}}
	for _, c := range cases {
		for i := uint64(0); i <= c.n; i++ {
			loop.Add(c.v)
		}
		bulk.Add(c.v)
		bulk.Repeat(c.n)
	}
	if loop.Count() != bulk.Count() {
		t.Errorf("count: loop %d bulk %d", loop.Count(), bulk.Count())
	}
	if loop.Mean() != bulk.Mean() {
		t.Errorf("mean: loop %v bulk %v", loop.Mean(), bulk.Mean())
	}
	for v := 0; v < 4; v++ {
		if loop.Bucket(v) != bulk.Bucket(v) {
			t.Errorf("bucket %d: loop %d bulk %d", v, loop.Bucket(v), bulk.Bucket(v))
		}
	}
	if loop.Overflow() != bulk.Overflow() {
		t.Errorf("overflow: loop %d bulk %d", loop.Overflow(), bulk.Overflow())
	}
	if bulk.Count() != 21 {
		t.Errorf("total count = %d, want 21", bulk.Count())
	}
}

func TestHistQuantile(t *testing.T) {
	h := NewHist(16)
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty hist quantile should be 0")
	}
	for i := 0; i < 100; i++ {
		h.Add(i % 10) // uniform over 0..9
	}
	cases := []struct {
		q    float64
		want int
	}{
		{0, 0}, {0.05, 0}, {0.5, 4}, {0.9, 8}, {0.99, 9}, {1, 9}, {1.5, 9}, {-1, 0},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	// Quantiles landing in the overflow bucket report the range bound.
	o := NewHist(4)
	o.Add(1)
	o.Add(100)
	if got := o.Quantile(0.99); got != 4 {
		t.Errorf("overflow Quantile(0.99) = %d, want 4", got)
	}
}
