package stats

import (
	"reflect"
	"testing"
)

func TestRegistryCounterAccumulates(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.b", 3)
	r.Counter("a.b", 4)
	mt, ok := r.Lookup("a.b")
	if !ok || mt.Value != 7 {
		t.Fatalf("counter = %+v, want 7", mt)
	}
	if mt.Kind != KindCounter {
		t.Fatalf("kind = %v, want counter", mt.Kind)
	}
}

func TestRegistryGaugeOverwrites(t *testing.T) {
	r := NewRegistry()
	r.Gauge("g", 1.5)
	r.Gauge("g", 2.5)
	if mt, _ := r.Lookup("g"); mt.Value != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", mt.Value)
	}
}

func TestRegistryRatioZeroDen(t *testing.T) {
	r := NewRegistry()
	r.SetRatio("q", 5, 0)
	if mt, _ := r.Lookup("q"); mt.Value != 0 {
		t.Fatalf("ratio with zero denominator = %v, want 0", mt.Value)
	}
	r.SetRatio("q", 5, 2)
	if mt, _ := r.Lookup("q"); mt.Value != 2.5 {
		t.Fatalf("ratio = %v, want 2.5", mt.Value)
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("republishing a counter as a gauge should panic")
		}
	}()
	r := NewRegistry()
	r.Counter("x", 1)
	r.Gauge("x", 2)
}

func TestRegistryHistFlatten(t *testing.T) {
	h := NewHist(4)
	h.Add(1)
	h.Add(2)
	h.Add(9) // overflow bucket
	r := NewRegistry()
	r.Counter("events", 10)
	r.Hist("occ.iq", h)
	flat := r.Flatten()
	want := map[string]float64{
		"events":          10,
		"occ.iq.mean":     4, // (1+2+9)/3
		"occ.iq.count":    3,
		"occ.iq.overflow": 1.0 / 3.0,
		"occ.iq.p50":      2, // values 1,2,9: rank 2 of 3
		"occ.iq.p90":      4, // overflow observations report the range bound
		"occ.iq.p99":      4,
	}
	if !reflect.DeepEqual(flat, want) {
		t.Fatalf("Flatten() = %v, want %v", flat, want)
	}
}

func TestRegistryHistNil(t *testing.T) {
	r := NewRegistry()
	r.Hist("empty", nil)
	flat := r.Flatten()
	if flat["empty.mean"] != 0 || flat["empty.count"] != 0 {
		t.Fatalf("nil hist flatten = %v", flat)
	}
	if _, ok := flat["empty.overflow"]; ok {
		t.Fatal("zero overflow should be omitted")
	}
}
