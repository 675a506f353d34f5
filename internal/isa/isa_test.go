package isa

import (
	"testing"
	"testing/quick"
	"unsafe"
)

// Traces hold millions of ops, so the op's size is the traces' memory.
// The field order packs the six one-byte fields behind the four uint64s;
// a reorder that re-pads the struct must be deliberate.
func TestMicroOpSize(t *testing.T) {
	if got := unsafe.Sizeof(MicroOp{}); got != 40 {
		t.Errorf("unsafe.Sizeof(MicroOp{}) = %d, want 40", got)
	}
}

func TestClassString(t *testing.T) {
	cases := map[Class]string{
		IntALU: "IntALU", IntMul: "IntMul", IntDiv: "IntDiv",
		FPAdd: "FPAdd", FPMul: "FPMul", FPDiv: "FPDiv",
		Load: "Load", Store: "Store", Branch: "Branch",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("Class(%d).String() = %q, want %q", c, got, want)
		}
	}
	if got := Class(200).String(); got != "Class(200)" {
		t.Errorf("unknown class String() = %q", got)
	}
}

func TestClassPredicates(t *testing.T) {
	for c := Class(0); c < NumClasses; c++ {
		wantMem := c == Load || c == Store
		if got := c.IsMem(); got != wantMem {
			t.Errorf("%s.IsMem() = %v, want %v", c, got, wantMem)
		}
		wantFP := c == FPAdd || c == FPMul || c == FPDiv
		if got := c.IsFP(); got != wantFP {
			t.Errorf("%s.IsFP() = %v, want %v", c, got, wantFP)
		}
	}
}

func TestClassFU(t *testing.T) {
	cases := map[Class]FUKind{
		IntALU: FUIntALU, IntMul: FUIntALU, IntDiv: FUIntALU, Branch: FUIntALU,
		FPAdd: FUFP, FPMul: FUFP, FPDiv: FUFP,
		Load: FUAGU, Store: FUAGU,
	}
	for c, want := range cases {
		if got := c.FU(); got != want {
			t.Errorf("%s.FU() = %s, want %s", c, got, want)
		}
	}
}

func TestExecLatencyPositive(t *testing.T) {
	for c := Class(0); c < NumClasses; c++ {
		if l := c.ExecLatency(); l < 1 {
			t.Errorf("%s.ExecLatency() = %d, want >= 1", c, l)
		}
	}
	if IntALU.ExecLatency() != 1 {
		t.Errorf("IntALU latency = %d, want 1", IntALU.ExecLatency())
	}
	if !IntMul.Pipelined() || IntDiv.Pipelined() || FPDiv.Pipelined() {
		t.Error("pipelining predicate wrong: divides must be unpipelined, multiplies pipelined")
	}
}

func TestRegConstructorsAndRanges(t *testing.T) {
	r := IntReg(3)
	if r.IsFP() || !r.Valid() || r.String() != "r3" {
		t.Errorf("IntReg(3) = %v (fp=%v valid=%v)", r, r.IsFP(), r.Valid())
	}
	f := FPReg(5)
	if !f.IsFP() || !f.Valid() || f.String() != "f5" {
		t.Errorf("FPReg(5) = %v (fp=%v valid=%v)", f, f.IsFP(), f.Valid())
	}
	if RegNone.Valid() || RegNone.IsFP() || RegNone.String() != "-" {
		t.Errorf("RegNone misbehaves: valid=%v fp=%v s=%q", RegNone.Valid(), RegNone.IsFP(), RegNone.String())
	}
}

func TestRegConstructorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("IntReg(-1)", func() { IntReg(-1) })
	mustPanic("IntReg(max)", func() { IntReg(NumIntRegs) })
	mustPanic("FPReg(max)", func() { FPReg(NumFPRegs) })
}

func TestOverlaps(t *testing.T) {
	ld := func(addr uint64, size uint8) *MicroOp {
		return &MicroOp{Class: Load, Addr: addr, Size: size}
	}
	st := func(addr uint64, size uint8) *MicroOp {
		return &MicroOp{Class: Store, Addr: addr, Size: size}
	}
	tests := []struct {
		name string
		a, b *MicroOp
		want bool
	}{
		{"same", ld(100, 4), st(100, 4), true},
		{"contained", ld(100, 8), st(102, 2), true},
		{"tail overlap", ld(100, 4), st(103, 4), true},
		{"adjacent", ld(100, 4), st(104, 4), false},
		{"disjoint", ld(100, 4), st(200, 4), false},
		{"non-mem a", &MicroOp{Class: IntALU}, st(0, 4), false},
		{"non-mem b", ld(0, 4), &MicroOp{Class: Branch}, false},
	}
	for _, tc := range tests {
		if got := tc.a.Overlaps(tc.b); got != tc.want {
			t.Errorf("%s: Overlaps = %v, want %v", tc.name, got, tc.want)
		}
		if got := tc.b.Overlaps(tc.a); got != tc.want {
			t.Errorf("%s (sym): Overlaps = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestOverlapsSymmetricProperty(t *testing.T) {
	f := func(a1, a2 uint16, s1, s2 uint8) bool {
		u := &MicroOp{Class: Load, Addr: uint64(a1), Size: s1%16 + 1}
		v := &MicroOp{Class: Store, Addr: uint64(a2), Size: s2%16 + 1}
		return u.Overlaps(v) == v.Overlaps(u)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMicroOpString(t *testing.T) {
	u := &MicroOp{Seq: 7, PC: 0x400, Class: Load, Dst: IntReg(1), Src1: IntReg(2), Src2: RegNone, Addr: 0x1000, Size: 8}
	s := u.String()
	for _, frag := range []string{"#7", "Load", "r1", "r2", "0x1000"} {
		if !contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
	b := &MicroOp{Class: Branch, Dst: RegNone, Src1: RegNone, Src2: RegNone, Taken: true, Target: 0x500}
	if !contains(b.String(), "taken=true") {
		t.Errorf("branch String() = %q missing outcome", b.String())
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
