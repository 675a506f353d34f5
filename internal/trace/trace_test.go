package trace

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"casino/internal/isa"
)

func sampleTrace() *Trace {
	ops := []isa.MicroOp{
		{Seq: 0, PC: 0x100, Class: isa.IntALU, Dst: isa.IntReg(1), Src1: isa.IntReg(2), Src2: isa.RegNone},
		{Seq: 1, PC: 0x104, Class: isa.Load, Dst: isa.IntReg(3), Src1: isa.IntReg(1), Src2: isa.RegNone, Addr: 0x1000, Size: 8},
		{Seq: 2, PC: 0x108, Class: isa.Store, Dst: isa.RegNone, Src1: isa.IntReg(3), Src2: isa.IntReg(1), Addr: 0x2000, Size: 4},
		{Seq: 3, PC: 0x10c, Class: isa.FPMul, Dst: isa.FPReg(0), Src1: isa.FPReg(1), Src2: isa.FPReg(2)},
		{Seq: 4, PC: 0x110, Class: isa.Branch, Dst: isa.RegNone, Src1: isa.IntReg(1), Src2: isa.RegNone, Taken: true, Target: 0x100},
	}
	return &Trace{Name: "sample", Ops: ops}
}

func TestReaderWalk(t *testing.T) {
	tr := sampleTrace()
	r := tr.Reader()
	if r.Done() {
		t.Fatal("fresh reader Done")
	}
	if op := r.Peek(0); op == nil || op.Seq != 0 {
		t.Fatalf("Peek(0) = %v", op)
	}
	if op := r.Peek(2); op == nil || op.Seq != 2 {
		t.Fatalf("Peek(2) = %v", op)
	}
	if op := r.Peek(-1); op != nil {
		t.Fatalf("Peek(-1) = %v, want nil", op)
	}
	var seqs []uint64
	for op := r.Next(); op != nil; op = r.Next() {
		seqs = append(seqs, op.Seq)
	}
	if len(seqs) != 5 || seqs[4] != 4 {
		t.Fatalf("walked %v", seqs)
	}
	if !r.Done() || r.Next() != nil {
		t.Error("exhausted reader should be Done and return nil")
	}
	r.Reset()
	if r.Pos() != 0 || r.Done() {
		t.Error("Reset did not rewind")
	}
	r.Advance(3)
	if r.Pos() != 3 {
		t.Errorf("Pos after Advance(3) = %d", r.Pos())
	}
	r.Advance(100)
	if r.Pos() != 5 {
		t.Errorf("Advance should clamp, Pos = %d", r.Pos())
	}
	r.Seek(-3)
	if r.Pos() != 0 {
		t.Errorf("Seek(-3) should clamp to 0, Pos = %d", r.Pos())
	}
	r.Seek(2)
	if op := r.Peek(0); op == nil || op.Seq != 2 {
		t.Errorf("after Seek(2) Peek = %v", op)
	}
}

func TestStats(t *testing.T) {
	m := sampleTrace().Stats()
	if m.Total != 5 {
		t.Errorf("Total = %d", m.Total)
	}
	if m.LoadFrac() != 0.2 || m.StoreFrac() != 0.2 || m.BranchFrac() != 0.2 || m.FPFrac() != 0.2 {
		t.Errorf("fractions: load=%v store=%v br=%v fp=%v", m.LoadFrac(), m.StoreFrac(), m.BranchFrac(), m.FPFrac())
	}
	if m.Taken != 1 {
		t.Errorf("Taken = %d", m.Taken)
	}
	if m.MemBytes != 12 {
		t.Errorf("MemBytes = %d", m.MemBytes)
	}
	if m.DistinctPCs != 5 {
		t.Errorf("DistinctPCs = %d", m.DistinctPCs)
	}
	if s := m.String(); !strings.Contains(s, "ops=5") {
		t.Errorf("Mix.String() = %q", s)
	}
}

func TestValidate(t *testing.T) {
	if err := sampleTrace().Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	bad := sampleTrace()
	bad.Ops[2].Seq = 7
	if err := bad.Validate(); err == nil {
		t.Error("bad Seq accepted")
	}
	bad = sampleTrace()
	bad.Ops[1].Size = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero-size load accepted")
	}
	bad = sampleTrace()
	bad.Ops[0].Dst = isa.Reg(200)
	if err := bad.Validate(); err == nil {
		t.Error("bad register accepted")
	}
	bad = sampleTrace()
	bad.Ops[0].Class = isa.NumClasses
	if err := bad.Validate(); err == nil {
		t.Error("bad class accepted")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Name != tr.Name || len(got.Ops) != len(tr.Ops) {
		t.Fatalf("round trip mismatch: name=%q n=%d", got.Name, len(got.Ops))
	}
	for i := range tr.Ops {
		if got.Ops[i] != tr.Ops[i] {
			t.Errorf("op %d: got %+v want %+v", i, got.Ops[i], tr.Ops[i])
		}
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOPE0000"))); err == nil {
		t.Error("garbage accepted")
	}
	var buf bytes.Buffer
	if err := Write(&buf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := Read(bytes.NewReader(raw[:len(raw)-5])); err == nil {
		t.Error("truncated trace accepted")
	}
	// Corrupt the version field.
	raw2 := append([]byte(nil), raw...)
	raw2[4] = 0xFF
	if _, err := Read(bytes.NewReader(raw2)); err == nil {
		t.Error("bad version accepted")
	}
}

// Changing any one field of any op must change Refingerprint, and equal
// traces must hash equal: the golden gate and the trace cache's integrity
// check both rely on it.
func TestFingerprintSensitivity(t *testing.T) {
	base := sampleTrace()
	want := base.Refingerprint()
	if got := sampleTrace().Refingerprint(); got != want {
		t.Fatalf("equal traces hash %016x and %016x", want, got)
	}
	if got := base.Fingerprint(); got != want {
		t.Fatalf("Fingerprint = %016x, Refingerprint = %016x", got, want)
	}
	edits := map[string]func(*isa.MicroOp){
		"Seq":    func(op *isa.MicroOp) { op.Seq++ },
		"PC":     func(op *isa.MicroOp) { op.PC ^= 1 << 63 },
		"Addr":   func(op *isa.MicroOp) { op.Addr ^= 1 << 40 },
		"Target": func(op *isa.MicroOp) { op.Target++ },
		"Class":  func(op *isa.MicroOp) { op.Class = (op.Class + 1) % isa.NumClasses },
		"Dst":    func(op *isa.MicroOp) { op.Dst ^= 1 },
		"Src1":   func(op *isa.MicroOp) { op.Src1 ^= 0x80 },
		"Src2":   func(op *isa.MicroOp) { op.Src2 ^= 2 },
		"Size":   func(op *isa.MicroOp) { op.Size++ },
		"Taken":  func(op *isa.MicroOp) { op.Taken = !op.Taken },
	}
	if n := reflect.TypeOf(isa.MicroOp{}).NumField(); n != len(edits) {
		t.Fatalf("MicroOp has %d fields, the test edits %d: cover the new field", n, len(edits))
	}
	for name, edit := range edits {
		for i := range base.Ops {
			tr := sampleTrace()
			edit(&tr.Ops[i])
			if got := tr.Refingerprint(); got == want {
				t.Errorf("changing %s of op %d left the fingerprint at %016x", name, i, got)
			}
		}
	}
}

func TestCodecPropertyRoundTrip(t *testing.T) {
	f := func(pc, addr, target uint64, class, dst, s1, s2, size uint8, taken bool) bool {
		op := isa.MicroOp{
			Seq:    0,
			PC:     pc,
			Class:  isa.Class(class % uint8(isa.NumClasses)),
			Dst:    isa.Reg(dst % isa.NumArchRegs),
			Src1:   isa.Reg(s1 % isa.NumArchRegs),
			Src2:   isa.Reg(s2 % isa.NumArchRegs),
			Addr:   addr,
			Size:   size%16 + 1,
			Taken:  taken,
			Target: target,
		}
		tr := &Trace{Name: "p", Ops: []isa.MicroOp{op}}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		return got.Ops[0] == op
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// forgedCount is a 20-byte input that claims 2^32 ops: magic, version 1,
// an empty name, the count, and the first 4 bytes of a record. Sizing the
// op slice from the header would ask for 160 GiB.
func forgedCount() []byte {
	b := []byte(codecMagic)
	b = binary.LittleEndian.AppendUint16(b, codecVersion)
	b = binary.LittleEndian.AppendUint16(b, 0)
	b = binary.LittleEndian.AppendUint64(b, 1<<32)
	return append(b, 0, 1, 0, 0)
}

// Read must not trust the header's op count: a forged count costs a
// truncation error and a bounded reservation, not the allocation it asks
// for.
func TestReadForgedCountAllocatesLittle(t *testing.T) {
	in := forgedCount()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err := Read(bytes.NewReader(in))
	runtime.ReadMemStats(&m1)
	if err == nil || !strings.Contains(err.Error(), "truncated at op 0") {
		t.Errorf("Read(forged count) error = %v, want a truncation at op 0", err)
	}
	if got := m1.TotalAlloc - m0.TotalAlloc; got >= 1<<20 {
		t.Errorf("Read(forged count) allocated %d bytes, want < 1 MiB", got)
	}
}

// FuzzRead feeds the decoder arbitrary bytes. It must return an error
// rather than panic, and whatever it accepts must survive a Write/Read
// round trip unchanged. The seed corpus in testdata/fuzz/FuzzRead holds a
// valid trace, a truncated one and the forged-count header.
func FuzzRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatalf("Write of a decoded trace: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read of a re-encoded trace: %v", err)
		}
		if !reflect.DeepEqual(tr, back) {
			t.Fatalf("round trip changed the trace:\n%+v\n%+v", tr, back)
		}
	})
}
