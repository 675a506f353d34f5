package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"casino/internal/isa"
)

// Binary trace format:
//
//	magic "CSNT" | u16 version | u16 nameLen | name bytes | u64 count |
//	count records of: u64 pc | u8 class | u8 dst | u8 src1 | u8 src2 |
//	                  u64 addr | u8 size | u8 flags | u64 target
//
// Seq is implied by record position. flags bit0 = branch taken.
const (
	codecMagic   = "CSNT"
	codecVersion = 1
)

var errBadMagic = errors.New("trace: bad magic (not a CASINO trace file)")

// Write encodes t to w in the binary trace format.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(codecMagic); err != nil {
		return err
	}
	var hdr [2]byte
	binary.LittleEndian.PutUint16(hdr[:], codecVersion)
	bw.Write(hdr[:])
	if len(t.Name) > 0xFFFF {
		return fmt.Errorf("trace: name too long (%d bytes)", len(t.Name))
	}
	binary.LittleEndian.PutUint16(hdr[:], uint16(len(t.Name)))
	bw.Write(hdr[:])
	bw.WriteString(t.Name)
	var n8 [8]byte
	binary.LittleEndian.PutUint64(n8[:], uint64(len(t.Ops)))
	bw.Write(n8[:])
	var rec [30]byte
	for i := range t.Ops {
		op := &t.Ops[i]
		binary.LittleEndian.PutUint64(rec[0:], op.PC)
		rec[8] = byte(op.Class)
		rec[9] = byte(op.Dst)
		rec[10] = byte(op.Src1)
		rec[11] = byte(op.Src2)
		binary.LittleEndian.PutUint64(rec[12:], op.Addr)
		rec[20] = op.Size
		var flags byte
		if op.Taken {
			flags |= 1
		}
		rec[21] = flags
		binary.LittleEndian.PutUint64(rec[22:], op.Target)
		// rec[30] unused padding kept at zero
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read decodes a trace written by Write.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, err
	}
	if string(magic) != codecMagic {
		return nil, errBadMagic
	}
	var hdr [2]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	if v := binary.LittleEndian.Uint16(hdr[:]); v != codecVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	nameLen := binary.LittleEndian.Uint16(hdr[:])
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, err
	}
	var n8 [8]byte
	if _, err := io.ReadFull(br, n8[:]); err != nil {
		return nil, err
	}
	count := binary.LittleEndian.Uint64(n8[:])
	const maxOps = 1 << 32
	if count > maxOps {
		return nil, fmt.Errorf("trace: implausible op count %d", count)
	}
	// The header's count is untrusted: reserve at most maxReserve ops up
	// front and grow as records arrive, so a forged count ends in a
	// truncation error instead of a runtime out-of-memory crash.
	const maxReserve = 1 << 14 // 768 KiB of MicroOps
	t := &Trace{Name: string(name), Ops: make([]isa.MicroOp, 0, min(count, maxReserve))}
	var rec [30]byte
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("trace: truncated at op %d: %w", i, err)
		}
		t.Ops = append(t.Ops, isa.MicroOp{
			Seq:    i,
			PC:     binary.LittleEndian.Uint64(rec[0:]),
			Class:  isa.Class(rec[8]),
			Dst:    isa.Reg(rec[9]),
			Src1:   isa.Reg(rec[10]),
			Src2:   isa.Reg(rec[11]),
			Addr:   binary.LittleEndian.Uint64(rec[12:]),
			Size:   rec[20],
			Taken:  rec[21]&1 != 0,
			Target: binary.LittleEndian.Uint64(rec[22:]),
		})
	}
	return t, t.Validate()
}
