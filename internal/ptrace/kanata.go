package ptrace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Kanata stage names, one per lifecycle kind. The Konata viewer renders
// each S record as a colored stage segment, so the spec-vs-in-order issue
// distinction survives the encoding ("Ss" vs "Is").
const (
	kanataHeader = "Kanata\t0004"

	stageFetch     = "F"
	stageDispatch  = "Dp"
	stagePass      = "Iq"
	stageIssue     = "Is"
	stageIssueSpec = "Ss"
	stageComplete  = "Cp"
)

var kindToStage = map[Kind]string{
	KindFetch:     stageFetch,
	KindDispatch:  stageDispatch,
	KindPass:      stagePass,
	KindIssue:     stageIssue,
	KindIssueSpec: stageIssueSpec,
	KindComplete:  stageComplete,
}

var stageToKind = map[string]Kind{
	stageFetch:     KindFetch,
	stageDispatch:  KindDispatch,
	stagePass:      KindPass,
	stageIssue:     KindIssue,
	stageIssueSpec: KindIssueSpec,
	stageComplete:  KindComplete,
}

// KanataSink buffers the event stream and, at Close, encodes it as a
// Kanata 0004 log loadable in the Konata pipeline viewer. Buffering is
// required because Kanata time only moves forward while complete events
// are emitted at issue time with future cycles; Close stable-sorts by
// cycle before encoding. A squashed-and-refetched instruction gets a fresh
// Kanata id per execution (ids must be unique; the sequence number rides
// in the I record's instruction-id field).
type KanataSink struct {
	w io.Writer
	// Label, when non-nil, supplies the disassembly text shown by Konata
	// for each sequence number.
	Label func(seq uint64) string
	evs   []Event
}

// NewKanataSink creates a sink writing to w at Close.
func NewKanataSink(w io.Writer) *KanataSink { return &KanataSink{w: w} }

// Emit buffers e.
func (s *KanataSink) Emit(e Event) { s.evs = append(s.evs, e) }

// Close encodes the buffered stream and flushes it to the writer.
func (s *KanataSink) Close() error { return EncodeKanata(s.w, s.evs, s.Label) }

// EncodeKanata writes evs as a Kanata 0004 log. label may be nil.
func EncodeKanata(w io.Writer, evs []Event, label func(seq uint64) string) error {
	sorted := make([]Event, len(evs))
	copy(sorted, evs)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Cycle < sorted[j].Cycle })

	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, kanataHeader)

	ids := make(map[uint64]int)       // seq -> active Kanata id
	openStage := make(map[int]string) // id -> currently open stage
	nextID := 0
	started := false
	var cur int64

	endStage := func(id int) {
		if st, ok := openStage[id]; ok {
			fmt.Fprintf(bw, "E\t%d\t0\t%s\n", id, st)
			delete(openStage, id)
		}
	}
	for _, e := range sorted {
		switch e.Kind {
		case KindStall, KindFlush:
			continue // cycle-scoped; no per-instruction lane in Kanata
		}
		if !started {
			fmt.Fprintf(bw, "C=\t%d\n", e.Cycle)
			cur = e.Cycle
			started = true
		} else if e.Cycle > cur {
			fmt.Fprintf(bw, "C\t%d\n", e.Cycle-cur)
			cur = e.Cycle
		}
		id, live := ids[e.Seq]
		switch e.Kind {
		case KindFetch, KindDispatch:
			if !live {
				id = nextID
				nextID++
				ids[e.Seq] = id
				fmt.Fprintf(bw, "I\t%d\t%d\t0\n", id, e.Seq)
				if label != nil {
					fmt.Fprintf(bw, "L\t%d\t0\t%s\n", id, sanitizeKanata(label(e.Seq)))
				}
			}
			endStage(id)
			st := kindToStage[e.Kind]
			fmt.Fprintf(bw, "S\t%d\t0\t%s\n", id, st)
			openStage[id] = st
		case KindPass, KindIssue, KindIssueSpec, KindComplete:
			if !live {
				continue // truncated window: never saw this instruction start
			}
			endStage(id)
			st := kindToStage[e.Kind]
			fmt.Fprintf(bw, "S\t%d\t0\t%s\n", id, st)
			openStage[id] = st
		case KindCommit:
			if !live {
				continue
			}
			endStage(id)
			fmt.Fprintf(bw, "R\t%d\t%d\t0\n", id, id)
			delete(ids, e.Seq)
		case KindSquash:
			if !live {
				continue
			}
			endStage(id)
			fmt.Fprintf(bw, "R\t%d\t%d\t1\n", id, id)
			delete(ids, e.Seq)
		}
	}
	return bw.Flush()
}

// sanitizeKanata strips tab/newline from a label so it cannot break the
// tab-separated record format.
func sanitizeKanata(s string) string {
	return strings.Map(func(r rune) rune {
		if r == '\t' || r == '\n' || r == '\r' {
			return ' '
		}
		return r
	}, s)
}

// ParseKanata decodes a Kanata 0004 log produced by EncodeKanata back into
// an event stream (lifecycle events only; stall events have no Kanata
// representation). It is the codec round-trip counterpart used by tests
// and accepts only the record types the encoder emits.
func ParseKanata(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 16*1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("ptrace: empty Kanata log")
	}
	if got := sc.Text(); got != kanataHeader {
		return nil, fmt.Errorf("ptrace: bad Kanata header %q", got)
	}
	var (
		evs    []Event
		cur    int64
		seqOf  = make(map[int]uint64)
		lineNo = 1
	)
	atoi := func(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) }
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		f := strings.Split(line, "\t")
		bad := func(why string) error {
			return fmt.Errorf("ptrace: Kanata line %d (%q): %s", lineNo, line, why)
		}
		switch f[0] {
		case "C=":
			if len(f) < 2 {
				return nil, bad("missing cycle")
			}
			c, err := atoi(f[1])
			if err != nil {
				return nil, bad(err.Error())
			}
			cur = c
		case "C":
			if len(f) < 2 {
				return nil, bad("missing delta")
			}
			d, err := atoi(f[1])
			if err != nil {
				return nil, bad(err.Error())
			}
			cur += d
		case "I":
			if len(f) < 3 {
				return nil, bad("short I record")
			}
			id, err1 := atoi(f[1])
			seq, err2 := strconv.ParseUint(f[2], 10, 64) // written unsigned
			if err1 != nil || err2 != nil {
				return nil, bad("bad I ids")
			}
			seqOf[int(id)] = seq
		case "S":
			if len(f) < 4 {
				return nil, bad("short S record")
			}
			id, err := atoi(f[1])
			if err != nil {
				return nil, bad(err.Error())
			}
			seq, ok := seqOf[int(id)]
			if !ok {
				return nil, bad("S for undeclared id")
			}
			kind, ok := stageToKind[f[3]]
			if !ok {
				return nil, bad("unknown stage " + f[3])
			}
			evs = append(evs, Event{Cycle: cur, Seq: seq, Kind: kind})
		case "R":
			if len(f) < 4 {
				return nil, bad("short R record")
			}
			id, err1 := atoi(f[1])
			typ, err2 := atoi(f[3])
			if err1 != nil || err2 != nil {
				return nil, bad("bad R fields")
			}
			seq, ok := seqOf[int(id)]
			if !ok {
				return nil, bad("R for undeclared id")
			}
			kind := KindCommit
			if typ == 1 {
				kind = KindSquash
			}
			evs = append(evs, Event{Cycle: cur, Seq: seq, Kind: kind})
		case "E", "L", "W":
			// Stage ends are implied by the next S/R; labels and
			// dependencies carry no timing.
		default:
			return nil, bad("unknown record type")
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return evs, nil
}
