package ptrace

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// goldenWindow builds the deterministic 50-op event stream the codec
// round-trip tests run against: a CASINO-shaped pipeline with cascaded
// passes, mixed spec/in-order issue, one squash-and-reexecute instruction
// and a sprinkle of stall samples. Events are emitted in lifecycle order
// per instruction (complete at issue time with a future cycle), matching
// the cores' emission discipline.
func goldenWindow() []Event {
	var evs []Event
	add := func(cycle int64, seq uint64, k Kind) {
		evs = append(evs, Event{Cycle: cycle, Seq: seq, Kind: k})
	}
	for i := int64(0); i < 50; i++ {
		seq := uint64(i)
		add(i, seq, KindFetch)
		add(i+2, seq, KindDispatch)
		if i%3 == 0 {
			add(i+3, seq, KindPass)
		}
		issue := i + 4
		if i == 25 {
			// First execution issues speculatively, gets squashed the
			// cycle its (already reported) completion lands, then
			// re-executes in order.
			add(issue, seq, KindIssueSpec)
			add(issue+1, seq, KindComplete)
			add(issue+1, seq, KindSquash)
			add(issue+1, seq, KindFlush)
			add(issue+2, seq, KindFetch)
			add(issue+3, seq, KindDispatch)
			add(issue+4, seq, KindIssue)
			add(issue+5, seq, KindComplete)
			add(issue+6, seq, KindCommit)
			continue
		}
		if i%2 == 0 {
			add(issue, seq, KindIssueSpec)
		} else {
			add(issue, seq, KindIssue)
		}
		lat := 1 + i%4
		add(issue+lat, seq, KindComplete)
		add(issue+lat+2, seq, KindCommit)
	}
	evs = append(evs,
		Event{Cycle: 4, Seq: 1, Kind: KindStall, Stall: BucketSrc},
		Event{Cycle: 5, Seq: 2, Kind: KindStall, Stall: BucketSrc},
		Event{Cycle: 6, Seq: 2, Kind: KindStall, Stall: BucketDCache},
		Event{Cycle: 29, Seq: 25, Kind: KindStall, Stall: BucketReplay},
		Event{Cycle: 30, Seq: 25, Kind: KindStall, Stall: BucketFU},
	)
	return evs
}

func TestKanataRoundTrip(t *testing.T) {
	evs := goldenWindow()
	want := BuildTimeline(evs)

	var buf bytes.Buffer
	label := func(seq uint64) string { return fmt.Sprintf("op_%d r%d", seq, seq%32) }
	if err := EncodeKanata(&buf, evs, label); err != nil {
		t.Fatalf("EncodeKanata: %v", err)
	}
	text := buf.String()
	if !strings.HasPrefix(text, kanataHeader+"\n") {
		t.Fatalf("missing Kanata header, got %q...", text[:20])
	}
	// One I record per execution: 50 ops + 1 re-execution of seq 25, each
	// with a unique id.
	ids := make(map[string]bool)
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "I\t") {
			id := strings.Split(line, "\t")[1]
			if ids[id] {
				t.Fatalf("duplicate Kanata id %s", id)
			}
			ids[id] = true
		}
	}
	if len(ids) != 51 {
		t.Fatalf("got %d I records, want 51 (50 ops + 1 re-execution)", len(ids))
	}

	decoded, err := ParseKanata(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseKanata: %v", err)
	}
	got := BuildTimeline(decoded)
	// Kanata has no stall/flush lane, so only the per-instruction records
	// must survive the round trip.
	if !reflect.DeepEqual(want.Recs, got.Recs) {
		for i := range want.Recs {
			if i < len(got.Recs) && !reflect.DeepEqual(want.Recs[i], got.Recs[i]) {
				t.Errorf("rec %d:\n want %+v\n got  %+v", i, want.Recs[i], got.Recs[i])
			}
		}
		t.Fatalf("timeline mismatch after Kanata round trip (%d vs %d recs)",
			len(want.Recs), len(got.Recs))
	}
}

// FuzzParseKanata feeds arbitrary bytes to ParseKanata, which must never
// panic. When it accepts a log, re-encoding the events it returned drops
// what the encoder always drops (events outside an instruction's
// fetch-to-retire span) and sorts them by cycle; the log EncodeKanata
// writes for that lifecycle stream must parse back to exactly it.
func FuzzParseKanata(f *testing.F) {
	roundTrip := func(t *testing.T, evs []Event) []Event {
		var buf bytes.Buffer
		if err := EncodeKanata(&buf, evs, nil); err != nil {
			t.Fatalf("EncodeKanata: %v", err)
		}
		back, err := ParseKanata(&buf)
		if err != nil {
			t.Fatalf("ParseKanata of an encoded log: %v\n%s", err, buf.String())
		}
		return back
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := ParseKanata(bytes.NewReader(data))
		if err != nil {
			return
		}
		lifecycle := roundTrip(t, evs)
		if back := roundTrip(t, lifecycle); !slices.Equal(back, lifecycle) {
			t.Fatalf("an encoded lifecycle stream parsed back differently:\n want %+v\n got  %+v", lifecycle, back)
		}
	})
}

func TestKanataRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"",
		"O3PipeView\n",
		kanataHeader + "\nS\t0\t0\tF\n", // stage for undeclared id
		kanataHeader + "\nX\t1\t2\t3\n", // unknown record type
		kanataHeader + "\nI\t0\n",       // short I record
		kanataHeader + "\nI\t0\t5\t0\nS\t0\t0\tQQ\n", // unknown stage
	} {
		if _, err := ParseKanata(strings.NewReader(in)); err == nil {
			t.Errorf("ParseKanata(%q) accepted garbage", in)
		}
	}
}

func TestChromeRoundTrip(t *testing.T) {
	evs := goldenWindow()
	want := BuildTimeline(evs)

	var buf bytes.Buffer
	if err := EncodeChrome(&buf, evs, "casino", nil); err != nil {
		t.Fatalf("EncodeChrome: %v", err)
	}
	raw := buf.Bytes()
	if err := ValidateChrome(bytes.NewReader(raw)); err != nil {
		t.Fatalf("generated trace fails schema validation: %v", err)
	}
	got, err := ParseChromeTimeline(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ParseChromeTimeline: %v", err)
	}
	if !reflect.DeepEqual(want.Recs, got.Recs) {
		t.Fatalf("record mismatch after Chrome round trip:\n want %+v\n got  %+v",
			want.Recs, got.Recs)
	}
	if want.Stalls != got.Stalls {
		t.Fatalf("stall counts mismatch: want %v, got %v", want.Stalls, got.Stalls)
	}
}

func TestValidateChromeRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"not json",
		`{"foo": 1}`,
		`{"traceEvents": 3}`,
		`{"traceEvents": [{"ph":"X"}]}`, // missing name/pid/tid/ts
		`{"traceEvents": [{"ph":"Z","name":"x","pid":1,"tid":1}]}`,         // unsupported phase
		`{"traceEvents": [{"ph":"X","name":"x","pid":1,"tid":1,"ts":-5}]}`, // negative ts
		`{"traceEvents": [{"ph":"i","name":"x","pid":1,"tid":1}]}`,         // instant without ts
	} {
		if err := ValidateChrome(strings.NewReader(in)); err == nil {
			t.Errorf("ValidateChrome(%q) accepted garbage", in)
		}
	}
}
