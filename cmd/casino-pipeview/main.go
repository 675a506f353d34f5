// Command casino-pipeview renders a pipeline view of a short run of any of
// the repository's core models: for each dynamic instruction, the cycles at
// which it was fetched, dispatched, passed down the cascade (CASINO),
// issued (speculatively or in order), completed and committed — the
// quickest way to *see* cascaded in-order scheduling producing an
// out-of-order schedule, and to compare it against the InO/OoO/slice/
// SpecInO baselines.
//
// Besides the text table it can emit the same window as a Konata-loadable
// Kanata trace or a Perfetto-loadable Chrome trace-event JSON:
//
//	casino-pipeview -model casino -workload libquantum -skip 2000 -n 40
//	casino-pipeview -model ooo -format kanata -o trace.kanata
//	casino-pipeview -model specino -format chrome -o trace.json
//	casino-pipeview -validate trace.json
//
// Tracing always runs cycle-by-cycle: an active sink disables event-horizon
// fast-forwarding so every stall cycle is observed rather than summarized.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"casino/internal/ptrace"
	"casino/internal/sim"
	"casino/internal/workload"
)

func main() {
	var (
		model    = flag.String("model", "casino", "core model: "+strings.Join(sim.Models(), ", "))
		wl       = flag.String("workload", "libquantum", "workload profile")
		seed     = flag.Int64("seed", 1, "generation seed")
		skip     = flag.Uint64("skip", 2000, "skip this many instructions (warm-up)")
		n        = flag.Uint64("n", 32, "instructions to display")
		format   = flag.String("format", "text", "output format: text, kanata, chrome")
		out      = flag.String("o", "", "output file (default stdout)")
		validate = flag.String("validate", "", "validate a Chrome trace-event JSON file and exit")
		ws       = flag.Int("ws", 2, "SpecInO window size (specino model only)")
		so       = flag.Int("so", 1, "SpecInO sliding offset (specino model only)")
	)
	flag.Parse()

	if *validate != "" {
		f, err := os.Open(*validate)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := ptrace.ValidateChrome(f); err != nil {
			fail(fmt.Errorf("%s: %w", *validate, err))
		}
		fmt.Printf("%s: valid Chrome trace-event JSON\n", *validate)
		return
	}
	if *n == 0 {
		fail(fmt.Errorf("-n must be positive"))
	}

	p, err := workload.ByName(*wl)
	if err != nil {
		fail(err)
	}
	// A little slack past the window lets the tail of the displayed
	// instructions complete and commit before the run stops.
	ops := int(*skip+*n) + 64
	tr := workload.Generate(p, ops, *seed)

	w := io.Writer(os.Stdout)
	var outFile *os.File
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		w, outFile = f, f
	}

	label := func(seq uint64) string {
		if seq >= uint64(len(tr.Ops)) {
			return fmt.Sprintf("seq %d", seq)
		}
		op := &tr.Ops[seq]
		return fmt.Sprintf("%s %s<-[%s,%s]", op.Class, op.Dst, op.Src1, op.Src2)
	}

	collector := &ptrace.Collector{}
	var sink ptrace.Sink = collector
	switch *format {
	case "text":
	case "kanata":
		ks := ptrace.NewKanataSink(w)
		ks.Label = label
		sink = ks
	case "chrome":
		cs := ptrace.NewChromeSink(w, *model)
		cs.Label = label
		sink = cs
	default:
		fail(fmt.Errorf("unknown -format %q (text, kanata, chrome)", *format))
	}

	spec := sim.Spec{
		Model:    *model,
		Workload: *wl,
		Ops:      ops,
		Warmup:   0,
		Seed:     *seed,
		Trace:    tr,
		// The sink implies cycle-by-cycle simulation (no fast-forward), so
		// the trace observes every stall cycle.
		TraceSink:   sink,
		TraceWindow: ptrace.Window{MinSeq: *skip, MaxSeq: *skip + *n},
	}
	if *model == sim.ModelSpecInO {
		cfg := sim.DefaultSpecInO(*ws, *so)
		spec.SpecInOCfg = &cfg
	}
	res, err := sim.Run(spec)
	if err != nil {
		fail(err)
	}
	if err := sink.Close(); err != nil {
		fail(err)
	}
	if *format == "text" {
		// Buffered, so a failed write surfaces at Flush.
		bw := bufio.NewWriter(w)
		printView(bw, *model, *wl, *skip, *n, collector.Events(), label, res)
		if err := bw.Flush(); err != nil {
			fail(err)
		}
	}
	if outFile != nil {
		// A failed close can leave the file truncated: report it.
		if err := outFile.Close(); err != nil {
			fail(err)
		}
	}
}

// printView renders the text pipeline table for instructions skip..skip+n-1
// and the whole run's CPI stack.
func printView(w io.Writer, model, wl string, skip, n uint64, evs []ptrace.Event, label func(uint64) string, res sim.Result) {
	tl := ptrace.BuildTimeline(evs)
	fmt.Fprintf(w, "%s pipeline view — %s, instructions %d..%d\n", model, wl, skip, skip+n-1)
	fmt.Fprintf(w, "%-5s %-22s %6s %9s %6s %9s %9s %8s %s\n",
		"seq", "op", "fetch", "dispatch", "pass", "issue", "complete", "commit", "path")
	var base int64 = -1
	for _, r := range tl.Recs {
		if base < 0 {
			if r.Fetch >= 0 {
				base = r.Fetch
			} else if r.Dispatch >= 0 {
				base = r.Dispatch
			}
		}
		path := "in order"
		if r.Spec {
			path = "speculative"
		}
		if r.Issue < 0 {
			path = "-"
		}
		if r.Squashes > 0 {
			path += fmt.Sprintf(" (%dx squashed)", r.Squashes)
		}
		desc := label(r.Seq)
		if len(desc) > 22 {
			desc = desc[:22]
		}
		fmt.Fprintf(w, "%-5d %-22s %6s %9s %6s %9s %9s %8s %s\n",
			r.Seq, desc, rel(r.Fetch, base), rel(r.Dispatch, base), rel(r.Pass, base),
			rel(r.Issue, base), rel(r.Complete, base), rel(r.Commit, base), path)
	}
	fmt.Fprintln(w, "\ncycles relative to the first displayed fetch; '-' = stage absent")
	fmt.Fprintln(w, "out-of-order issue shows as a younger instruction's issue preceding an older one's.")

	// Whole-run CPI stack (the displayed window is a slice of this run).
	cycles := res.Extra["cpi.cycles"]
	if cycles > 0 {
		fmt.Fprintf(w, "\nCPI stack over the whole run (%d cycles, IPC %.3f):\n", uint64(cycles), res.IPC)
		for _, b := range ptrace.BucketNames() {
			v := res.Extra["cpi."+b]
			if v == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-10s %6.1f%%\n", b, 100*v/cycles)
		}
	}
}

func rel(c, base int64) string {
	if c < 0 {
		return "-"
	}
	return fmt.Sprintf("%d", c-base)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "casino-pipeview:", err)
	os.Exit(1)
}
