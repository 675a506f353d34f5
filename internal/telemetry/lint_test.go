package telemetry

import (
	"bufio"
	"bytes"
	"strings"
	"testing"
)

func TestLintAccepts(t *testing.T) {
	const good = `# arbitrary comment
# HELP a_total Things.
# TYPE a_total counter
a_total 5
# TYPE b gauge
b{x="1"} 2.5
b{x="2"} +Inf
# TYPE lat summary
lat{quantile="0.5"} 3
lat_sum 12.5
lat_count 4
# TYPE sz histogram
sz_bucket{le="10"} 1
sz_bucket{le="+Inf"} 2
sz_sum 11
sz_count 2
c_ts_total 1 1700000000000
`
	src := "# TYPE c_ts_total counter\n" + good
	n, err := Lint(strings.NewReader(src))
	if err != nil {
		t.Fatalf("Lint rejected valid exposition: %v", err)
	}
	if n != 11 {
		t.Errorf("series = %d, want 11", n)
	}
}

func TestLintRejects(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"no TYPE", "a_total 1\n", "no preceding # TYPE"},
		{"bad type keyword", "# TYPE a woble\na 1\n", "unknown metric type"},
		{"duplicate TYPE", "# TYPE a gauge\n# TYPE a gauge\na 1\n", "duplicate TYPE"},
		{"duplicate HELP", "# HELP a x\n# HELP a y\n# TYPE a gauge\na 1\n", "duplicate HELP"},
		{"TYPE after sample", "# TYPE a gauge\na 1\n# TYPE b gauge\nb 1\n# TYPE a gauge\n", "duplicate TYPE"},
		{"bad metric name", "# TYPE a gauge\n9a 1\n", "invalid metric name"},
		{"bad label name", "# TYPE a gauge\na{9x=\"1\"} 1\n", "invalid label name"},
		{"reserved label name", "# TYPE a gauge\na{__x=\"1\"} 1\n", "invalid label name"},
		{"unquoted label value", "# TYPE a gauge\na{x=1} 1\n", "not quoted"},
		{"bad escape", "# TYPE a gauge\na{x=\"\\t\"} 1\n", `invalid escape`},
		{"unterminated value", "# TYPE a gauge\na{x=\"oops} 1\n", "unterminated"},
		{"bad value", "# TYPE a gauge\na zero\n", "bad sample value"},
		{"bad timestamp", "# TYPE a gauge\na 1 soon\n", "bad timestamp"},
		{"duplicate series", "# TYPE a gauge\na{x=\"1\"} 1\na{x=\"1\"} 2\n", "duplicate series"},
		{"duplicate series reordered labels", "# TYPE a gauge\na{x=\"1\",y=\"2\"} 1\na{y=\"2\",x=\"1\"} 2\n", "duplicate series"},
		{"summary stray sample", "# TYPE s summary\ns_other 1\n", "no preceding # TYPE"},
		{"summary quantile on sum", "# TYPE s summary\ns_sum{quantile=\"0.5\"} 1\n", "must not carry a quantile"},
		{"histogram bucket without le", "# TYPE h histogram\nh_bucket 1\n", "missing required le"},
		{"gauge with reserved label", "# TYPE g gauge\ng{le=\"1\"} 1\n", "reserved quantile/le"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Lint(strings.NewReader(tc.src))
			if err == nil {
				t.Fatalf("Lint accepted %q", tc.src)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestLintReportsEverything: independent violations are all reported,
// each with its line number.
func TestLintReportsEverything(t *testing.T) {
	src := "# TYPE a gauge\na zero\nb 1\n"
	_, err := Lint(strings.NewReader(src))
	if err == nil {
		t.Fatal("expected errors")
	}
	for _, want := range []string{"line 2", "bad sample value", "line 3", "no preceding # TYPE"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error %q missing %q", err, want)
		}
	}
}

// FuzzLint feeds arbitrary bytes to Lint, which must never panic. When it
// accepts a stream, the series count it returns is the number of sample
// lines: every non-blank line that is not a # comment.
func FuzzLint(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := Lint(bytes.NewReader(data))
		if err != nil {
			return
		}
		samples := 0
		sc := bufio.NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
				samples++
			}
		}
		if n != samples {
			t.Fatalf("Lint accepted %d sample lines but counted %d series", samples, n)
		}
	})
}
