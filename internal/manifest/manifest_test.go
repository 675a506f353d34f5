package manifest

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func sample() *Manifest {
	m := New("fig6")
	m.Ops, m.Warmup, m.Seed = 60000, 15000, 1
	m.Apps = []string{"mcf", "milc"}
	m.Workloads["mcf"] = "00deadbeef00cafe"
	m.Workloads["milc"] = "0123456789abcdef"
	m.Metrics["fig6.norm_ipc_geomean.CASINO"] = 1.384
	m.Metrics["fig6.norm_ipc_geomean.OoO"] = 1.707
	m.WallSeconds = 12.5
	m.AllocBytes = 1 << 20
	m.GoVersion = "go1.24.0"
	return m
}

func TestManifestRoundTrip(t *testing.T) {
	m := sample()
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, back) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, m)
	}
}

func TestManifestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	m := sample()
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, back) {
		t.Fatal("file round trip mismatch")
	}
}

func TestDecodeRejectsVersionMismatch(t *testing.T) {
	for _, v := range []int{0, Version - 1, Version + 1, 999} {
		in := `{"version": ` + strconv.Itoa(v) + `, "kind": "casino-bench/figures", "figure": "fig6"}`
		_, err := Decode(strings.NewReader(in))
		var ve *VersionError
		if !errors.As(err, &ve) || ve.Got != v {
			t.Fatalf("version %d: err = %v, want *VersionError", v, err)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage input should fail to decode")
	}
}

func TestDecodeFillsNilMaps(t *testing.T) {
	in := `{"version": ` + strconv.Itoa(Version) + `, "kind": "casino-bench/figures", "figure": "fig6"}`
	m, err := Decode(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.Metrics == nil || m.Workloads == nil {
		t.Fatal("decoded manifest must have non-nil maps")
	}
}

// FuzzDecode feeds Decode arbitrary bytes. Its seed corpus in
// testdata/fuzz/FuzzDecode holds the golden manifest, a version 1
// document, truncated JSON and a JSON array. Decode must never panic; a
// document that is one JSON object at another schema version must fail
// with a *VersionError; and a decoded manifest must encode and decode
// again to an equal manifest.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(bytes.NewReader(data))
		var doc Manifest
		if json.Unmarshal(data, &doc) == nil && doc.Version != Version {
			var ve *VersionError
			if !errors.As(err, &ve) {
				t.Fatalf("version %d document: err = %v, want *VersionError", doc.Version, err)
			}
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			t.Fatalf("Encode of a decoded manifest: %v", err)
		}
		back, err := Decode(&buf)
		if err != nil {
			t.Fatalf("Decode of a re-encoded manifest: %v", err)
		}
		if !reflect.DeepEqual(m, back) {
			t.Fatalf("round trip changed the manifest:\n%+v\n%+v", m, back)
		}
	})
}

// referenceEncode is what Encode must reproduce byte for byte: an
// encoding/json Encoder with a two-space indent.
func referenceEncode(m *Manifest) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(m)
	return buf.Bytes(), err
}

// checkEncode requires Encode to write the reference's bytes, or to fail
// with the reference's error.
func checkEncode(t *testing.T, m *Manifest) {
	t.Helper()
	want, wantErr := referenceEncode(m)
	var got bytes.Buffer
	err := m.Encode(&got)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("Encode error = %v, want %v", err, wantErr)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("Encode differs from encoding/json:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}

// sweepSample is a sweep manifest with cells.
func sweepSample() *Manifest {
	m := New("sweep")
	m.Kind = KindSweep
	m.Ops, m.Warmup, m.Seed = 20000, 5000, 1
	m.Apps = []string{"mcf", "milc"}
	m.Workloads["mcf"] = "00deadbeef00cafe"
	m.Workloads["milc"] = "0123456789abcdef"
	m.GoVersion = "go1.24.0"
	for i, key := range []string{"mcf/casino[ws2,so1]", "mcf/casino[ws4,so2]", "mcf/ino[iq16,sb8]", "milc/ooo[rob64]@sampled", "milc/specino[ws2,so1]"} {
		app := key[:strings.IndexByte(key, '/')]
		m.Cells = append(m.Cells, Cell{Key: key, Model: key[len(app)+1:], Workload: app,
			SpecFP: strconv.FormatUint(uint64(i+1)<<40|0xbeef, 16), TraceFP: m.Workloads[app]})
		p := "cell." + key + "."
		m.Metrics[p+"ipc"] = 1.0 / float64(i+3)
		m.Metrics[p+"cycles"] = float64(123456789 * (i + 1))
		m.Metrics[p+"total_pj"] = 4.2e21 / float64(i+1)
		m.Metrics[p+"ipc_ci95"] = 3e-7 * float64(i)
	}
	return m
}

// Encode writes what encoding/json writes, for every manifest shape: the
// golden figures manifest (which it must also reproduce byte for byte), a
// sweep manifest, nil and empty fields, strings that need escaping,
// floats on both sides of the 'e'-format thresholds, and non-finite
// floats, which must fail with the reference's error.
func TestEncodeMatchesEncodingJSON(t *testing.T) {
	golden, err := os.ReadFile("../../golden/fig_all.json")
	if err != nil {
		t.Fatal(err)
	}
	g, err := Decode(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Error("re-encoding golden/fig_all.json changed its bytes")
	}

	escapes := sweepSample()
	escapes.Figure = "<fig>&\"6\"\\"
	escapes.Apps = append(escapes.Apps, "a<b", "a>b", "a&b", `a"b`, `a\b`, "tab\there", "nul\x00", "é", " ", "\xff\xfe")
	escapes.Workloads["\x7f"] = "<>&"
	escapes.Cells[0].Key = "mcf/casino\n"
	floats := New("floats")
	for i, v := range []float64{0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), -1e-6,
		1e21, math.Nextafter(1e21, 0), -1e21, 1e20, 5e-324, math.SmallestNonzeroFloat64 * 3,
		math.MaxFloat64, -math.MaxFloat64, 1e-7, 1.5e-10, 1e100, 123456789.125, 0.1} {
		floats.Metrics[strconv.Itoa(i)] = v
	}
	floats.WallSeconds = 1e-9
	nanMetric := sample()
	nanMetric.Metrics["x"] = math.NaN()
	infWall := sample()
	infWall.WallSeconds = math.Inf(-1)

	for name, m := range map[string]*Manifest{
		"golden":       g,
		"sample":       sample(),
		"sweep":        sweepSample(),
		"zero":         {},
		"new":          New("fig2"),
		"empty slices": {Apps: []string{}, Cells: []Cell{}, Workloads: map[string]string{}},
		"escapes":      escapes,
		"floats":       floats,
		"nan metric":   nanMetric,
		"inf wall":     infWall,
	} {
		t.Run(name, func(t *testing.T) { checkEncode(t, m) })
	}
}

// FuzzEncode checks Encode against encoding/json on manifests built from
// one name, one float and a shape byte (see fuzzManifest). The seed corpus
// in testdata/fuzz/FuzzEncode covers HTML-special, control, non-ASCII and
// invalid UTF-8 names; floats at the 1e-6 and 1e21 thresholds, -0,
// subnormals, ±MaxFloat64, NaN and ±Inf; and nil and empty fields.
func FuzzEncode(f *testing.F) {
	f.Fuzz(func(t *testing.T, name string, v float64, shape uint8) {
		checkEncode(t, fuzzManifest(name, v, shape))
	})
}

// fuzzManifest builds a manifest around name and v. Bits 0–1 of shape
// make Apps nil, empty or filled, bits 2–3 Workloads and bits 4–5 Metrics
// the same; bit 6 adds two cells (an empty Cells otherwise) and bit 7 puts
// v in WallSeconds.
func fuzzManifest(name string, v float64, shape uint8) *Manifest {
	m := &Manifest{Version: Version, Kind: KindSweep, Figure: name, GoVersion: name, Cells: []Cell{}}
	switch shape & 3 {
	case 1:
		m.Apps = []string{}
	case 2, 3:
		m.Apps = []string{name, "mcf", name + "\x00"}
	}
	switch shape >> 2 & 3 {
	case 1:
		m.Workloads = map[string]string{}
	case 2, 3:
		m.Workloads = map[string]string{name: "00deadbeef00cafe", "mcf": name}
	}
	switch shape >> 4 & 3 {
	case 1:
		m.Metrics = map[string]float64{}
	case 2, 3:
		m.Metrics = map[string]float64{name: v, "neg." + name: -v, "third": v / 3,
			"next": math.Nextafter(v, math.Inf(1)), "scaled": v * 1e-6}
	}
	if shape&(1<<6) != 0 {
		m.Cells = []Cell{{Key: name, Model: "casino", Workload: name, SpecFP: "<&>", TraceFP: "00deadbeef00cafe"},
			{Key: "mcf/ino", Model: name, Workload: "mcf"}}
	}
	if shape&(1<<7) != 0 {
		m.WallSeconds = v
	}
	return m
}
