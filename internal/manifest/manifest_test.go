package manifest

import (
	"bytes"
	"encoding/json"
	"errors"
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
