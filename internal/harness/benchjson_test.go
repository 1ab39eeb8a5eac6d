package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchMatrixRoundTrip runs a miniature bench matrix and checks the
// emitted JSON survives ParseBenchFile intact — the same validation the
// CI smoke run performs on `udbench -json` output.
func TestBenchMatrixRoundTrip(t *testing.T) {
	o := Options{Circuits: []string{"c432"}, Vectors: 64, Repeats: 1}
	file, err := BenchMatrix(o, "test", []int{2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := file.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ParseBenchFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// sequential + batch × 1 worker count, × 2 techniques.
	if want := 2 * 2; len(back.Records) != want {
		t.Fatalf("got %d records, want %d", len(back.Records), want)
	}
	for _, r := range back.Records {
		if r.Circuit != "c432" || r.NsPerVector <= 0 {
			t.Fatalf("implausible record: %+v", r)
		}
		if r.Strategy == "vector-batch" {
			if r.Workers != 2 {
				t.Fatalf("parallel record at %d workers, want 2: %+v", r.Workers, r)
			}
		}
	}
	if back.Revision != "test" || back.Vectors != 64 {
		t.Fatalf("header mangled: %+v", back)
	}
}

// TestParseBenchFileRejectsGarbage pins the validation surface.
func TestParseBenchFileRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"wrong schema":  `{"schema":"udbench/v0","revision":"x","gomaxprocs":1,"word_bits":32,"vectors":1,"records":[{"circuit":"c432","technique":"parallel","strategy":"sequential","workers":1,"ns_per_vector":1,"allocs_per_vector":0,"bytes_per_vector":0}]}`,
		"no records":    `{"schema":"udbench/v1","revision":"x","gomaxprocs":1,"word_bits":32,"vectors":1,"records":[]}`,
		"unknown field": `{"schema":"udbench/v1","bogus":true,"records":[]}`,
		"not json":      `ns/op 123`,
	}
	for name, in := range cases {
		if _, err := ParseBenchFile(strings.NewReader(in)); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

// TestCheckedInBenchFilesParse validates every BENCH_*.json committed at
// the repository root, so a checked-in baseline can never rot into an
// unreadable format. At least one baseline must exist.
func TestCheckedInBenchFilesParse(t *testing.T) {
	matches, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("no BENCH_*.json baseline checked in at the repository root")
	}
	for _, path := range matches {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ParseBenchFile(f)
		f.Close()
		if err != nil {
			t.Errorf("%s: %v", filepath.Base(path), err)
			continue
		}
		if b.Revision == "" || b.Revision == "dev" {
			t.Errorf("%s: revision %q — baselines must carry a real revision label", filepath.Base(path), b.Revision)
		}
	}
}
