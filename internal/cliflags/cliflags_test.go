package cliflags

import (
	"flag"
	"reflect"
	"testing"
	"time"
)

// TestRegistration parses a representative command line through every
// helper to pin the shared spellings.
func TestRegistration(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	exec := Exec(fs)
	workers := Workers(fs, 0)
	guard := Guard(fs)
	deadline := Deadline(fs, 0)
	err := fs.Parse([]string{
		"-exec", "vector-batch", "-workers", "4", "-guard", "-deadline", "2s"})
	if err != nil {
		t.Fatal(err)
	}
	if *exec != "vector-batch" || *workers != 4 || !*guard || *deadline != 2*time.Second {
		t.Fatalf("parsed %q %d %v %v", *exec, *workers, *guard, *deadline)
	}
}

func TestWorkersList(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	wl := WorkersList(fs, "the -json matrix sweeps all values")
	if err := fs.Parse([]string{"-workers", "1, 2,8"}); err != nil {
		t.Fatal(err)
	}
	got, err := ParseWorkersList(*wl)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{1, 2, 8}) {
		t.Fatalf("got %v", got)
	}
	if ws, err := ParseWorkersList(""); err != nil || ws != nil {
		t.Fatalf("empty list: %v %v", ws, err)
	}
	for _, bad := range []string{"0", "x", "4,-1"} {
		if _, err := ParseWorkersList(bad); err == nil {
			t.Fatalf("%q parsed", bad)
		}
	}
}
