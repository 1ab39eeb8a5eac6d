// Command udvet is the repo-specific multichecker: it parses the Go
// source under the given directories (default: the current module) and
// runs the analyzers in internal/vet — today the check for non-atomic
// access to the internal/obs runtime counters. The exit status is 0 when
// clean, 1 when any diagnostic fires, and 2 when loading fails. CI runs
// it in the lint leg next to go vet.
//
// Usage:
//
//	udvet                  # analyze the tree rooted at .
//	udvet ./internal ./cmd # analyze specific roots
//	udvet -list            # print the analyzer catalogue
//	udvet -run atomiccounter ./internal/obs
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"udsim/internal/vet"
)

func main() {
	var (
		list = flag.Bool("list", false, "print the analyzers and exit")
		run  = flag.String("run", "", "comma-separated analyzer subset (default: all)")
	)
	flag.Parse()

	analyzers := vet.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *run != "" {
		want := map[string]bool{}
		for _, n := range strings.Split(*run, ",") {
			want[strings.TrimSpace(n)] = true
		}
		var sel []*vet.Analyzer
		for _, a := range analyzers {
			if want[a.Name] {
				sel = append(sel, a)
				delete(want, a.Name)
			}
		}
		for n := range want {
			fail(fmt.Errorf("unknown analyzer %q (see -list)", n))
		}
		analyzers = sel
	}

	roots := flag.Args()
	if len(roots) == 0 {
		roots = []string{"."}
	}
	fset, files, err := vet.Load(roots)
	if err != nil {
		fail(err)
	}
	diags := vet.Run(fset, files, analyzers)
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "udvet:", err)
	os.Exit(2)
}
