// Command fdiamlint runs the project's static analyzers (internal/analysis)
// over fdiam packages:
//
//	fdiamlint ./...
//
// It lists the matched packages, their test variants and the compiler
// export data of every dependency in one `go list -e -test -deps -export`
// call, then parses and type-checks only the matched packages (test files
// included) against that export data and runs the full suite over each.
// Reasoned //fdiamlint:ignore directives that suppress nothing are
// reported as stale.
//
// Exit status: 0 clean, 1 usage or load failure (a file that does not
// parse or type-check, _test.go files included), 2 diagnostics reported.
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"fdiam/internal/analysis"
)

func main() {
	args := os.Args[1:]
	for _, a := range args {
		switch {
		case a == "-h" || a == "-help" || a == "--help":
			usage(os.Stdout)
			return
		case strings.HasPrefix(a, "-"):
			fmt.Fprintf(os.Stderr, "fdiamlint: unknown flag %s\n", a)
			usage(os.Stderr)
			os.Exit(1)
		}
	}
	if len(args) == 0 {
		usage(os.Stderr)
		os.Exit(1)
	}
	os.Exit(lint(".", args, os.Stdout, os.Stderr))
}

func usage(w io.Writer) {
	fmt.Fprintf(w, "usage: fdiamlint <packages>   (e.g. fdiamlint ./...)\n\nanalyzers:\n")
	for _, a := range analysis.All() {
		fmt.Fprintf(w, "  %-12s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(w, "\nsuppress one finding with a justified directive on the line above:\n")
	fmt.Fprintf(w, "  //fdiamlint:ignore <analyzer> <reason>\n")
}
