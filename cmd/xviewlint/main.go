// Command xviewlint runs the repository's analyzer suite (see
// internal/lint): the mechanical form of the sealed-epoch, error-contract,
// fault-catalog, context-flow, API-boundary and telemetry-hot-path
// conventions.
//
//	xviewlint [packages]        # go package patterns; default ./...
//
// Packages are loaded with `go list -export`, so it works offline and
// analyzes test files too. Exit status is 1 if any finding is reported, 0
// otherwise. Findings are suppressed line by line with
//
//	//lint:ignore xviewlint/<analyzer> <justification>
//
// where the justification is mandatory (see README, "Static analysis").
package main

import (
	"fmt"
	"os"

	"rxview/internal/lint"
	"rxview/internal/lint/driver"
	"rxview/internal/lint/loader"
)

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dir, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	pkgs, err := loader.Load(dir, patterns)
	if err != nil {
		fatal(err)
	}
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			fmt.Fprintf(os.Stderr, "xviewlint: %s: type error: %v\n", p.ImportPath, terr)
		}
	}
	findings, err := driver.Run(pkgs, lint.All())
	if err != nil {
		fatal(err)
	}
	for _, f := range findings {
		fmt.Printf("%s: %s: %s\n", f.Pos, f.Analyzer, f.Message)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xviewlint:", err)
	os.Exit(2)
}
