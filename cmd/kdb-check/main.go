// Command kdb-check statically validates knowledge-base program files
// with the full analysis suite — parse errors, rule safety (range
// restriction), arity conflicts, undefined and unused predicates, the
// paper's §2.1 recursion discipline and per-component classification,
// unsatisfiable rule bodies, and duplicate rules — then checks the
// shipped facts against the integrity constraints. Exit status 0 means
// clean; 1 means errors; warnings alone keep status 0 unless -strict.
//
// Usage:
//
//	kdb-check [-strict] program.kdb ...
//
// `kdb check` runs the same static suite with JSON output support.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"kdb"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("kdb-check", flag.ContinueOnError)
	strict := fs.Bool("strict", false, "treat warnings as errors")
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(out, "usage: kdb-check [-strict] program.kdb ...")
		return 1
	}
	status := 0
	for _, path := range fs.Args() {
		errs, warns := checkFile(path, out)
		if errs > 0 || (*strict && warns > 0) {
			status = 1
		}
	}
	return status
}

func checkFile(path string, out io.Writer) (errors, warnings int) {
	src, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(out, "%s: error: %v\n", path, err)
		return 1, 0
	}
	prog, err := kdb.ParseProgramFile(path, string(src))
	if err != nil {
		fmt.Fprintf(out, "%s: error: %v\n", path, err)
		return 1, 0
	}

	// The static suite. Diagnostics are source-anchored, so they print
	// with the file position already attached.
	rep := kdb.Analyze(prog)
	for _, d := range rep.Diagnostics {
		if d.Severity >= kdb.SevWarning {
			fmt.Fprintln(out, d)
		}
	}
	errors = len(rep.Errors())
	warnings = len(rep.Warnings())
	if errors > 0 {
		return errors, warnings
	}

	// Integrity constraints against the shipped facts (a data-level
	// check the static suite cannot do).
	k := kdb.New()
	if err := k.LoadProgram(prog); err != nil {
		fmt.Fprintf(out, "%s: error: %v\n", path, err)
		return errors + 1, warnings
	}
	violations, err := k.CheckConstraintsContext(context.Background())
	if err != nil {
		fmt.Fprintf(out, "%s: error: %v\n", path, err)
		errors++
	}
	for _, v := range violations {
		fmt.Fprintf(out, "%s: error: %s\n", path, v)
		errors++
	}

	if errors == 0 {
		fmt.Fprintf(out, "%s: ok — %d facts, %d rules", path, k.FactCount(), len(k.Rules()))
		if warnings > 0 {
			fmt.Fprintf(out, ", %d warnings", warnings)
		}
		fmt.Fprintln(out)
		fmt.Fprint(out, k.Catalog())
	}
	return errors, warnings
}
