// Quickstart: build a small knowledge-rich database in memory and ask it
// both kinds of question from the paper's introduction — "Who are the
// honor students?" (a data query) and "What does it take to be an honor
// student?" (a knowledge query).
//
// Run from the repository root:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"kdb"
)

func main() {
	ctx := context.Background()
	k := kdb.New()

	// Facts and rules use the same Horn-clause language (§2.1).
	err := k.LoadString(`
student(ann,  math,    3.9).
student(bob,  cs,      3.5).
student(cora, math,    3.8).
student(dan,  cs,      4).
enroll(ann, databases).
enroll(bob, databases).
enroll(dan, databases).

% An honor student has a grade-point average above 3.7.
honor(X) :- student(X, M, G), G > 3.7.
`)
	if err != nil {
		log.Fatal(err)
	}

	queries := []string{
		// The intro's first pair of English queries:
		`retrieve honor(X).`, // "Who are the honor students?"
		`describe honor(X).`, // "What does it take to be an honor student?"
		// Knowledge applied to data, as usual:
		`retrieve honor(X) where enroll(X, databases).`,
		// A knowledge query with a hypothesis (§3.2): when is a student
		// with GPA over 3.8 an honor student? (Always — the comparison
		// post-pass of §4 removes the implied bound.)
		`describe honor(X) where student(X, math, V) and V > 3.8.`,
	}
	for _, q := range queries {
		res, err := k.ExecStringContext(ctx, q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("?- %s\n%s\n\n", q, indent(res.String()))
	}
}

func indent(s string) string {
	out := ""
	for _, line := range splitLines(s) {
		out += "   " + line + "\n"
	}
	return out[:len(out)-1]
}

func splitLines(s string) []string {
	var lines []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			lines = append(lines, s[start:i])
			start = i + 1
		}
	}
	return append(lines, s[start:])
}
