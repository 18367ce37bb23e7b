package main

import (
	_ "embed"
	"fmt"
	"strings"
)

// knowledgeExpected holds the knowledge workload's answers, one block
// per query of the pool: a "query" line with the statement under base
// names, then the answer's canonical lines (see canonicalLines), then a
// blank line. Regenerate it with
//
//	go test -run TestKnowledgeExpected -update
//
// only when a change to describe or compare is meant to change answers,
// and review the diff.
//
//go:embed testdata/knowledge.expected
var knowledgeExpected string

// expectedKnowledge parses the committed answers and checks that they
// cover exactly the given pool, in order.
func expectedKnowledge(pool []string) ([][]string, error) {
	blocks := strings.Split(strings.TrimSpace(knowledgeExpected), "\n\n")
	if len(blocks) != len(pool) {
		return nil, fmt.Errorf("knowledge.expected has %d queries, the pool has %d", len(blocks), len(pool))
	}
	out := make([][]string, len(pool))
	for i, b := range blocks {
		lines := strings.Split(b, "\n")
		if lines[0] != "query "+pool[i] {
			return nil, fmt.Errorf("knowledge.expected block %d is %q, want query %q", i, lines[0], pool[i])
		}
		out[i] = lines[1:]
	}
	return out, nil
}
