package server

import (
	"encoding/json"
	"testing"

	"kdb/internal/parser"
)

// FuzzDecodeArgs: a request's argument list decodes to an error or to
// terms the language can write — each renders as text that parses back
// to the same term — never a panic.
func FuzzDecodeArgs(f *testing.F) {
	for _, seed := range []string{
		`["ann", 4, -2.5e-3, "Ann Smith", "X", "where"]`,
		`[{"sym": "ann"}, {"str": "ann"}, {"num": 1e21}]`,
		`["say \"hi\" \\ bye", "tab\tand\nnewline", "ünïcödé"]`,
		`[{"sym": "Ann"}, {"str": 1}, {"num": "1"}, {"a": 1, "b": 2}, [1], null, true]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var raw []json.RawMessage
		if json.Unmarshal(body, &raw) != nil {
			return
		}
		args, err := decodeArgs(raw)
		if err != nil {
			return
		}
		for i, a := range args {
			text := "p(" + a.String() + ")"
			back, err := parser.ParseAtom(text)
			if err != nil {
				t.Fatalf("args[%d] %s decoded to %s, which does not parse: %v", i, raw[i], text, err)
			}
			if !back.Args[0].Equal(a) {
				t.Fatalf("args[%d] %s decoded to %#v, which parses back as %#v", i, raw[i], a, back.Args[0])
			}
		}
	})
}
