package storage

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"kdb/internal/term"
)

// hugeArityRecord is a fact record that claims far more terms than its
// bytes can hold; before the arity check, decoding it panicked in
// make (cap out of range).
func hugeArityRecord() []byte {
	b := binary.AppendUvarint(nil, 1)
	b = append(b, 'p')
	return binary.AppendUvarint(b, 1<<62)
}

// frame returns payload framed as writeRecord writes it.
func frame(t testing.TB, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeRecord(&buf, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func mustEncode(t testing.TB, pred string, tuple Tuple) []byte {
	t.Helper()
	b, err := encodeFact(pred, tuple)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestDecodeFactRejectsImpossibleArity(t *testing.T) {
	for _, rec := range [][]byte{
		hugeArityRecord(),
		// In range for make, but three terms cannot fit in four bytes.
		append(binary.AppendUvarint([]byte{1, 'p'}, 3), tagSymbol, 0, tagSymbol, 0),
	} {
		if _, _, err := decodeFact(rec); err == nil {
			t.Errorf("decodeFact(%x) must fail", rec)
		}
	}
}

func TestOpenSnapshotWithImpossibleArityFails(t *testing.T) {
	dir := t.TempDir()
	snap := append([]byte(snapshotMagic), frame(t, hugeArityRecord())...)
	if err := os.WriteFile(filepath.Join(dir, snapshotName), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := Open(dir); err == nil {
		s.Close()
		t.Fatal("a snapshot record with an impossible arity must fail Open")
	}
}

func TestWALImpossibleArityIsTornTail(t *testing.T) {
	dir := t.TempDir()
	good := frame(t, mustEncode(t, "p", tup(term.Sym("a"))))
	wal := append([]byte(walMagic), good...)
	wal = append(wal, frame(t, hugeArityRecord())...)
	path := filepath.Join(dir, walName)
	if err := os.WriteFile(path, wal, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("an undecodable WAL record must replay as a torn tail: %v", err)
	}
	defer s.Close()
	if got := s.Count("p"); got != 1 {
		t.Errorf("recovered %d facts, want the 1 before the torn record", got)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(walMagic) + len(good)); st.Size() != want {
		t.Errorf("wal size after recovery = %d, want the valid prefix %d", st.Size(), want)
	}
}

// reencode is the record encodeFact would write for a decoded fact.
func reencode(t *testing.T, pred string, tuple Tuple) []byte {
	t.Helper()
	b, err := encodeFact(pred, tuple)
	if err != nil {
		t.Fatalf("decoded fact %s%v does not re-encode: %v", pred, tuple, err)
	}
	return b
}

// FuzzDecodeFact: arbitrary bytes decode to an error or to a fact that
// re-encodes to exactly the input, never a panic.
func FuzzDecodeFact(f *testing.F) {
	for _, tuple := range []Tuple{
		nil,
		tup(term.Sym("a")),
		tup(term.Num(-2.5), term.Str("x y"), term.Var("X")),
	} {
		f.Add(mustEncode(f, "edge", tuple))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		pred, tuple, err := decodeFact(b)
		if err != nil {
			return
		}
		if got := reencode(t, pred, tuple); !bytes.Equal(got, b) {
			t.Fatalf("decoded %s%v from %x, re-encodes to %x", pred, tuple, b, got)
		}
	})
}

// FuzzWALReplay: a log of arbitrary bytes after the magic replays a
// prefix of its records and stops at the first torn or undecodable one,
// never panicking. The replayed records, framed again, are exactly the
// bytes replay reports as valid, so recovery neither invents nor alters
// a fact.
func FuzzWALReplay(f *testing.F) {
	ins := frame(f, mustEncode(f, "p", tup(term.Sym("a"), term.Num(1))))
	del := frame(f, append([]byte{tombstoneTag}, mustEncode(f, "p", tup(term.Sym("a"), term.Num(1)))...))
	f.Add(ins)
	f.Add(append(append([]byte{}, ins...), del...))
	f.Add(append(append([]byte{}, ins...), 0x20, 0x01, 0x02))
	f.Fuzz(func(t *testing.T, tail []byte) {
		path := filepath.Join(t.TempDir(), walName)
		data := append([]byte(walMagic), tail...)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		file, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer file.Close()
		replayed := []byte(walMagic)
		valid, err := replayWAL(file, func(pred string, tuple Tuple, tombstone bool) error {
			payload := reencode(t, pred, tuple)
			if tombstone {
				payload = append([]byte{tombstoneTag}, payload...)
			}
			replayed = append(replayed, frame(t, payload)...)
			return nil
		})
		if err != nil {
			t.Fatalf("replay after a valid magic must truncate, not fail: %v", err)
		}
		if valid < int64(len(walMagic)) || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [%d, %d]", valid, len(walMagic), len(data))
		}
		if !bytes.Equal(replayed, data[:valid]) {
			t.Fatalf("replayed records re-frame to %x, valid prefix is %x", replayed, data[:valid])
		}
	})
}
