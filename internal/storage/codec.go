package storage

import (
	"encoding/binary"
	"fmt"
	"math"

	"kdb/internal/term"
)

// Binary term encoding shared by tuple keys, the snapshot file and the
// write-ahead log:
//
//	kind byte ('v' var, 's' symbol, 'n' number, 'q' string)
//	number:            8 bytes big-endian IEEE 754
//	var/symbol/string: uvarint length + bytes

const (
	tagVar    = 'v'
	tagSymbol = 's'
	tagNumber = 'n'
	tagString = 'q'
)

func appendTermKey(b []byte, t term.Term) []byte {
	switch t.Kind() {
	case term.KindNumber:
		b = append(b, tagNumber)
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], math.Float64bits(t.Float()))
		return append(b, buf[:]...)
	case term.KindVar:
		b = append(b, tagVar)
	case term.KindSymbol:
		b = append(b, tagSymbol)
	case term.KindString:
		b = append(b, tagString)
	default:
		// An unknown kind cannot reach the durable encoding (encodeFact
		// validates), but in-memory keys must stay total and
		// deterministic — tag it distinctly instead of panicking.
		b = append(b, '?')
	}
	b = binary.AppendUvarint(b, uint64(len(t.Name())))
	return append(b, t.Name()...)
}

// decodeTerm reads one term from b, returning it and the remaining bytes.
func decodeTerm(b []byte) (term.Term, []byte, error) {
	if len(b) == 0 {
		return term.Term{}, nil, fmt.Errorf("storage: truncated term")
	}
	tag := b[0]
	b = b[1:]
	if tag == tagNumber {
		if len(b) < 8 {
			return term.Term{}, nil, fmt.Errorf("storage: truncated number")
		}
		v := math.Float64frombits(binary.BigEndian.Uint64(b[:8]))
		return term.Num(v), b[8:], nil
	}
	n, sz := uvarint(b)
	if sz <= 0 || uint64(len(b)-sz) < n {
		return term.Term{}, nil, fmt.Errorf("storage: truncated string payload")
	}
	s := string(b[sz : sz+int(n)])
	b = b[sz+int(n):]
	switch tag {
	case tagVar:
		return term.Var(s), b, nil
	case tagSymbol:
		return term.Sym(s), b, nil
	case tagString:
		return term.Str(s), b, nil
	default:
		return term.Term{}, nil, fmt.Errorf("storage: unknown term tag %q", tag)
	}
}

// encodeFact serializes (pred, tuple) for the snapshot and WAL. A term
// of unknown kind is a caller bug, reported as an error so it cannot
// poison the durable files with undecodable records.
func encodeFact(pred string, t Tuple) ([]byte, error) {
	b := binary.AppendUvarint(nil, uint64(len(pred)))
	b = append(b, pred...)
	b = binary.AppendUvarint(b, uint64(len(t)))
	for _, x := range t {
		switch x.Kind() {
		case term.KindVar, term.KindSymbol, term.KindNumber, term.KindString:
		default:
			return nil, fmt.Errorf("storage: cannot encode term of unknown kind %d in %s%v", x.Kind(), pred, t)
		}
		b = appendTermKey(b, x)
	}
	return b, nil
}

// decodeFact parses a record produced by encodeFact. The record comes
// from a file, so every length and count in it is checked against the
// bytes actually present before anything is allocated.
func decodeFact(b []byte) (string, Tuple, error) {
	n, sz := uvarint(b)
	if sz <= 0 || uint64(len(b)-sz) < n {
		return "", nil, fmt.Errorf("storage: truncated predicate name")
	}
	pred := string(b[sz : sz+int(n)])
	b = b[sz+int(n):]
	arity, sz := uvarint(b)
	if sz <= 0 {
		return "", nil, fmt.Errorf("storage: truncated arity")
	}
	b = b[sz:]
	// Every term takes at least two bytes (a tag and a length or more).
	if arity > uint64(len(b)/2) {
		return "", nil, fmt.Errorf("storage: arity %d exceeds the %d-byte record", arity, len(b))
	}
	t := make(Tuple, 0, arity)
	for i := uint64(0); i < arity; i++ {
		var x term.Term
		var err error
		x, b, err = decodeTerm(b)
		if err != nil {
			return "", nil, err
		}
		t = append(t, x)
	}
	if len(b) != 0 {
		return "", nil, fmt.Errorf("storage: %d trailing bytes in fact record", len(b))
	}
	return pred, t, nil
}

// uvarint decodes a uvarint like binary.Uvarint but rejects (sz == 0)
// the non-minimal encodings the encoder never writes, so every record
// that decodes re-encodes to exactly the bytes it was read from.
func uvarint(b []byte) (uint64, int) {
	v, sz := binary.Uvarint(b)
	if sz > 1 && b[sz-1] == 0 {
		return 0, 0
	}
	return v, sz
}
