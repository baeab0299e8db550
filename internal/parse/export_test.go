package parse

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"unicode"
	"unicode/utf8"

	"pw/internal/rel"
	"pw/internal/sym"
)

// refParseInstance is the reference instance parser the differential
// tests hold ParseInstance to: it interns one name at a time and
// inserts each fact into its relation as its line is read, deciding
// space rune by rune. Its answers — instances, tuple order and error
// texts — are the contract.
func refParseInstance(r io.Reader) (*rel.Instance, error) {
	inst := rel.NewInstance()
	var cur *rel.Relation
	var fields [][]byte
	var tuple sym.Tuple
	sc := newScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 || b[0] == '#' {
			continue
		}
		if rest, ok := bytes.CutPrefix(b, []byte("fact:")); ok {
			if cur == nil {
				return nil, fmt.Errorf("line %d: fact before @relation", lineNo)
			}
			fields = refAppendFields(fields[:0], rest)
			if len(fields) != cur.Arity {
				return nil, fmt.Errorf("line %d: fact has %d fields, relation %s expects %d",
					lineNo, len(fields), cur.Name, cur.Arity)
			}
			tuple = tuple[:0]
			for _, f := range fields {
				if f[0] == '?' {
					return nil, fmt.Errorf("line %d: facts must be ground, got %s", lineNo, f)
				}
				tuple = append(tuple, sym.Const(string(f)))
			}
			cur.Insert(tuple)
			continue
		}
		line := string(b)
		if !strings.HasPrefix(line, "@relation ") {
			return nil, fmt.Errorf("line %d: unrecognized directive %q", lineNo, line)
		}
		name, arity, err := parseHeader(strings.TrimPrefix(line, "@relation "))
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if inst.Relation(name) != nil {
			return nil, fmt.Errorf("line %d: duplicate relation %s", lineNo, name)
		}
		cur = rel.NewRelation(name, arity)
		inst.AddRelation(cur)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return inst, nil
}

// refAppendFields splits s as strings.Fields does, decoding every rune
// and asking unicode.IsSpace.
func refAppendFields(dst [][]byte, s []byte) [][]byte {
	start := -1
	for i := 0; i < len(s); {
		r, size := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRune(s[i:])
		}
		if unicode.IsSpace(r) {
			if start >= 0 {
				dst = append(dst, s[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
		i += size
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}
