// Package parse implements the .pw text format for conditioned-table
// databases and instances, so the cmd tools can read and write problem
// instances. The grammar (one directive per line, '#' comments):
//
//	@table NAME(ARITY)
//	  global: ATOM, ATOM, ...
//	  row: VAL VAL ... [| ATOM, ATOM, ...]
//
//	@relation NAME(ARITY)
//	  fact: CONST CONST ...
//
// Values are bare constants or ?variables; atoms are "VAL = VAL" or
// "VAL != VAL". Printing is Table.String / Instance-compatible; ParseDatabase
// and ParseInstance invert it.
package parse

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"pw/internal/cond"
	"pw/internal/rel"
	"pw/internal/sym"
	"pw/internal/table"
	"pw/internal/wsdalg"
)

// newScanner returns the line scanner every block parser reads with. A
// line may be as long as the input: a decomposition's certain
// component, for one, prints as a single alt: line that grows with its
// facts. Callers bound the input instead, as the server does a request
// body.
func newScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, math.MaxInt)
	return sc
}

// ParseDatabase reads a .pw database (a sequence of @table blocks).
func ParseDatabase(r io.Reader) (*table.Database, error) {
	d := table.NewDatabase()
	var cur *table.Table
	sc := newScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		switch {
		case strings.HasPrefix(line, "@table "):
			name, arity, err := parseHeader(strings.TrimPrefix(line, "@table "))
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			// Duplicate names are a data error here, not the programming
			// error AddTable panics on.
			if d.Table(name) != nil {
				return nil, fmt.Errorf("line %d: duplicate table %s", lineNo, name)
			}
			cur = table.New(name, arity)
			d.AddTable(cur)
		case strings.HasPrefix(line, "global:"):
			if cur == nil {
				return nil, fmt.Errorf("line %d: global before @table", lineNo)
			}
			c, err := ParseConjunction(strings.TrimPrefix(line, "global:"))
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			cur.Global = append(cur.Global, c...)
		case strings.HasPrefix(line, "row:"):
			if cur == nil {
				return nil, fmt.Errorf("line %d: row before @table", lineNo)
			}
			row, err := parseRow(strings.TrimPrefix(line, "row:"), cur.Arity)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			cur.Add(row)
		default:
			return nil, fmt.Errorf("line %d: unrecognized directive %q", lineNo, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return d, nil
}

// ParseInstance reads a .pw instance (a sequence of @relation blocks).
// Each fact line is split and its names resolved under one symbol-table
// read lock into one flat ID buffer, reused from block to block. At a
// block's end its relation is presized to the block's row count and
// the rows inserted, so the allocations follow the blocks, not the
// facts.
func ParseInstance(r io.Reader) (*rel.Instance, error) {
	inst := rel.NewInstance()
	var cur *rel.Relation
	var fields [][]byte
	var ids []sym.ID // the current block's rows, back to back
	rows := 0
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
			fields = appendFields(fields[:0], rest)
			if len(fields) != cur.Arity {
				return nil, fmt.Errorf("line %d: fact has %d fields, relation %s expects %d",
					lineNo, len(fields), cur.Name, cur.Arity)
			}
			for _, f := range fields {
				if f[0] == '?' {
					return nil, fmt.Errorf("line %d: facts must be ground, got %s", lineNo, f)
				}
			}
			ids = sym.AppendConsts(ids, fields)
			rows++
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
		// Duplicate names are a data error here, not the programming
		// error AddRelation panics on.
		if inst.Relation(name) != nil {
			return nil, fmt.Errorf("line %d: duplicate relation %s", lineNo, name)
		}
		insertRows(cur, ids, rows)
		ids, rows = ids[:0], 0
		cur = rel.NewRelation(name, arity)
		inst.AddRelation(cur)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	insertRows(cur, ids, rows)
	return inst, nil
}

// insertRows presizes r for rows rows and inserts them, each r.Arity
// IDs of ids. A nil r (no block yet) has no rows.
func insertRows(r *rel.Relation, ids []sym.ID, rows int) {
	if r == nil {
		return
	}
	r.Grow(rows)
	for i := 0; i < rows; i++ {
		r.Insert(ids[i*r.Arity : (i+1)*r.Arity])
	}
}

// asciiSpace marks the ASCII bytes unicode.IsSpace reports as space.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// appendFields appends to dst the fields of s: its maximal runs of
// non-space characters, split exactly as strings.Fields splits (space
// is unicode.IsSpace; an invalid UTF-8 byte is not space). An ASCII
// byte is looked up in asciiSpace; only bytes from 0x80 up are decoded.
func appendFields(dst [][]byte, s []byte) [][]byte {
	start := -1
	for i := 0; i < len(s); {
		space, size := false, 1
		if c := s[i]; c < utf8.RuneSelf {
			space = asciiSpace[c]
		} else {
			var r rune
			r, size = utf8.DecodeRune(s[i:])
			space = unicode.IsSpace(r)
		}
		if space {
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

func parseHeader(s string) (string, int, error) {
	s = strings.TrimSpace(s)
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return "", 0, fmt.Errorf("want NAME(ARITY), got %q", s)
	}
	name := strings.TrimSpace(s[:open])
	if name == "" {
		return "", 0, fmt.Errorf("empty name in %q", s)
	}
	arity, err := strconv.Atoi(strings.TrimSpace(s[open+1 : len(s)-1]))
	if err != nil || arity < 0 {
		return "", 0, fmt.Errorf("bad arity in %q", s)
	}
	return name, arity, nil
}

func parseRow(s string, arity int) (table.Row, error) {
	valPart, condPart, hasCond := strings.Cut(s, "|")
	fields := strings.Fields(valPart)
	if len(fields) != arity {
		return table.Row{}, fmt.Errorf("row has %d values, want %d", len(fields), arity)
	}
	vals := make(sym.Tuple, arity)
	for i, f := range fields {
		vals[i] = ParseValue(f)
	}
	row := table.Row{Values: vals}
	if hasCond {
		c, err := ParseConjunction(condPart)
		if err != nil {
			return table.Row{}, err
		}
		row.Cond = c
	}
	return row, nil
}

// ParseValue parses a bare constant or ?variable.
func ParseValue(s string) sym.ID {
	if strings.HasPrefix(s, "?") {
		return sym.Var(s[1:])
	}
	return sym.Const(s)
}

// ParseConjunction parses a comma-separated conjunction of atoms; the
// literal "true" (or empty input) yields the empty conjunction.
func ParseConjunction(s string) (cond.Conjunction, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "true" {
		return nil, nil
	}
	var out cond.Conjunction
	for _, part := range strings.Split(s, ",") {
		a, err := ParseAtom(part)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// ParseAtom parses "VAL = VAL" or "VAL != VAL".
func ParseAtom(s string) (cond.Atom, error) {
	s = strings.TrimSpace(s)
	op := cond.Eq
	var l, r string
	if i := strings.Index(s, "!="); i >= 0 {
		op = cond.Neq
		l, r = s[:i], s[i+2:]
	} else if i := strings.Index(s, "="); i >= 0 {
		l, r = s[:i], s[i+1:]
	} else {
		return cond.Atom{}, fmt.Errorf("atom %q lacks = or !=", s)
	}
	lf, rf := strings.Fields(l), strings.Fields(r)
	if len(lf) != 1 || len(rf) != 1 {
		return cond.Atom{}, fmt.Errorf("atom %q malformed", s)
	}
	return cond.Atom{Op: op, L: ParseValue(lf[0]), R: ParseValue(rf[0])}, nil
}

// PrintDatabase renders d in .pw syntax (parsable by ParseDatabase).
func PrintDatabase(w io.Writer, d *table.Database) error {
	for i, t := range d.Tables() {
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w, t.String()); err != nil {
			return err
		}
	}
	return nil
}

// PrintInstance renders i in .pw syntax (parsable by ParseInstance).
func PrintInstance(w io.Writer, inst *rel.Instance) error {
	for i, r := range inst.Relations() {
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if err := PrintRelation(w, r.Name, r.Arity, r.Tuples()); err != nil {
			return err
		}
	}
	return nil
}

// PrintAnswers renders one answer set of a readout — the possible or
// the certain rows of every output relation — exactly as PrintInstance
// renders the instance holding them.
func PrintAnswers(w io.Writer, a *wsdalg.Answers, possible bool) error {
	for ri, r := range a.Schema() {
		if ri > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		rows := a.Certain(ri)
		if possible {
			var err error
			if rows, err = a.Possible(ri); err != nil {
				return err
			}
		}
		if err := PrintRelation(w, r.Name, r.Arity, rows); err != nil {
			return err
		}
	}
	return nil
}

// PrintRelation writes one @relation block of PrintInstance's output:
// the header, then one fact line per row in canonical (by-name) order.
// The rows are interned and duplicate-free, in any order; they are read,
// never mutated.
func PrintRelation(w io.Writer, name string, arity int, rows []sym.Tuple) error {
	if _, err := fmt.Fprintf(w, "@relation %s(%d)\n", name, arity); err != nil {
		return err
	}
	// Names resolve into one flat array; each fact is a slice of it.
	n := 0
	for _, t := range rows {
		n += len(t)
	}
	names := make([]string, 0, n)
	facts := make([]rel.Fact, len(rows))
	for i, t := range rows {
		start := len(names)
		for _, id := range t {
			names = append(names, id.Name())
		}
		facts[i] = names[start:len(names):len(names)]
	}
	slices.SortFunc(facts, rel.Fact.Compare)
	var line []byte
	for _, f := range facts {
		line = append(line[:0], "  fact: "...)
		for i, c := range f {
			if i > 0 {
				line = append(line, ' ')
			}
			line = append(line, c...)
		}
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}
