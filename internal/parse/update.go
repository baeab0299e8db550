// .pw syntax for update programs. An @update block is an ordered list
// of operations applied to every world of a decomposition:
//
//	@update
//	  insert: Emp(carol sales)
//	  delete: Emp(carol *)
//	  update: Emp(* sales) set 2 = eng
//	  assume: Dept(eng 1)
//	  assume-not: Dept(eng 2)
//
// insert/assume/assume-not take one ground fact; delete and update take
// a pattern whose slots are constants or the wildcard '*'. An update
// op's set clause lists 1-based SLOT = CONST assignments, comma
// separated. ParseUpdate inverts wsd.Update.String, so parse→print is a
// fixed point.
package parse

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"pw/internal/wsd"
)

// updateKeywords maps op-line prefixes to kinds; checked in this order,
// so the longer "assume-not:" wins over "assume:".
var updateKeywords = []struct {
	prefix string
	kind   wsd.UpdateKind
}{
	{"insert:", wsd.OpInsert},
	{"delete:", wsd.OpDelete},
	{"update:", wsd.OpSet},
	{"assume-not:", wsd.OpAssumeNot},
	{"assume:", wsd.OpAssume},
}

// ParseUpdate reads a .pw update program (one @update block).
func ParseUpdate(r io.Reader) (*wsd.Update, error) {
	sc := newScanner(r)
	lineNo := 0
	seen := false
	u := &wsd.Update{}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if line == "@update" {
			if seen {
				return nil, fmt.Errorf("line %d: duplicate @update block", lineNo)
			}
			seen = true
			continue
		}
		if !seen {
			return nil, fmt.Errorf("line %d: operation before @update", lineNo)
		}
		op, err := parseUpdateOp(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		u.Ops = append(u.Ops, *op)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !seen {
		return nil, fmt.Errorf("missing @update block")
	}
	if len(u.Ops) == 0 {
		return nil, fmt.Errorf("@update block has no operations")
	}
	return u, nil
}

// parseUpdateOp parses one operation line: KEYWORD: Rel(arg arg ...)
// with an optional "set N = c, ..." tail on update ops.
func parseUpdateOp(line string) (*wsd.UpdateOp, error) {
	var body string
	op := &wsd.UpdateOp{}
	found := false
	for _, kw := range updateKeywords {
		if strings.HasPrefix(line, kw.prefix) {
			op.Kind, body, found = kw.kind, strings.TrimSpace(strings.TrimPrefix(line, kw.prefix)), true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("unrecognized update operation %q (want insert/delete/update/assume/assume-not)", line)
	}
	open := strings.IndexByte(body, '(')
	close := strings.IndexByte(body, ')')
	if open <= 0 || close < open {
		return nil, fmt.Errorf("operation %q: want Rel(arg arg ...)", body)
	}
	op.Rel = strings.TrimSpace(body[:open])
	if err := checkWSDConst(op.Rel); err != nil {
		return nil, fmt.Errorf("operation %q: relation: %w", body, err)
	}
	for _, f := range strings.Fields(body[open+1 : close]) {
		if f != wsd.Wildcard {
			if err := checkUpdateConst(f); err != nil {
				return nil, fmt.Errorf("operation %q: %w", body, err)
			}
		}
		op.Args = append(op.Args, f)
	}
	tail := strings.TrimSpace(body[close+1:])
	if op.Kind != wsd.OpSet {
		if tail != "" {
			return nil, fmt.Errorf("operation %q: unexpected trailing %q", body, tail)
		}
		return op, nil
	}
	if !strings.HasPrefix(tail, "set ") {
		return nil, fmt.Errorf("update operation %q: want a 'set SLOT = CONST' clause", body)
	}
	for _, part := range strings.Split(strings.TrimPrefix(tail, "set "), ",") {
		l, r, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("set clause %q: want SLOT = CONST", strings.TrimSpace(part))
		}
		slot, err := strconv.Atoi(strings.TrimSpace(l))
		if err != nil || slot < 1 {
			return nil, fmt.Errorf("set clause %q: slot must be a positive integer", strings.TrimSpace(part))
		}
		val := strings.TrimSpace(r)
		if err := checkUpdateConst(val); err != nil {
			return nil, fmt.Errorf("set clause %q: %w", strings.TrimSpace(part), err)
		}
		op.Set = append(op.Set, wsd.SlotAssign{Slot: slot - 1, Value: val})
	}
	return op, nil
}

// checkUpdateConst validates a ground constant of the @update grammar:
// the @wsd constant rules plus the reserved wildcard and the '='/'*'
// characters of the set-clause syntax.
func checkUpdateConst(v string) error {
	if err := checkWSDConst(v); err != nil {
		return err
	}
	if strings.ContainsAny(v, "*=") {
		return fmt.Errorf("constant %q uses a reserved character of the update grammar", v)
	}
	return nil
}

// PrintUpdate renders u in .pw syntax (parsable by ParseUpdate).
func PrintUpdate(out io.Writer, u *wsd.Update) error {
	_, err := fmt.Fprintln(out, u.String())
	return err
}
