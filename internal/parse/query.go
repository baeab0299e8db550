// .pw syntax for relational-algebra queries. A @query block names a
// query and lists its output relations, one per line:
//
//	@query high-readings
//	  out: A = project[s](select[#v = hi](Reading(s v)))
//
// The expression grammar (whitespace-insensitive between tokens):
//
//	EXPR  := NAME(col col ...)                  base-relation scan
//	       | project[col, col, ...](EXPR)
//	       | select[OPND OP OPND, ...](EXPR)    OP is = or !=
//	       | rename[col->col, ...](EXPR)
//	       | join(EXPR, EXPR)                   natural join
//	       | union(EXPR, EXPR)
//	       | diff(EXPR, EXPR)                   per-world set difference
//	       | possible(EXPR)                     world-set union (certain rel)
//	       | certain(EXPR)                      world-set intersection
//	       | choiceof(EXPR)                     hypothetical what-if choice
//	       | values[col col ...](v v ...; v v ...)
//	OPND  := #col                               column reference
//	       | NAME                               constant literal
//
// project/rename/join/union/diff/possible/certain/choiceof/select/values
// are reserved words in the relation position. Identifiers extend to the
// next delimiter (whitespace or one of ()[],;#=! or ->). ParseQuery
// validates the query's schema on the way in; the printed form
// (PrintQuery) is canonical and parse→print is a fixed point. Queries
// with ≠ selections or world-set operators parse fine — whether a
// backend supports them is the engines' decision, not the parser's.
package parse

import (
	"fmt"
	"io"
	"strings"

	"pw/internal/algebra"
	"pw/internal/cond"
	"pw/internal/query"
)

// ParseQuery reads a .pw query (one @query block).
func ParseQuery(r io.Reader) (query.Algebra, error) {
	sc := newScanner(r)
	lineNo := 0
	seen := false
	name := ""
	var outs []query.Out
	outNames := map[string]bool{}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		switch {
		case line == "@query" || strings.HasPrefix(line, "@query "):
			if seen {
				return query.Algebra{}, fmt.Errorf("line %d: duplicate @query block", lineNo)
			}
			seen = true
			name = strings.TrimSpace(strings.TrimPrefix(line, "@query"))
		case strings.HasPrefix(line, "out:"):
			if !seen {
				return query.Algebra{}, fmt.Errorf("line %d: out before @query", lineNo)
			}
			rest := strings.TrimPrefix(line, "out:")
			outName, exprSrc, ok := strings.Cut(rest, "=")
			if !ok {
				return query.Algebra{}, fmt.Errorf("line %d: want \"out: NAME = EXPR\"", lineNo)
			}
			outName = strings.TrimSpace(outName)
			if outName == "" {
				return query.Algebra{}, fmt.Errorf("line %d: empty output name", lineNo)
			}
			if outNames[outName] {
				return query.Algebra{}, fmt.Errorf("line %d: duplicate output %s", lineNo, outName)
			}
			outNames[outName] = true
			e, err := ParseQueryExpr(exprSrc)
			if err != nil {
				return query.Algebra{}, fmt.Errorf("line %d: %w", lineNo, err)
			}
			outs = append(outs, query.Out{Name: outName, Expr: e})
		default:
			return query.Algebra{}, fmt.Errorf("line %d: unrecognized directive %q", lineNo, line)
		}
	}
	if err := sc.Err(); err != nil {
		return query.Algebra{}, err
	}
	if !seen {
		return query.Algebra{}, fmt.Errorf("missing @query block")
	}
	if len(outs) == 0 {
		return query.Algebra{}, fmt.Errorf("@query block has no out: lines")
	}
	q := query.NewAlgebra(name, outs...)
	for _, o := range q.Outs {
		if _, err := o.Expr.Schema(); err != nil {
			return query.Algebra{}, fmt.Errorf("out %s: %w", o.Name, err)
		}
	}
	return q, nil
}

// ParseQueryExpr parses a single algebra expression in the @query
// grammar. Trailing input is an error.
func ParseQueryExpr(s string) (algebra.Expr, error) {
	p := &exprParser{s: s}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	p.ws()
	if p.pos < len(p.s) {
		return nil, fmt.Errorf("trailing input %q after expression", p.s[p.pos:])
	}
	return e, nil
}

// exprParser is a hand-rolled recursive-descent parser over the
// expression grammar above.
type exprParser struct {
	s   string
	pos int
}

func (p *exprParser) ws() {
	for p.pos < len(p.s) && (p.s[p.pos] == ' ' || p.s[p.pos] == '\t') {
		p.pos++
	}
}

// eat consumes tok (after whitespace) when present.
func (p *exprParser) eat(tok string) bool {
	p.ws()
	if strings.HasPrefix(p.s[p.pos:], tok) {
		p.pos += len(tok)
		return true
	}
	return false
}

func (p *exprParser) expect(tok string) error {
	if !p.eat(tok) {
		at := p.s[p.pos:]
		if len(at) > 16 {
			at = at[:16] + "…"
		}
		return fmt.Errorf("want %q at %q", tok, at)
	}
	return nil
}

// ident reads an identifier: everything up to the next delimiter.
func (p *exprParser) ident() (string, error) {
	p.ws()
	start := p.pos
	for p.pos < len(p.s) {
		c := p.s[p.pos]
		if c == ' ' || c == '\t' || strings.IndexByte("()[],;#=!", c) >= 0 {
			break
		}
		if c == '-' && p.pos+1 < len(p.s) && p.s[p.pos+1] == '>' {
			break
		}
		p.pos++
	}
	if p.pos == start {
		at := p.s[p.pos:]
		if len(at) > 16 {
			at = at[:16] + "…"
		}
		return "", fmt.Errorf("want identifier at %q", at)
	}
	return p.s[start:p.pos], nil
}

// identList reads a comma-separated identifier list terminated by "]".
func (p *exprParser) identList() ([]string, error) {
	var out []string
	for {
		id, err := p.ident()
		if err != nil {
			return nil, err
		}
		out = append(out, id)
		if !p.eat(",") {
			return out, nil
		}
	}
}

// fieldList reads a whitespace-separated identifier list up to the
// given closing delimiter (exclusive).
func (p *exprParser) fieldList(close byte) ([]string, error) {
	var out []string
	for {
		p.ws()
		if p.pos >= len(p.s) || p.s[p.pos] == close || p.s[p.pos] == ';' {
			return out, nil
		}
		id, err := p.ident()
		if err != nil {
			return nil, err
		}
		out = append(out, id)
	}
}

func (p *exprParser) operand() (algebra.Operand, error) {
	if p.eat("#") {
		col, err := p.ident()
		if err != nil {
			return algebra.Operand{}, fmt.Errorf("after #: %w", err)
		}
		return algebra.Col(col), nil
	}
	k, err := p.ident()
	if err != nil {
		return algebra.Operand{}, err
	}
	return algebra.Lit(k), nil
}

func (p *exprParser) expr() (algebra.Expr, error) {
	head, err := p.ident()
	if err != nil {
		return nil, err
	}
	switch head {
	case "project":
		if err := p.expect("["); err != nil {
			return nil, err
		}
		cols, err := p.identList()
		if err != nil {
			return nil, err
		}
		e, err := p.bracketedArg()
		if err != nil {
			return nil, err
		}
		return algebra.Project{E: e, Cols: cols}, nil

	case "select":
		if err := p.expect("["); err != nil {
			return nil, err
		}
		var preds []algebra.Pred
		for {
			l, err := p.operand()
			if err != nil {
				return nil, err
			}
			op := cond.Eq
			if p.eat("!=") {
				op = cond.Neq
			} else if err := p.expect("="); err != nil {
				return nil, err
			}
			r, err := p.operand()
			if err != nil {
				return nil, err
			}
			preds = append(preds, algebra.Pred{Op: op, L: l, R: r})
			if !p.eat(",") {
				break
			}
		}
		e, err := p.bracketedArg()
		if err != nil {
			return nil, err
		}
		return algebra.Select{E: e, Preds: preds}, nil

	case "rename":
		if err := p.expect("["); err != nil {
			return nil, err
		}
		var from, to []string
		for {
			f, err := p.ident()
			if err != nil {
				return nil, err
			}
			if err := p.expect("->"); err != nil {
				return nil, err
			}
			t, err := p.ident()
			if err != nil {
				return nil, err
			}
			from, to = append(from, f), append(to, t)
			if !p.eat(",") {
				break
			}
		}
		e, err := p.bracketedArg()
		if err != nil {
			return nil, err
		}
		return algebra.Rename{E: e, From: from, To: to}, nil

	case "join", "union", "diff":
		if err := p.expect("("); err != nil {
			return nil, err
		}
		l, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(","); err != nil {
			return nil, err
		}
		r, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		switch head {
		case "join":
			return algebra.Join{L: l, R: r}, nil
		case "diff":
			return algebra.Diff{L: l, R: r}, nil
		}
		return algebra.Union{L: l, R: r}, nil

	case "possible", "certain", "choiceof":
		if err := p.expect("("); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		switch head {
		case "possible":
			return algebra.Possible{E: e}, nil
		case "certain":
			return algebra.Certain{E: e}, nil
		}
		return algebra.ChoiceOf{E: e}, nil

	case "values":
		if err := p.expect("["); err != nil {
			return nil, err
		}
		cols, err := p.fieldList(']')
		if err != nil {
			return nil, err
		}
		if err := p.expect("]"); err != nil {
			return nil, err
		}
		if err := p.expect("("); err != nil {
			return nil, err
		}
		var rows [][]string
		for {
			p.ws()
			if p.pos < len(p.s) && p.s[p.pos] == ')' {
				break
			}
			row, err := p.fieldList(')')
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
			if !p.eat(";") {
				break
			}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return algebra.ConstRel{Cols: cols, Rows: rows}, nil

	default: // base-relation scan
		if err := p.expect("("); err != nil {
			return nil, fmt.Errorf("scan %s: %w", head, err)
		}
		cols, err := p.fieldList(')')
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return algebra.Scan(head, cols...), nil
	}
}

// bracketedArg finishes a project/select/rename form: "](EXPR)".
func (p *exprParser) bracketedArg() (algebra.Expr, error) {
	if err := p.expect("]"); err != nil {
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return e, nil
}

// FormatQueryExpr renders an expression in the @query grammar
// (parsable by ParseQueryExpr).
func FormatQueryExpr(e algebra.Expr) (string, error) {
	var b strings.Builder
	if err := formatExpr(&b, e); err != nil {
		return "", err
	}
	return b.String(), nil
}

func formatExpr(b *strings.Builder, e algebra.Expr) error {
	switch n := e.(type) {
	case algebra.Rel:
		b.WriteString(n.Name)
		b.WriteString("(")
		b.WriteString(strings.Join(n.Cols, " "))
		b.WriteString(")")
	case algebra.Project:
		b.WriteString("project[")
		b.WriteString(strings.Join(n.Cols, ", "))
		b.WriteString("](")
		if err := formatExpr(b, n.E); err != nil {
			return err
		}
		b.WriteString(")")
	case algebra.Select:
		b.WriteString("select[")
		for i, pr := range n.Preds {
			if i > 0 {
				b.WriteString(", ")
			}
			formatOperand(b, pr.L)
			if pr.Op == cond.Neq {
				b.WriteString(" != ")
			} else {
				b.WriteString(" = ")
			}
			formatOperand(b, pr.R)
		}
		b.WriteString("](")
		if err := formatExpr(b, n.E); err != nil {
			return err
		}
		b.WriteString(")")
	case algebra.Rename:
		b.WriteString("rename[")
		for i := range n.From {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(n.From[i])
			b.WriteString("->")
			b.WriteString(n.To[i])
		}
		b.WriteString("](")
		if err := formatExpr(b, n.E); err != nil {
			return err
		}
		b.WriteString(")")
	case algebra.Join, algebra.Union, algebra.Diff:
		var l, r algebra.Expr
		switch m := n.(type) {
		case algebra.Join:
			b.WriteString("join(")
			l, r = m.L, m.R
		case algebra.Diff:
			b.WriteString("diff(")
			l, r = m.L, m.R
		default:
			u := n.(algebra.Union)
			b.WriteString("union(")
			l, r = u.L, u.R
		}
		if err := formatExpr(b, l); err != nil {
			return err
		}
		b.WriteString(", ")
		if err := formatExpr(b, r); err != nil {
			return err
		}
		b.WriteString(")")
	case algebra.Possible, algebra.Certain, algebra.ChoiceOf:
		var arg algebra.Expr
		switch m := n.(type) {
		case algebra.Possible:
			b.WriteString("possible(")
			arg = m.E
		case algebra.Certain:
			b.WriteString("certain(")
			arg = m.E
		default:
			b.WriteString("choiceof(")
			arg = n.(algebra.ChoiceOf).E
		}
		if err := formatExpr(b, arg); err != nil {
			return err
		}
		b.WriteString(")")
	case algebra.ConstRel:
		b.WriteString("values[")
		b.WriteString(strings.Join(n.Cols, " "))
		b.WriteString("](")
		for i, row := range n.Rows {
			if i > 0 {
				b.WriteString("; ")
			}
			b.WriteString(strings.Join(row, " "))
		}
		b.WriteString(")")
	default:
		return fmt.Errorf("parse: expression %T has no @query syntax", e)
	}
	return nil
}

func formatOperand(b *strings.Builder, o algebra.Operand) {
	if k, isConst := o.Const(); isConst {
		b.WriteString(k)
		return
	}
	col, _ := o.Column()
	b.WriteString("#")
	b.WriteString(col)
}

// PrintQuery renders q in .pw syntax (parsable by ParseQuery).
func PrintQuery(w io.Writer, q query.Algebra) error {
	header := "@query"
	if q.Name != "" {
		header += " " + q.Name
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for _, o := range q.Outs {
		s, err := FormatQueryExpr(o.Expr)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "  out: %s = %s\n", o.Name, s); err != nil {
			return err
		}
	}
	return nil
}
