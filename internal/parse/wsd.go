// .pw syntax for world-set decompositions. A @wsd block declares a
// schema and a list of components, each either a list of alternative
// fact-sets or one attribute-level fact template with slot-alternative
// lists:
//
//	@wsd
//	  relation: Emp(2)
//	  relation: Dept(2)
//	  component:
//	    alt: Emp(carol sales), Emp(dana eng)
//	    alt: Emp(carol eng), Emp(dana sales)
//	  component:
//	    tmpl: Dept(eng {1|2})
//
// Facts are Rel(c1 c2 ...) with ground, whitespace-separated constants;
// a bare "alt:" is the empty alternative; a component with no alt lines
// denotes the empty world set. A tmpl: line gives one fact template
// whose slots are either a single constant or a braced alternative list
// {a|b|c}; the component's alternatives are the cross product of the
// slot choices (commas between slots are accepted and ignored, so
// "Dept(eng, {1|2})" parses too). A component holds either alt lines or
// exactly one tmpl line, never both. ParseWSD normalizes on the way in,
// so the printed form (PrintWSD / WSD.String) is canonical and
// parse→print is a fixed point.
package parse

import (
	"bytes"
	"fmt"
	"io"
	"strings"

	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/table"
	"pw/internal/wsd"
)

// ParseWSD reads a .pw world-set decomposition (one @wsd block).
func ParseWSD(r io.Reader) (*wsd.WSD, error) {
	sc := newScanner(r)
	lineNo := 0
	seenWSD := false
	inComponents := false
	var schema table.Schema
	schemaSeen := map[string]bool{}
	type comp struct {
		alts []wsd.Alt
		tmpl *wsdTemplate
	}
	var comps []comp
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		switch {
		case line == "@wsd":
			if seenWSD {
				return nil, fmt.Errorf("line %d: duplicate @wsd block", lineNo)
			}
			seenWSD = true
		case strings.HasPrefix(line, "relation:"):
			if !seenWSD {
				return nil, fmt.Errorf("line %d: relation before @wsd", lineNo)
			}
			if inComponents {
				return nil, fmt.Errorf("line %d: relation declarations must precede components", lineNo)
			}
			name, arity, err := parseHeader(strings.TrimPrefix(line, "relation:"))
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			if schemaSeen[name] {
				return nil, fmt.Errorf("line %d: duplicate relation %s", lineNo, name)
			}
			schemaSeen[name] = true
			schema = append(schema, table.SchemaRel{Name: name, Arity: arity})
		case line == "component:":
			if !seenWSD {
				return nil, fmt.Errorf("line %d: component before @wsd", lineNo)
			}
			inComponents = true
			comps = append(comps, comp{})
		case strings.HasPrefix(line, "alt:"):
			if len(comps) == 0 {
				return nil, fmt.Errorf("line %d: alt before component", lineNo)
			}
			if comps[len(comps)-1].tmpl != nil {
				return nil, fmt.Errorf("line %d: a component holds either alt lines or one tmpl line, not both", lineNo)
			}
			alt, err := parseAlt(strings.TrimPrefix(line, "alt:"))
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			c := &comps[len(comps)-1]
			c.alts = append(c.alts, alt)
		case strings.HasPrefix(line, "tmpl:"):
			if len(comps) == 0 {
				return nil, fmt.Errorf("line %d: tmpl before component", lineNo)
			}
			c := &comps[len(comps)-1]
			if c.tmpl != nil {
				return nil, fmt.Errorf("line %d: a component holds at most one tmpl line", lineNo)
			}
			if len(c.alts) > 0 {
				return nil, fmt.Errorf("line %d: a component holds either alt lines or one tmpl line, not both", lineNo)
			}
			tmpl, err := parseTemplate(strings.TrimPrefix(line, "tmpl:"))
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			c.tmpl = tmpl
		default:
			return nil, fmt.Errorf("line %d: unrecognized directive %q", lineNo, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !seenWSD {
		return nil, fmt.Errorf("missing @wsd block")
	}
	w := wsd.New(schema)
	for _, c := range comps {
		if c.tmpl != nil {
			if err := w.AddTemplateComponent(c.tmpl.rel, c.tmpl.cells...); err != nil {
				return nil, err
			}
			continue
		}
		if err := w.AddComponent(c.alts...); err != nil {
			return nil, err
		}
	}
	if err := w.Normalize(); err != nil {
		return nil, err
	}
	return w, nil
}

// wsdTemplate is one parsed tmpl: line — a relation name plus per-slot
// alternative value lists.
type wsdTemplate struct {
	rel   string
	cells [][]string
}

// parseTemplate parses Rel(slot slot ...) where a slot is a single
// ground constant or a braced alternative list {a|b|c}. Commas between
// slots are separators; braces do not nest.
func parseTemplate(s string) (*wsdTemplate, error) {
	s = strings.TrimSpace(s)
	open := strings.IndexByte(s, '(')
	if open <= 0 || !strings.HasSuffix(s, ")") {
		return nil, fmt.Errorf("template %q: want Rel(slot slot ...)", s)
	}
	name := strings.TrimSpace(s[:open])
	if err := checkWSDConst(name); err != nil {
		return nil, fmt.Errorf("template %q: relation: %w", s, err)
	}
	body := s[open+1 : len(s)-1]
	t := &wsdTemplate{rel: name}
	for _, tok := range strings.FieldsFunc(body, func(r rune) bool {
		return r == ' ' || r == '\t' || r == ','
	}) {
		if strings.HasPrefix(tok, "{") {
			if !strings.HasSuffix(tok, "}") {
				return nil, fmt.Errorf("template %q: slot %q: unclosed brace", s, tok)
			}
			inner := tok[1 : len(tok)-1]
			var cell []string
			for _, v := range strings.Split(inner, "|") {
				if err := checkWSDConst(v); err != nil {
					return nil, fmt.Errorf("template %q: slot %q: %w", s, tok, err)
				}
				cell = append(cell, v)
			}
			t.cells = append(t.cells, cell)
			continue
		}
		if err := checkWSDConst(tok); err != nil {
			return nil, fmt.Errorf("template %q: slot %q: %w", s, tok, err)
		}
		t.cells = append(t.cells, []string{tok})
	}
	return t, nil
}

// checkWSDConst validates a ground constant of the @wsd grammar: it must
// be non-empty, not a variable, and free of the slot syntax's reserved
// characters, so the printed form always re-parses.
func checkWSDConst(v string) error {
	if v == "" {
		return fmt.Errorf("empty constant")
	}
	if strings.HasPrefix(v, "?") {
		return fmt.Errorf("decomposition facts must be ground, got %s", v)
	}
	if strings.ContainsAny(v, "{}|,()") {
		return fmt.Errorf("constant %q uses a reserved character of the slot grammar", v)
	}
	return nil
}

// parseAlt parses a comma-separated list of Rel(c1 c2 ...) facts; empty
// input is the empty alternative.
func parseAlt(s string) (wsd.Alt, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return wsd.Alt{}, nil
	}
	var alt wsd.Alt
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		open := strings.IndexByte(part, '(')
		if open <= 0 || !strings.HasSuffix(part, ")") {
			return nil, fmt.Errorf("fact %q: want Rel(c1 c2 ...)", part)
		}
		name := strings.TrimSpace(part[:open])
		fields := strings.Fields(part[open+1 : len(part)-1])
		for _, f := range fields {
			if strings.HasPrefix(f, "?") {
				return nil, fmt.Errorf("fact %q: decomposition facts must be ground, got %s", part, f)
			}
		}
		alt = append(alt, wsd.Fact{Rel: name, Args: rel.Fact(fields)})
	}
	return alt, nil
}

// PrintWSD renders w in .pw syntax (parsable by ParseWSD).
func PrintWSD(out io.Writer, w *wsd.WSD) error {
	_, err := fmt.Fprintln(out, w.String())
	return err
}

// Source is a parsed .pw file that may carry either representation
// backend — a conditioned-table database or a world-set decomposition —
// a relational-algebra query block, or an update program (exactly one
// field is non-nil).
type Source struct {
	DB     *table.Database
	WSD    *wsd.WSD
	Query  *query.Algebra
	Update *wsd.Update
}

// ParseSource reads a .pw file and dispatches on its first directive:
// @table files parse as databases, @wsd files as decompositions, @query
// files as algebra queries, and @update files as update programs.
// Mixing block forms in one file is an error (from the respective
// sub-parsers).
func ParseSource(r io.Reader) (*Source, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	sc := newScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if line == "@wsd" {
			w, err := ParseWSD(bytes.NewReader(data))
			if err != nil {
				return nil, err
			}
			return &Source{WSD: w}, nil
		}
		if line == "@query" || strings.HasPrefix(line, "@query ") {
			q, err := ParseQuery(bytes.NewReader(data))
			if err != nil {
				return nil, err
			}
			return &Source{Query: &q}, nil
		}
		if line == "@update" {
			u, err := ParseUpdate(bytes.NewReader(data))
			if err != nil {
				return nil, err
			}
			return &Source{Update: u}, nil
		}
		break
	}
	d, err := ParseDatabase(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return &Source{DB: d}, nil
}
