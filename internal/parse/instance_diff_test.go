package parse

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"pw/internal/sym"
)

// diffParseInstance parses text with ParseInstance and with the
// reference parser. It returns "" when both give the same relations in
// the same order with the same tuples in the same order, or the same
// error text, and a description of the first difference otherwise.
func diffParseInstance(text string) string {
	got, gotErr := ParseInstance(strings.NewReader(text))
	want, wantErr := refParseInstance(strings.NewReader(text))
	switch {
	case gotErr != nil || wantErr != nil:
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			return fmt.Sprintf("error %v, reference error %v", gotErr, wantErr)
		}
		return ""
	case len(got.Relations()) != len(want.Relations()):
		return fmt.Sprintf("%d relations, reference %d", len(got.Relations()), len(want.Relations()))
	}
	for i, r := range got.Relations() {
		w := want.Relations()[i]
		if r.Name != w.Name || r.Arity != w.Arity {
			return fmt.Sprintf("relation %d is %s/%d, reference %s/%d", i, r.Name, r.Arity, w.Name, w.Arity)
		}
		if !slices.EqualFunc(r.Tuples(), w.Tuples(), sym.Tuple.Equal) {
			return fmt.Sprintf("relation %s tuples %v, reference %v", r.Name, r.Tuples(), w.Tuples())
		}
	}
	return ""
}

// separatorCases build instances whose fields, and the space around
// "fact:", are separated by each space character unicode.IsSpace
// knows in ASCII and Latin-1, plus one beyond; CRLF line ends; and the
// bytes that look like space but are not: invalid UTF-8, a lone
// continuation byte, a truncated NEL.
func separatorCases() []string {
	var out []string
	for _, sep := range []string{" ", "\t", "\v", "\f", "\r", "\u0085", "\u00a0", "\u2003", "\u3000", " \t "} {
		out = append(out,
			"@relation R(3)\n"+sep+"fact:"+sep+"a"+sep+"b"+sep+sep+"c"+sep+"\n",
			"@relation R(2)\r\n  fact: a"+sep+"b\r\n  fact: b"+sep+"a\r\n",
			"@relation R(1)\n  fact: a"+sep+"b\n",
		)
	}
	for _, junk := range []string{"\xff", "\x85", "\xa0", "\xc2", "\xc2\x85", "\xe2\x80", "\xed\xa0\x80"} {
		out = append(out,
			"@relation R(2)\n  fact: a"+junk+"b c\n",
			"@relation R(2)\n  fact: a "+junk+"\n",
			"@relation R(1)\n  fact:"+junk+"\n",
		)
	}
	return append(out,
		"# head\n\n@relation R(2)\n# between\n\n  fact: a b\n  # indented comment\n\n  fact: a b\n  fact: b a\n  fact: a\tb\n",
		"  fact: a b\n@relation R(2)\n",
		"@relation R(2)\n  fact: a b\n  fact: a b c\n",
		"@relation R(2)\n  fact: a b\n  fact: a\n",
		"@relation R(2)\n  fact: a ?x\n",
		"@relation R(2)\n  fact: ?x a\n",
		"@relation R(2)\n  fact: a b\n@relation S(1)\n  fact: s\n@relation R(2)\n",
		"@relation R(2)\n  fact: a b\n@relation R(3)\n  fact: a b c\n",
		"@relation R(1)\n  fact: a\n@relation \n",
		"@relation R(1)\n  fact: a\n@relationR(1)\n",
	)
}

// genInstanceText writes a random instance text of a few relations,
// most of it well formed: relation names drawn from a small pool (so
// some repeat), arities 0 to 3, facts over a few constants (so some
// repeat), separators drawn from separatorCases' set, comments and
// blank lines, and now and then a malformed line: a variable, an extra
// field, an unknown directive.
func genInstanceText(rng *rand.Rand) string {
	seps := []string{" ", "  ", "\t", "\v", "\f", "\u0085", "\u00a0", "\u2003"}
	sep := func() string { return seps[rng.Intn(len(seps))] }
	eol := "\n"
	if rng.Intn(4) == 0 {
		eol = "\r\n"
	}
	var b strings.Builder
	for r, rels := 0, 1+rng.Intn(4); r < rels; r++ {
		arity := rng.Intn(4)
		fmt.Fprintf(&b, "@relation R%d(%d)%s", rng.Intn(6), arity, eol)
		for f, facts := 0, rng.Intn(12); f < facts; f++ {
			fields := arity
			switch rng.Intn(40) {
			case 0:
				b.WriteString("# note" + eol)
			case 1:
				b.WriteString(sep() + eol)
			case 2:
				fmt.Fprintf(&b, "  fact: ?v%d%s", rng.Intn(3), eol)
				continue
			case 3:
				fields++
			case 4:
				b.WriteString("  facts: a" + eol)
			}
			b.WriteString(sep() + "fact:")
			for k := 0; k < fields; k++ {
				b.WriteString(sep() + "g" + strconv.Itoa(rng.Intn(5)))
			}
			b.WriteString(eol)
		}
	}
	return b.String()
}

// TestParseInstanceMatchesReference holds ParseInstance to the
// reference parser on FuzzParseInstance's seeds and corpus, the golden
// cases, the separator cases and generated multi-relation texts.
func TestParseInstanceMatchesReference(t *testing.T) {
	inputs := slices.Clone(instanceFuzzSeeds)
	corpus, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzParseInstance", "*"))
	if err != nil || len(corpus) == 0 {
		t.Fatalf("no FuzzParseInstance corpus: %v", err)
	}
	for _, path := range corpus {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, arg, _ := strings.Cut(string(data), "string(")
		s, err := strconv.Unquote(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(arg), ")")))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		inputs = append(inputs, s)
	}
	for _, c := range instanceCases {
		inputs = append(inputs, c.text)
	}
	inputs = append(inputs, separatorCases()...)
	rng := rand.New(rand.NewSource(33))
	for i := 0; i < 2000; i++ {
		inputs = append(inputs, genInstanceText(rng))
	}
	parsed := 0
	for _, text := range inputs {
		if diff := diffParseInstance(text); diff != "" {
			t.Errorf("on %q: %s", text, diff)
		}
		if _, err := ParseInstance(strings.NewReader(text)); err == nil {
			parsed++
		}
	}
	// Both outcomes must be well represented, or the comparison tests
	// only one side of the parser.
	if parsed < len(inputs)/4 || parsed > len(inputs)*3/4 {
		t.Errorf("%d of %d inputs parsed; want between a quarter and three quarters", parsed, len(inputs))
	}
}

// TestAppendFieldsMatchesStringsFields: the table-driven splitter cuts
// every line of the separator cases, and every two-rune string over
// the ASCII and Latin-1 range, exactly where strings.Fields cuts.
func TestAppendFieldsMatchesStringsFields(t *testing.T) {
	lines := strings.Split(strings.Join(separatorCases(), "\n"), "\n")
	for r := rune(0); r < 0x100; r++ {
		lines = append(lines, "a"+string(r)+"b", string(r)+"x"+string(r))
	}
	for b := 0x80; b < 0x100; b++ {
		lines = append(lines, "a"+string([]byte{byte(b)})+"b")
	}
	for _, line := range lines {
		var got []string
		for _, f := range appendFields(nil, []byte(line)) {
			got = append(got, string(f))
		}
		if want := strings.Fields(line); !slices.Equal(got, want) {
			t.Errorf("appendFields(%q) = %q, strings.Fields %q", line, got, want)
		}
	}
}

// coddInstanceText prints an arity-3 relation of n distinct facts over
// 40 constants, the shape of a Codd-table member instance.
func coddInstanceText(n int) string {
	var b strings.Builder
	b.WriteString("@relation T(3)\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  fact: c%d c%d c%d\n", i%40, i/40%40, i/1600)
	}
	return b.String()
}

// TestParseInstanceAllocsFollowBlocks: once its names are interned, an
// instance's allocations do not grow with its facts — 150 and 1200
// facts both take at most 40.
func TestParseInstanceAllocsFollowBlocks(t *testing.T) {
	for _, n := range []int{150, 1200} {
		text := coddInstanceText(n)
		inst, err := ParseInstance(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		if inst.Size() != n {
			t.Fatalf("parsed %d facts, want %d", inst.Size(), n)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := ParseInstance(strings.NewReader(text)); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d facts: %.0f allocations", n, allocs)
		if allocs > 40 {
			t.Errorf("%d facts: %.0f allocations, want at most 40", n, allocs)
		}
	}
}
