package parse

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pw/internal/rel"
)

var updateInstanceGolden = flag.Bool("update", false, "rewrite testdata/instance.golden")

// instanceCases are ParseInstance inputs around the fact-line splitter:
// ASCII and unicode whitespace, duplicates, variables, arity errors and
// the directive errors around them.
var instanceCases = []struct{ name, text string }{
	{"tabs", "@relation R(2)\n\tfact:\ta\tb\n\t\tfact: b \t a \n"},
	{"no-space-after-colon", "@relation R(2)\n  fact:a b\n"},
	{"nbsp-separates", "@relation R(2)\n  fact: a\u00a0b\n"},
	{"em-space-separates", "@relation R(2)\n  fact: a\u2003b\n"},
	{"nel-separates", "@relation R(2)\n  fact: a\u0085b\n"},
	{"ideographic-space", "@relation R(2)\n\u3000fact:\u3000a\u3000\u3000b\u3000\n"},
	{"unicode-constants", "@relation R(2)\n  fact: é ü\n  fact: 日本 ü\n"},
	{"invalid-utf8", "@relation R(2)\n  fact: a\xffb c\n"},
	{"duplicate-facts", "@relation R(2)\n  fact: a b\n  fact: a  b\n  fact: b a\n  fact: a b\n"},
	{"crlf", "@relation R(2)\r\n  fact: a b\r\n  fact: c d\r\n"},
	{"comments-and-blanks", "# head\n\n@relation R(1)\n  # note\n \u00a0\n  fact: x\n\n"},
	{"arity-zero", "@relation Z(0)\n  fact:\n  fact:   \n"},
	{"two-relations", "@relation R(1)\n  fact: a\n@relation S(3)\n  fact: a b c\n  fact: c b a\n"},
	{"empty-relation", "@relation R(2)\n@relation S(1)\n  fact: s\n"},
	{"var-field", "@relation R(2)\n  fact: a ?x\n"},
	{"lone-question-mark", "@relation R(2)\n  fact: ? a\n"},
	{"var-second-of-two", "@relation R(3)\n  fact: a ?x ?y\n"},
	{"too-few-fields", "@relation R(2)\n  fact: a\n"},
	{"too-many-fields", "@relation R(2)\n  fact: a b c\n"},
	{"arity-error-before-var", "@relation R(2)\n  fact: ?x\n"},
	{"unicode-space-arity", "@relation R(3)\n  fact: a\u00a0b\n"},
	{"fact-before-relation", "  fact: a b\n"},
	{"duplicate-relation", "@relation R(1)\n@relation R(1)\n"},
	{"bad-header", "@relation R\n"},
	{"bad-arity", "@relation R(x)\n"},
	{"unknown-directive", "@relation R(1)\n  facts: a\n"},
	{"token-too-long", "@relation R(1)\n  fact: " + strings.Repeat("a", 70000) + "\n"},
	{"empty-input", ""},
}

// renderInstance prints what ParseInstance returned: every relation
// with its tuples in insertion order (the order the decision
// procedures visit facts in), or the error text.
func renderInstance(text string) string {
	inst, err := ParseInstance(strings.NewReader(text))
	if err != nil {
		return "error: " + err.Error() + "\n"
	}
	var b strings.Builder
	for _, r := range inst.Relations() {
		fmt.Fprintf(&b, "%s/%d\n", r.Name, r.Arity)
		for _, t := range r.Tuples() {
			fmt.Fprintf(&b, "  %q\n", rel.ResolveFact(t))
		}
	}
	return b.String()
}

// TestParseInstanceGolden pins ParseInstance's instances (tuple order
// included) and error texts on the inputs above.
func TestParseInstanceGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range instanceCases {
		fmt.Fprintf(&b, "== %s\n%s", c.name, renderInstance(c.text))
	}
	path := filepath.Join("testdata", "instance.golden")
	if *updateInstanceGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("ParseInstance output drifted from %s:\n%s", path, got)
	}
}
