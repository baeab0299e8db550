package parse

import (
	"strings"
	"testing"
)

// FuzzParseDatabase asserts the parser's two safety properties on
// arbitrary input: it never panics, and any database it accepts
// round-trips — printing it and re-parsing reaches a fixed point
// (print(parse(print(d))) == print(d)), so the .pw format is closed
// under its own printer.
func FuzzParseDatabase(f *testing.F) {
	f.Add("@table T(2)\n  row: a ?x\n")
	f.Add("@table T(2)\n  global: ?x != b\n  row: a ?x | ?x = c, a != ?y\n")
	f.Add("# comment\n\n@table Emp(2)\n  global: ?dc != ?dd\n  row: carol ?dc\n  row: dana ?dd\n")
	f.Add("@table T(0)\n  row:\n")
	f.Add("@table T(1)\n  row: ? | true\n")
	f.Add("@table A(1)\n  row: x\n@table B(3)\n  row: ?u ?u c\n")
	f.Fuzz(func(t *testing.T, input string) {
		d, err := ParseDatabase(strings.NewReader(input))
		if err != nil {
			return
		}
		var printed strings.Builder
		if err := PrintDatabase(&printed, d); err != nil {
			t.Fatalf("print failed on accepted input %q: %v", input, err)
		}
		d2, err := ParseDatabase(strings.NewReader(printed.String()))
		if err != nil {
			t.Fatalf("printed form does not re-parse: %v\ninput:   %q\nprinted: %q", err, input, printed.String())
		}
		var printed2 strings.Builder
		if err := PrintDatabase(&printed2, d2); err != nil {
			t.Fatalf("second print failed: %v", err)
		}
		if printed2.String() != printed.String() {
			t.Fatalf("print is not a fixed point:\nfirst:  %q\nsecond: %q", printed.String(), printed2.String())
		}
	})
}

// instanceFuzzSeeds are FuzzParseInstance's added seeds.
var instanceFuzzSeeds = []string{
	"@relation T(2)\n  fact: a b\n",
	"@relation Emp(2)\n  fact: alice sales\n  fact: bob eng\n\n@relation Dept(2)\n  fact: sales 1\n",
	"@relation T(0)\n  fact:\n",
	"# only a comment\n",
}

// FuzzParseInstance is the same contract for instance files.
// Every input must also parse as the reference parser parses it: the
// same instance with the same tuple order, or the same error text.
func FuzzParseInstance(f *testing.F) {
	for _, seed := range instanceFuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		if diff := diffParseInstance(input); diff != "" {
			t.Fatalf("ParseInstance disagrees with the reference on %q: %s", input, diff)
		}
		inst, err := ParseInstance(strings.NewReader(input))
		if err != nil {
			return
		}
		var printed strings.Builder
		if err := PrintInstance(&printed, inst); err != nil {
			t.Fatalf("print failed on accepted input %q: %v", input, err)
		}
		inst2, err := ParseInstance(strings.NewReader(printed.String()))
		if err != nil {
			t.Fatalf("printed form does not re-parse: %v\ninput:   %q\nprinted: %q", err, input, printed.String())
		}
		var printed2 strings.Builder
		if err := PrintInstance(&printed2, inst2); err != nil {
			t.Fatalf("second print failed: %v", err)
		}
		if printed2.String() != printed.String() {
			t.Fatalf("print is not a fixed point:\nfirst:  %q\nsecond: %q", printed.String(), printed2.String())
		}
	})
}

// FuzzParseWSD extends the harness to the @wsd decomposition syntax: the
// parser never panics, and any decomposition it accepts normalizes to a
// canonical form whose printing is a fixed point of parse→print.
func FuzzParseWSD(f *testing.F) {
	f.Add("@wsd\n  relation: R(2)\n  component:\n    alt: R(a b)\n    alt: R(a c)\n")
	f.Add("@wsd\n  relation: Emp(2)\n  relation: Dept(2)\n  component:\n    alt: Emp(carol sales), Emp(dana eng)\n    alt: Emp(carol eng), Emp(dana sales)\n  component:\n    alt: Dept(eng 1)\n")
	f.Add("@wsd\n  relation: R(1)\n  component:\n    alt:\n    alt: R(a)\n")
	f.Add("@wsd\n  relation: R(0)\n  component:\n    alt: R()\n")
	f.Add("@wsd\n  relation: R(1)\n  component:\n")
	f.Add("# comment\n\n@wsd\n  relation: R(2)\n  component:\n    alt: R(a b), R(b a)\n    alt: R(a b)\n    alt: R(a b), R(b a)\n")
	f.Add("@wsd\n  relation: R(1)\n  component:\n    alt: R(x)\n    alt: R(y)\n  component:\n    alt: R(x)\n    alt: R(z)\n")
	// Attribute-level slot syntax: templates, fixed and open slots,
	// the comma form, single-value braces, overlapping templates (the
	// merge path), a template overlapping a tuple-level alternative,
	// and the rejected shapes — nested braces, unclosed braces, empty
	// slot values, mixed alt/tmpl components.
	f.Add("@wsd\n  relation: R(2)\n  component:\n    tmpl: R(a {1|2|3})\n")
	f.Add("@wsd\n  relation: R(3)\n  component:\n    tmpl: R(a, {1|2|3}, b)\n")
	f.Add("@wsd\n  relation: R(2)\n  component:\n    tmpl: R({a} {1})\n")
	f.Add("@wsd\n  relation: R(2)\n  component:\n    tmpl: R({a|b} {1|2})\n  component:\n    tmpl: R({b|c} {2|3})\n")
	f.Add("@wsd\n  relation: R(1)\n  component:\n    tmpl: R({x|y})\n  component:\n    alt: R(x)\n    alt:\n")
	f.Add("@wsd\n  relation: R(2)\n  component:\n    tmpl: R({a|{b}} c)\n")
	f.Add("@wsd\n  relation: R(2)\n  component:\n    tmpl: R({a|b c)\n")
	f.Add("@wsd\n  relation: R(2)\n  component:\n    tmpl: R({|} c)\n")
	f.Add("@wsd\n  relation: R(1)\n  component:\n    alt: R(a)\n    tmpl: R({a|b})\n")
	f.Fuzz(func(t *testing.T, input string) {
		w, err := ParseWSD(strings.NewReader(input))
		if err != nil {
			return
		}
		var printed strings.Builder
		if err := PrintWSD(&printed, w); err != nil {
			t.Fatalf("print failed on accepted input %q: %v", input, err)
		}
		w2, err := ParseWSD(strings.NewReader(printed.String()))
		if err != nil {
			t.Fatalf("printed form does not re-parse: %v\ninput:   %q\nprinted: %q", err, input, printed.String())
		}
		var printed2 strings.Builder
		if err := PrintWSD(&printed2, w2); err != nil {
			t.Fatalf("second print failed: %v", err)
		}
		if printed2.String() != printed.String() {
			t.Fatalf("print is not a fixed point:\nfirst:  %q\nsecond: %q", printed.String(), printed2.String())
		}
		// Normalization must preserve the world count exactly: the
		// re-parsed decomposition denotes the same set.
		if w.Count().Cmp(w2.Count()) != 0 {
			t.Fatalf("world count drifted across round trip: %s vs %s", w.Count(), w2.Count())
		}
	})
}

// FuzzParseSource fuzzes the dispatcher with all four block forms —
// the @wsd and @query seeds mirror the inputs pwq's query subcommands
// (poss-ans / cert-ans / cont -query) read, the @update seeds what
// `pwq update` and the server's write op read.
func FuzzParseSource(f *testing.F) {
	f.Add("@table T(2)\n  row: a ?x\n")
	f.Add("@wsd\n  relation: R(1)\n  component:\n    alt: R(a)\n")
	f.Add("@wsd\n  relation: Reading(2)\n  component:\n    alt: Reading(s00 lo)\n    alt: Reading(s00 hi)\n")
	f.Add("@wsd\n  relation: Reading(2)\n  component:\n    tmpl: Reading(s00 {lo|hi})\n  component:\n    tmpl: Reading(s01 {lo|mid|hi})\n")
	f.Add("@query high\n  out: A = project[s](select[#v = hi](Reading(s v)))\n")
	f.Add("@query\n  out: A = join(R(a b), S(b c))\n  out: B = union(R(a b), rename[a->x](R(x b)))\n")
	f.Add("@query neq\n  out: A = select[#a != c0](R(a))\n")
	f.Add("@query v\n  out: A = values[a b](x y; z w)\n")
	f.Add("@query ws\n  out: A = certain(possible(R(a)))\n  out: B = diff(R(a), choiceof(R(a)))\n")
	f.Add("@update\n  insert: R(a b)\n  delete: R(a *)\n")
	f.Add("@update\n  update: R(* lo) set 2 = hi, 1 = x\n  assume-not: R(c d)\n")
	f.Add("# only a comment\n")
	f.Fuzz(func(t *testing.T, input string) {
		src, err := ParseSource(strings.NewReader(input))
		if err != nil {
			return
		}
		set := 0
		for _, ok := range []bool{src.DB != nil, src.WSD != nil, src.Query != nil, src.Update != nil} {
			if ok {
				set++
			}
		}
		if set != 1 {
			t.Fatalf("dispatcher set %d of DB/WSD/Query/Update for %q; exactly one must be set", set, input)
		}
	})
}

// FuzzParseQuery asserts the query parser's safety properties: it never
// panics, and any query it accepts round-trips — printing reaches a
// fixed point of parse→print, so the @query grammar is closed under its
// own printer.
func FuzzParseQuery(f *testing.F) {
	f.Add("@query high\n  out: A = project[s](select[#v = hi](Reading(s v)))\n")
	f.Add("@query\n  out: A = R(a b)\n")
	f.Add("@query\n  out: A = rename[a->b](R(a))\n  out: B = select[#b = #b](R(b))\n")
	f.Add("@query\n  out: A = union(values[a](x; y), R(a))\n")
	f.Add("@query\n  out: A = join(join(R(a b), S(b c)), T(c d))\n")
	// World-set algebra forms: possible/certain/choiceof/diff, nested and
	// mixed with the relational operators.
	f.Add("@query nested\n  out: A = certain(possible(select[#v = hi](Reading(s v))))\n")
	f.Add("@query whatif\n  out: A = join(choiceof(possible(R(a b))), S(b c))\n")
	f.Add("@query d\n  out: A = diff(possible(R(a)), certain(R(a)))\n")
	f.Add("@query\n  out: A = choiceof(diff(R(a b), select[#a != x](R(a b))))\n")
	f.Add("@query\n  out: A = possible(certain(possible(R(a))))\n")
	f.Fuzz(func(t *testing.T, input string) {
		q, err := ParseQuery(strings.NewReader(input))
		if err != nil {
			return
		}
		var printed strings.Builder
		if err := PrintQuery(&printed, q); err != nil {
			t.Fatalf("print failed on accepted input %q: %v", input, err)
		}
		q2, err := ParseQuery(strings.NewReader(printed.String()))
		if err != nil {
			t.Fatalf("printed form does not re-parse: %v\ninput:   %q\nprinted: %q", err, input, printed.String())
		}
		var printed2 strings.Builder
		if err := PrintQuery(&printed2, q2); err != nil {
			t.Fatalf("second print failed: %v", err)
		}
		if printed2.String() != printed.String() {
			t.Fatalf("print is not a fixed point:\nfirst:  %q\nsecond: %q", printed.String(), printed2.String())
		}
	})
}

// FuzzParseUpdate asserts the @update parser's safety properties: it
// never panics, and any program it accepts round-trips — printing
// reaches a fixed point of parse→print, so the update grammar is closed
// under its own printer.
func FuzzParseUpdate(f *testing.F) {
	f.Add("@update\n  insert: R(a b)\n")
	f.Add("@update\n  delete: R(a *)\n  assume: R(a b)\n")
	f.Add("@update\n  update: R(* lo) set 2 = hi\n")
	f.Add("@update\n  update: R(x y) set 2 = hi, 1 = boss\n  assume-not: R(c d)\n")
	f.Add("@update\n  insert: R()\n")
	f.Fuzz(func(t *testing.T, input string) {
		u, err := ParseUpdate(strings.NewReader(input))
		if err != nil {
			return
		}
		var printed strings.Builder
		if err := PrintUpdate(&printed, u); err != nil {
			t.Fatalf("print failed on accepted input %q: %v", input, err)
		}
		u2, err := ParseUpdate(strings.NewReader(printed.String()))
		if err != nil {
			t.Fatalf("printed form does not re-parse: %v\ninput:   %q\nprinted: %q", err, input, printed.String())
		}
		var printed2 strings.Builder
		if err := PrintUpdate(&printed2, u2); err != nil {
			t.Fatalf("second print failed: %v", err)
		}
		if printed2.String() != printed.String() {
			t.Fatalf("print is not a fixed point:\nfirst:  %q\nsecond: %q", printed.String(), printed2.String())
		}
	})
}
