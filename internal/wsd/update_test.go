// Unit and property tests for the update engine: every operation kind
// against the world-wise reference semantics, the incremental ==
// full-renormalization canonical-form property, and the copy-on-write
// snapshot discipline (the pre-update decomposition must stay byte-for-
// byte intact through arbitrary update chains).
package wsd_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pw/internal/gen"
	"pw/internal/parse"
	"pw/internal/rel"
	"pw/internal/table"
	"pw/internal/wsd"
)

// randomUpdate builds a seeded update over gen.RandomWSD's single
// relation R and c0..cN constant pool, covering all five op kinds,
// wildcards, and multi-op sequences.
func randomUpdate(rng *rand.Rand, arity, consts int) *wsd.Update {
	n := 1 + rng.Intn(3)
	u := &wsd.Update{}
	for i := 0; i < n; i++ {
		kind := wsd.UpdateKind(rng.Intn(5))
		args := make([]string, arity)
		for j := range args {
			if (kind == wsd.OpDelete || kind == wsd.OpSet) && rng.Intn(3) == 0 {
				args[j] = wsd.Wildcard
				continue
			}
			args[j] = fmt.Sprintf("c%d", rng.Intn(consts))
		}
		op := wsd.UpdateOp{Kind: kind, Rel: "R", Args: args}
		if kind == wsd.OpSet {
			for k, seen := 0, map[int]bool{}; k < 1+rng.Intn(arity); k++ {
				s := rng.Intn(arity)
				if seen[s] {
					continue
				}
				seen[s] = true
				op.Set = append(op.Set, wsd.SlotAssign{Slot: s, Value: fmt.Sprintf("c%d", rng.Intn(consts))})
			}
			if len(op.Set) == 0 {
				op.Set = []wsd.SlotAssign{{Slot: 0, Value: "c0"}}
			}
		}
		u.Ops = append(u.Ops, op)
	}
	return u
}

// worldKeys dedups a world list into canonical instance keys.
func worldKeys(ws []*rel.Instance) map[string]bool {
	m := make(map[string]bool, len(ws))
	for _, w := range ws {
		m[w.Key()] = true
	}
	return m
}

// oracleApply is the reference semantics: the update applied to each
// explicit world separately, surviving worlds deduplicated.
func oracleApply(ws []*rel.Instance, u *wsd.Update) map[string]bool {
	out := make(map[string]bool)
	for _, w := range ws {
		if img, ok := u.ApplyToWorld(w); ok {
			out[img.Key()] = true
		}
	}
	return out
}

// boundedBase returns a seeded random base decomposition with a small
// explicit world list, or nil when the draw is too large to expand.
func boundedBase(t *testing.T, seed int64) *wsd.WSD {
	t.Helper()
	w, err := gen.RandomWSD(seed, 4, 3, 2, 5)
	if err != nil {
		t.Fatalf("seed %d: RandomWSD: %v", seed, err)
	}
	if !w.Count().IsInt64() || w.Count().Int64() > 400 {
		return nil
	}
	return w
}

func TestUpdateAgainstWorldsOracle(t *testing.T) {
	cases := 0
	for seed := int64(0); seed < 400 && cases < 250; seed++ {
		base := boundedBase(t, seed)
		if base == nil {
			continue
		}
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		u := randomUpdate(rng, 2, 5)
		want := oracleApply(base.Expand(0), u)

		got, err := base.ApplyUpdate(u)
		if err != nil {
			t.Fatalf("seed %d: ApplyUpdate(%q): %v", seed, u, err)
		}
		if !got.Count().IsInt64() || got.Count().Int64() > 2000 {
			t.Fatalf("seed %d: post-update count exploded: %s", seed, got.Count())
		}
		if int(got.Count().Int64()) != len(want) {
			t.Fatalf("seed %d: update %q: Count = %s, oracle has %d worlds\nbase:\n%s\ngot:\n%s",
				seed, u, got.Count(), len(want), base, got)
		}
		for _, inst := range got.Expand(0) {
			if !got.Member(inst) {
				t.Fatalf("seed %d: updated decomposition rejects its own world\nworld:\n%s\ngot:\n%s", seed, inst, got)
			}
		}
		if keys := worldKeys(got.Expand(0)); len(keys) != len(want) {
			t.Fatalf("seed %d: expanded %d distinct worlds, oracle has %d", seed, len(keys), len(want))
		} else {
			for k := range keys {
				if !want[k] {
					t.Fatalf("seed %d: update %q produced a world outside the oracle set\nbase:\n%s\ngot:\n%s",
						seed, u, base, got)
				}
			}
		}
		cases++
	}
	if cases < 150 {
		t.Fatalf("only %d bounded cases; want >= 150", cases)
	}
}

// TestIncrementalMatchesFullRenormalization holds the incremental
// route to the from-scratch one: seeded updates on bounded random
// decompositions, and the examples' sensors.pw with its patch
// sensors_patch.pw (the pair pwq's update golden prints), must print
// the same canonical form either way.
func TestIncrementalMatchesFullRenormalization(t *testing.T) {
	// same applies u both ways and reports whether both succeeded.
	same := func(tag string, base *wsd.WSD, u *wsd.Update) bool {
		t.Helper()
		incr, errI := base.ApplyUpdate(u)
		full, errF := base.ApplyUpdateFull(u)
		if (errI == nil) != (errF == nil) {
			t.Fatalf("%s: incremental err %v, full err %v", tag, errI, errF)
		}
		if errI != nil {
			return false
		}
		if incr.Count().Cmp(full.Count()) != 0 {
			t.Fatalf("%s: update %q: incremental Count %s != full Count %s",
				tag, u, incr.Count(), full.Count())
		}
		if gi, gf := incr.String(), full.String(); gi != gf {
			t.Fatalf("%s: update %q: incremental form is not Normalize-canonical\nincremental:\n%s\nfull:\n%s\nbase:\n%s",
				tag, u, gi, gf, base)
		}
		return true
	}
	sensors, patch := exampleFile(t, "sensors.pw"), exampleFile(t, "sensors_patch.pw")
	base, err := parse.ParseWSD(strings.NewReader(sensors))
	if err != nil {
		t.Fatal(err)
	}
	u, err := parse.ParseUpdate(strings.NewReader(patch))
	if err != nil {
		t.Fatal(err)
	}
	if !same("sensors.pw + sensors_patch.pw", base, u) {
		t.Fatal("sensors.pw + sensors_patch.pw: the patch failed to apply")
	}

	cases := 0
	for seed := int64(0); seed < 500 && cases < 250; seed++ {
		base := boundedBase(t, seed)
		if base == nil {
			continue
		}
		rng := rand.New(rand.NewSource(seed ^ 0xfade))
		if same(fmt.Sprintf("seed %d", seed), base, randomUpdate(rng, 2, 5)) {
			cases++
		}
	}
	if cases < 150 {
		t.Fatalf("only %d canonical-form cases; want >= 150", cases)
	}
}

// exampleFile reads a file of the repository's examples/data.
func exampleFile(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "examples", "data", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// constSlotUpdate builds a seeded delete/conditional-update program
// whose patterns each carry at least one constant slot, so the rewrite
// finds its targets through that column's postings.
func constSlotUpdate(rng *rand.Rand, arity, consts int) *wsd.Update {
	u := &wsd.Update{}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		args := make([]string, arity)
		for j := range args {
			args[j] = wsd.Wildcard
			if rng.Intn(2) == 0 {
				args[j] = fmt.Sprintf("c%d", rng.Intn(consts))
			}
		}
		args[rng.Intn(arity)] = fmt.Sprintf("c%d", rng.Intn(consts))
		op := wsd.UpdateOp{Kind: wsd.OpDelete, Rel: "R", Args: args}
		if rng.Intn(2) == 0 {
			op.Kind = wsd.OpSet
			op.Set = []wsd.SlotAssign{{Slot: rng.Intn(arity), Value: fmt.Sprintf("c%d", rng.Intn(consts))}}
		}
		u.Ops = append(u.Ops, op)
	}
	return u
}

// TestIncrementalMatchesFullConstSlots runs chains of constant-slot
// delete/update programs: each step's incremental result must print as
// the full renormalization of the same parent, and the chain continues
// from the incremental result, so later steps read postings carried
// across earlier installs.
func TestIncrementalMatchesFullConstSlots(t *testing.T) {
	cases := 0
	for seed := int64(0); seed < 200; seed++ {
		arity := 2 + int(seed%2)
		cur, err := gen.RandomWSD(seed, 6, 3, arity, 5)
		if err != nil {
			continue
		}
		rng := rand.New(rand.NewSource(seed ^ 0xc0175))
		for step := 0; step < 5 && !cur.Empty(); step++ {
			u := constSlotUpdate(rng, arity, 5)
			incr, errI := cur.ApplyUpdate(u)
			full, errF := cur.ApplyUpdateFull(u)
			if (errI == nil) != (errF == nil) {
				t.Fatalf("seed %d step %d: incremental err %v, full err %v", seed, step, errI, errF)
			}
			if errI != nil {
				break
			}
			if gi, gf := incr.String(), full.String(); gi != gf {
				t.Fatalf("seed %d step %d: update %q: incremental form is not Normalize-canonical\nincremental:\n%s\nfull:\n%s\nparent:\n%s",
					seed, step, u, gi, gf, cur)
			}
			cur = incr
			cases++
		}
	}
	if cases < 900 {
		t.Fatalf("only %d constant-slot cases; want >= 900", cases)
	}
}

// TestRewriteTargetsMatchScan checks the posting-index lookup of
// delete and update targets against a scan of every stored fact and
// template: random patterns with constant and wildcard slots, probed on
// every version of update chains over gen.RandomWSD, so later probes
// read postings carried across earlier installs. The two must agree
// list for list.
func TestRewriteTargetsMatchScan(t *testing.T) {
	var probes, hits, tmplHits int
	for seed := int64(0); seed < 120; seed++ {
		arity := 2 + int(seed%2)
		cur, err := gen.RandomWSD(seed, 6, 3, arity, 5)
		if err != nil {
			continue
		}
		rng := rand.New(rand.NewSource(seed ^ 0x7a5c))
		for step := 0; step < 6 && !cur.Empty(); step++ {
			for k := 0; k < 8; k++ {
				args := make([]string, arity)
				for j := range args {
					args[j] = wsd.Wildcard
					if rng.Intn(3) > 0 {
						args[j] = fmt.Sprintf("c%d", rng.Intn(5))
					}
				}
				index, scan, live := cur.RewriteTargets("R", args)
				if !live {
					continue
				}
				if fmt.Sprint(index) != fmt.Sprint(scan) {
					t.Fatalf("seed %d step %d: pattern R(%s): index finds %v, scan %v\n%s",
						seed, step, strings.Join(args, " "), index, scan, cur)
				}
				probes++
				if len(scan) > 0 {
					hits++
				}
				for _, ci := range scan {
					if cur.IsTemplate(int(ci)) {
						tmplHits++
						break
					}
				}
			}
			u := randomUpdate(rng, arity, 5)
			if op := templateOp(rng, cur); op != nil && rng.Intn(2) == 0 {
				u.Ops = append(u.Ops, *op)
			}
			next, err := cur.ApplyUpdate(u)
			if err != nil {
				break
			}
			cur = next
		}
	}
	t.Logf("%d probes, %d with targets, %d reaching a template", probes, hits, tmplHits)
	if probes < 2000 || hits < 1000 || tmplHits < 200 {
		t.Fatalf("weak coverage: %d probes, %d with targets, %d reaching a template", probes, hits, tmplHits)
	}
}

func TestApplyUpdateLeavesSnapshotIntact(t *testing.T) {
	base, err := gen.RandomWSD(7, 4, 3, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	type snap struct {
		w     *wsd.WSD
		print string
		count string
	}
	chain := []snap{{base, base.String(), base.Count().String()}}
	rng := rand.New(rand.NewSource(99))
	cur := base
	for step := 0; step < 12; step++ {
		u := randomUpdate(rng, 2, 5)
		next, err := cur.ApplyUpdate(u)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		// Every snapshot in the chain must still print and count as it
		// did when it was the head: structural sharing, never mutation.
		for i, s := range chain {
			if got := s.w.String(); got != s.print {
				t.Fatalf("step %d mutated snapshot %d:\nwas:\n%s\nnow:\n%s", step, i, s.print, got)
			}
			if got := s.w.Count().String(); got != s.count {
				t.Fatalf("step %d changed snapshot %d count %s -> %s", step, i, s.count, got)
			}
		}
		chain = append(chain, snap{next, next.String(), next.Count().String()})
		cur = next
	}
	// The oldest snapshot still answers membership for its own worlds.
	if !base.Empty() {
		for _, w := range base.Expand(4) {
			if !base.Member(w) {
				t.Fatalf("base snapshot no longer contains its own world:\n%s", w)
			}
		}
	}
}

func TestUpdateTemplatePaths(t *testing.T) {
	mk := func() *wsd.WSD {
		w := wsd.New(table.Schema{{Name: "R", Arity: 2}})
		if err := w.AddTemplateComponent("R", []string{"a", "b"}, []string{"x", "y"}); err != nil {
			t.Fatal(err)
		}
		if err := w.AddComponent(
			wsd.Alt{{Rel: "R", Args: rel.Fact{"hub", "on"}}},
			wsd.Alt{{Rel: "R", Args: rel.Fact{"hub", "off"}}},
		); err != nil {
			t.Fatal(err)
		}
		if err := w.Normalize(); err != nil {
			t.Fatal(err)
		}
		return w
	}

	t.Run("assume collapses template without expansion", func(t *testing.T) {
		w := mk()
		got, err := w.ApplyUpdate(&wsd.Update{Ops: []wsd.UpdateOp{
			{Kind: wsd.OpAssume, Rel: "R", Args: []string{"a", "x"}},
		}})
		if err != nil {
			t.Fatal(err)
		}
		if got.Count().Int64() != 2 {
			t.Fatalf("count = %s, want 2 (template fixed, hub still open)", got.Count())
		}
		if !got.CertainFact("R", rel.Fact{"a", "x"}) {
			t.Fatal("assumed fact did not become certain")
		}
		if got.PossibleFact("R", rel.Fact{"b", "y"}) {
			t.Fatal("excluded instantiation still possible")
		}
	})

	t.Run("assume-not drops one instantiation", func(t *testing.T) {
		w := mk()
		got, err := w.ApplyUpdate(&wsd.Update{Ops: []wsd.UpdateOp{
			{Kind: wsd.OpAssumeNot, Rel: "R", Args: []string{"a", "x"}},
		}})
		if err != nil {
			t.Fatal(err)
		}
		if got.Count().Int64() != 6 {
			t.Fatalf("count = %s, want 6 (3 surviving instantiations x 2)", got.Count())
		}
		if got.PossibleFact("R", rel.Fact{"a", "x"}) {
			t.Fatal("excluded instantiation still possible")
		}
	})

	t.Run("delete wildcard kills template", func(t *testing.T) {
		w := mk()
		got, err := w.ApplyUpdate(&wsd.Update{Ops: []wsd.UpdateOp{
			{Kind: wsd.OpDelete, Rel: "R", Args: []string{wsd.Wildcard, wsd.Wildcard}},
		}})
		if err != nil {
			t.Fatal(err)
		}
		// Every world maps to the empty instance: exactly one world left.
		if got.Count().Int64() != 1 {
			t.Fatalf("count = %s, want 1", got.Count())
		}
		if got.Empty() {
			t.Fatal("world set became empty; want the single empty world")
		}
	})

	t.Run("insert into template support", func(t *testing.T) {
		w := mk()
		got, err := w.ApplyUpdate(&wsd.Update{Ops: []wsd.UpdateOp{
			{Kind: wsd.OpInsert, Rel: "R", Args: []string{"a", "x"}},
		}})
		if err != nil {
			t.Fatal(err)
		}
		if !got.CertainFact("R", rel.Fact{"a", "x"}) {
			t.Fatal("inserted fact not certain")
		}
		// Worlds where the template chose R(a x) merge with the insert:
		// 4 instantiations collapse to 3 distinct residues + certain fact.
		if got.Count().Int64() != 8 {
			t.Fatalf("count = %s, want 8", got.Count())
		}
	})
}

func TestUpdateWorldFilters(t *testing.T) {
	w := wsd.New(table.Schema{{Name: "R", Arity: 1}})
	if err := w.AddComponent(
		wsd.Alt{{Rel: "R", Args: rel.Fact{"a"}}},
		wsd.Alt{{Rel: "R", Args: rel.Fact{"b"}}},
	); err != nil {
		t.Fatal(err)
	}
	if err := w.Normalize(); err != nil {
		t.Fatal(err)
	}

	got, err := w.ApplyUpdate(&wsd.Update{Ops: []wsd.UpdateOp{
		{Kind: wsd.OpAssume, Rel: "R", Args: []string{"a"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got.Count().Int64() != 1 || !got.CertainFact("R", rel.Fact{"a"}) {
		t.Fatalf("assume R(a): count %s, certain(a)=%v", got.Count(), got.CertainFact("R", rel.Fact{"a"}))
	}

	// Assuming an impossible fact empties the world set.
	got, err = w.ApplyUpdate(&wsd.Update{Ops: []wsd.UpdateOp{
		{Kind: wsd.OpAssume, Rel: "R", Args: []string{"zzz"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Empty() || got.Count().Int64() != 0 {
		t.Fatalf("assume impossible: Empty=%v Count=%s, want empty world set", got.Empty(), got.Count())
	}

	// Updates on the empty world set stay empty.
	got2, err := got.ApplyUpdate(&wsd.Update{Ops: []wsd.UpdateOp{
		{Kind: wsd.OpInsert, Rel: "R", Args: []string{"a"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !got2.Empty() {
		t.Fatal("insert into the empty world set produced worlds")
	}

	// assume-not of a certain fact also empties the set.
	certain, err := w.ApplyUpdate(&wsd.Update{Ops: []wsd.UpdateOp{
		{Kind: wsd.OpInsert, Rel: "R", Args: []string{"c"}},
		{Kind: wsd.OpAssumeNot, Rel: "R", Args: []string{"c"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !certain.Empty() {
		t.Fatal("assume-not of a certain fact left worlds")
	}
}

func TestUpdateErrors(t *testing.T) {
	w := wsd.New(table.Schema{{Name: "R", Arity: 2}})
	if err := w.AddComponent(wsd.Alt{{Rel: "R", Args: rel.Fact{"a", "b"}}}, wsd.Alt{}); err != nil {
		t.Fatal(err)
	}
	if err := w.Normalize(); err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		name string
		op   wsd.UpdateOp
		want string
	}{
		{"unknown relation", wsd.UpdateOp{Kind: wsd.OpInsert, Rel: "Q", Args: []string{"a", "b"}}, "unknown relation"},
		{"arity mismatch", wsd.UpdateOp{Kind: wsd.OpInsert, Rel: "R", Args: []string{"a"}}, "takes 2 slots"},
		{"wildcard in insert", wsd.UpdateOp{Kind: wsd.OpInsert, Rel: "R", Args: []string{"a", "*"}}, "ground fact"},
		{"wildcard in assume", wsd.UpdateOp{Kind: wsd.OpAssume, Rel: "R", Args: []string{"*", "b"}}, "ground fact"},
		{"set without assigns", wsd.UpdateOp{Kind: wsd.OpSet, Rel: "R", Args: []string{"a", "b"}}, "no set assignments"},
		{"set slot out of range", wsd.UpdateOp{Kind: wsd.OpSet, Rel: "R", Args: []string{"a", "b"},
			Set: []wsd.SlotAssign{{Slot: 5, Value: "x"}}}, "sets slot 6"},
		{"set value wildcard", wsd.UpdateOp{Kind: wsd.OpSet, Rel: "R", Args: []string{"a", "b"},
			Set: []wsd.SlotAssign{{Slot: 0, Value: "*"}}}, "must be constants"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			_, err := w.ApplyUpdate(&wsd.Update{Ops: []wsd.UpdateOp{tc.op}})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}

	// A rewrite that funnels all 100 century templates onto one shared
	// fact would merge them into a 2^100-alternative component; the
	// blow-up guard rejects it and the base stays usable.
	century := gen.CenturyWSD()
	before := century.Count().String()
	_, err := century.ApplyUpdate(&wsd.Update{Ops: []wsd.UpdateOp{
		{Kind: wsd.OpSet, Rel: "R", Args: []string{wsd.Wildcard, "hi"},
			Set: []wsd.SlotAssign{{Slot: 0, Value: "shared"}}},
	}})
	if err == nil || !strings.Contains(err.Error(), "too entangled") {
		t.Fatalf("century funnel rewrite: err = %v, want blow-up guard", err)
	}
	if century.Count().String() != before {
		t.Fatal("failed update mutated the base decomposition")
	}
	// Filters touch one template only, so they stay cheap at 2^100 worlds.
	kept, err := century.ApplyUpdate(&wsd.Update{Ops: []wsd.UpdateOp{
		{Kind: wsd.OpAssume, Rel: "R", Args: []string{"s000", "hi"}},
	}})
	if err != nil {
		t.Fatalf("century assume: %v", err)
	}
	if !kept.CertainFact("R", rel.Fact{"s000", "hi"}) {
		t.Fatal("century assume did not pin the instantiation")
	}
}

func TestUpdateCompaction(t *testing.T) {
	w := wsd.New(table.Schema{{Name: "R", Arity: 1}})
	// 200 certain facts plus one open choice.
	certain := make(wsd.Alt, 0, 200)
	for i := 0; i < 200; i++ {
		certain = append(certain, wsd.Fact{Rel: "R", Args: rel.Fact{fmt.Sprintf("k%03d", i)}})
	}
	if err := w.AddComponent(certain); err != nil {
		t.Fatal(err)
	}
	if err := w.AddComponent(
		wsd.Alt{{Rel: "R", Args: rel.Fact{"open1"}}},
		wsd.Alt{{Rel: "R", Args: rel.Fact{"open2"}}},
	); err != nil {
		t.Fatal(err)
	}
	if err := w.Normalize(); err != nil {
		t.Fatal(err)
	}
	// Delete most of the certain facts one update at a time; the hole
	// compaction must keep Size/Support consistent throughout.
	cur := w
	for i := 0; i < 150; i++ {
		next, err := cur.ApplyUpdate(&wsd.Update{Ops: []wsd.UpdateOp{
			{Kind: wsd.OpDelete, Rel: "R", Args: []string{fmt.Sprintf("k%03d", i)}},
		}})
		if err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
		cur = next
		if got, want := cur.Size(), 200-(i+1)+2; got != want {
			t.Fatalf("after %d deletes: Size = %d, want %d", i+1, got, want)
		}
	}
	if got, ok := cur.SupportSize(); !ok || got != 52 {
		t.Fatalf("support holds %d facts, want 52", got)
	}
	full, err := w.ApplyUpdateFull(&wsd.Update{Ops: func() []wsd.UpdateOp {
		ops := make([]wsd.UpdateOp, 150)
		for i := range ops {
			ops[i] = wsd.UpdateOp{Kind: wsd.OpDelete, Rel: "R", Args: []string{fmt.Sprintf("k%03d", i)}}
		}
		return ops
	}()})
	if err != nil {
		t.Fatal(err)
	}
	if cur.String() != full.String() {
		t.Fatalf("compacted incremental form differs from full renormalization\nincr:\n%s\nfull:\n%s", cur, full)
	}
}

func TestUpdateStringRoundTrip(t *testing.T) {
	u := &wsd.Update{Ops: []wsd.UpdateOp{
		{Kind: wsd.OpInsert, Rel: "R", Args: []string{"a", "b"}},
		{Kind: wsd.OpDelete, Rel: "R", Args: []string{"a", wsd.Wildcard}},
		{Kind: wsd.OpSet, Rel: "R", Args: []string{wsd.Wildcard, "lo"},
			Set: []wsd.SlotAssign{{Slot: 1, Value: "hi"}}},
		{Kind: wsd.OpAssume, Rel: "R", Args: []string{"a", "b"}},
		{Kind: wsd.OpAssumeNot, Rel: "R", Args: []string{"c", "d"}},
	}}
	want := "@update\n  insert: R(a b)\n  delete: R(a *)\n  update: R(* lo) set 2 = hi\n  assume: R(a b)\n  assume-not: R(c d)"
	if got := u.String(); got != want {
		t.Fatalf("String:\n%s\nwant:\n%s", got, want)
	}
}
