// Package difftest is the shared metamorphic differential harness: one
// oracle-vs-backend runner, parameterized by a case generator, a set of
// backends, and the query each case carries. It replaces the bespoke
// differential suites that grew alongside the engines (the parallel
// decision engine, the decomposition backend, the lifted evaluator) —
// every representation backend answers the same seeded cases and every
// answer is compared against the one ground truth this system has: an
// explicit, finite world list scanned by brute force.
//
// A Case bundles a raw world set with the handles backends need (the
// conditioned-table database that denotes it, a decomposition denoting
// it, an optional query, an optional update applied to every world
// before the query). The harness derives the oracle answers itself:
//
//   - the *image* world set {q(W) : W ∈ worlds} (the raw set under the
//     identity query), deduplicated by fingerprint with exact-equality
//     confirmation;
//   - MEMB/POSS/CERT/UNIQ of probe instances by scanning the image;
//   - Count as the image cardinality, Expand as the image itself;
//   - possible/certain answer sets as the union/intersection of the
//     image worlds' facts.
//
// Probes are metamorphic variants of image worlds: the world itself (a
// member), a strict subset (possible, not a member), and a same-size
// near miss perturbed within the case's constant pool (usually
// neither). Every backend answers every probe; a backend that cannot
// answer an operation leaves the corresponding Ops field nil.
//
// Backends whose answer sets are inherently domain-restricted (the
// c-table engines enumerate candidate answers over the inputs'
// constants; the canonical world set also realizes fresh constants) set
// Ops.AnswerDomain, and the harness compares both sides restricted to
// it — the same genericity argument (Proposition 2.1) the engines rely
// on.
package difftest

import (
	"fmt"
	"math/big"
	"testing"

	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/table"
	"pw/internal/wsd"
)

// Case is one generated differential scenario. Worlds is required (the
// oracle); the remaining fields are handles for whichever backends the
// suite wires in.
type Case struct {
	Tag    string
	Worlds []*rel.Instance // the raw world set; the oracle scans it
	Query  query.Query     // nil = identity; the image set is {q(W)}
	Update *wsd.Update     // optional update applied before the query
	DB     *table.Database // for c-table engine backends
	WSD    *wsd.WSD        // for decomposition backends
	Consts []string        // probe-perturbation constant pool
}

// oracleWorlds is the world list the oracle scans: the raw worlds, with
// the case's update (if any) applied world-by-world first. Backends
// that factorize from the explicit list use the same view, so the
// factorize∘expand identity holds across the write path too.
func (c *Case) oracleWorlds() []*rel.Instance {
	if c.Update == nil {
		return c.Worlds
	}
	return wsd.ApplyUpdateToWorlds(c.Worlds, c.Update)
}

// Q returns the case's query, defaulting to the identity.
func (c *Case) Q() query.Query {
	if c.Query == nil {
		return query.Identity{}
	}
	return c.Query
}

// Ops is a backend's view of one case: the decision procedures it can
// answer. Nil fields are skipped. Every function must be deterministic
// for the case.
type Ops struct {
	Member   func(*rel.Instance) (bool, error)
	Possible func(*rel.Instance) (bool, error)
	Certain  func(*rel.Instance) (bool, error)
	Unique   func(*rel.Instance) (bool, error)
	Count    func() (*big.Int, error)
	Expand   func() ([]*rel.Instance, error)
	PossAns  func() (*rel.Instance, error)
	CertAns  func() (*rel.Instance, error)

	// AnswerDomain, when non-nil, restricts the PossAns/CertAns
	// comparison: both the backend's answer and the oracle's are cut to
	// facts whose constants all lie in the domain.
	AnswerDomain []string
}

// Backend builds Ops for a case. Make returning an error fails the
// suite (backends skip inapplicable cases by agreement with the
// generator, not by erroring).
type Backend struct {
	Name string
	Make func(*Case) (*Ops, error)
}

// Config parameterizes one differential suite.
type Config struct {
	Tag      string
	Cases    int   // required number of generated cases (≥ this many successes)
	MaxSeed  int64 // generation budget; 0 = 40·Cases
	Gen      func(seed int64) (*Case, bool)
	Backends []Backend

	// ProbeWorlds bounds how many image worlds spawn probe instances
	// per case (0 = 8).
	ProbeWorlds int
}

// Run drives the suite: generate cases, derive the oracle, interrogate
// every backend, fail on the first disagreement with a tag that names
// the case, backend, operation and probe.
func Run(t *testing.T, cfg Config) {
	t.Helper()
	if cfg.MaxSeed == 0 {
		cfg.MaxSeed = 40 * int64(cfg.Cases)
	}
	if cfg.ProbeWorlds == 0 {
		cfg.ProbeWorlds = 8
	}
	if len(cfg.Backends) == 0 {
		t.Fatalf("%s: no backends configured", cfg.Tag)
	}
	tested := 0
	for seed := int64(1); tested < cfg.Cases && seed <= cfg.MaxSeed; seed++ {
		c, ok := cfg.Gen(seed)
		if !ok {
			continue
		}
		if c.Tag == "" {
			c.Tag = fmt.Sprintf("%s seed %d", cfg.Tag, seed)
		}
		runCase(t, cfg, c)
		tested++
	}
	if tested < cfg.Cases {
		t.Fatalf("%s: only %d cases generated within the seed budget, want %d", cfg.Tag, tested, cfg.Cases)
	}
	t.Logf("%s: cross-validated %d cases × %d backends", cfg.Tag, tested, len(cfg.Backends))
}

// runCase derives the oracle for one case and checks every backend.
func runCase(t *testing.T, cfg Config, c *Case) {
	t.Helper()
	q := c.Q()
	image := newWorldSet(nil)
	raw := newWorldSet(c.oracleWorlds())
	answers, err := query.EvalOnWorldSet(q, raw.list)
	if err != nil {
		t.Fatalf("%s: oracle EvalOnWorldSet %s: %v", c.Tag, q.Label(), err)
	}
	for _, a := range answers {
		image.add(a)
	}
	union, inter := image.unionInter()
	probes := buildProbes(image.list, cfg.ProbeWorlds, c.Consts)

	for _, b := range cfg.Backends {
		ops, err := b.Make(c)
		if err != nil {
			t.Fatalf("%s: backend %s: %v", c.Tag, b.Name, err)
		}
		checkOps(t, c, b.Name, ops, image, union, inter, probes)
	}
}

// checkOps runs every non-nil operation of one backend against the
// oracle.
func checkOps(t *testing.T, c *Case, name string, ops *Ops, image *worldSet, union, inter *rel.Instance, probes []*rel.Instance) {
	t.Helper()
	tag := func(op string) string { return fmt.Sprintf("%s: backend %s: %s", c.Tag, name, op) }

	if ops.Count != nil {
		got, err := ops.Count()
		if err != nil {
			t.Fatalf("%s: %v", tag("Count"), err)
		}
		if !got.IsInt64() || got.Int64() != int64(len(image.list)) {
			t.Fatalf("%s = %s, oracle has %d image worlds", tag("Count"), got, len(image.list))
		}
	}

	if ops.Expand != nil {
		got, err := ops.Expand()
		if err != nil {
			t.Fatalf("%s: %v", tag("Expand"), err)
		}
		if len(got) != len(image.list) {
			t.Fatalf("%s yielded %d worlds, oracle has %d", tag("Expand"), len(got), len(image.list))
		}
		back := newWorldSet(got)
		if len(back.list) != len(got) {
			t.Fatalf("%s yielded duplicate worlds", tag("Expand"))
		}
		for _, w := range got {
			if !image.has(w) {
				t.Fatalf("%s produced a world outside the oracle set:\n%s", tag("Expand"), w)
			}
		}
	}

	for pi, p := range probes {
		ptag := func(op string) string { return fmt.Sprintf("%s(probe %d)", tag(op), pi) }
		if ops.Member != nil {
			want := image.has(p)
			if got, err := ops.Member(p); err != nil {
				t.Fatalf("%s: %v", ptag("MEMB"), err)
			} else if got != want {
				t.Fatalf("%s = %v, oracle says %v\n%s", ptag("MEMB"), got, want, p)
			}
		}
		if ops.Possible != nil {
			want := image.possible(p)
			if got, err := ops.Possible(p); err != nil {
				t.Fatalf("%s: %v", ptag("POSS"), err)
			} else if got != want {
				t.Fatalf("%s = %v, oracle says %v\n%s", ptag("POSS"), got, want, p)
			}
		}
		if ops.Certain != nil {
			want := image.certain(p)
			if got, err := ops.Certain(p); err != nil {
				t.Fatalf("%s: %v", ptag("CERT"), err)
			} else if got != want {
				t.Fatalf("%s = %v, oracle says %v\n%s", ptag("CERT"), got, want, p)
			}
		}
		if ops.Unique != nil {
			want := len(image.list) == 1 && image.has(p)
			if got, err := ops.Unique(p); err != nil {
				t.Fatalf("%s: %v", ptag("UNIQ"), err)
			} else if got != want {
				t.Fatalf("%s = %v, oracle says %v\n%s", ptag("UNIQ"), got, want, p)
			}
		}
	}

	checkAnswer := func(op string, f func() (*rel.Instance, error), want *rel.Instance) {
		t.Helper()
		got, err := f()
		if err != nil {
			t.Fatalf("%s: %v", tag(op), err)
		}
		if len(image.list) == 0 {
			// ∅ has no canonical answer set; the engines agree to report
			// the schema-shaped empty instance.
			if got.Size() != 0 {
				t.Fatalf("%s on the empty world set = %v, want no facts", tag(op), got)
			}
			return
		}
		g, w := got, want
		if ops.AnswerDomain != nil {
			allowed := map[string]bool{}
			for _, c := range ops.AnswerDomain {
				allowed[c] = true
			}
			g, w = restrictTo(g, allowed), restrictTo(w, allowed)
		}
		if !g.Equal(w) {
			t.Fatalf("%s = %v, oracle says %v", tag(op), g, w)
		}
	}
	if ops.PossAns != nil {
		checkAnswer("PossAns", ops.PossAns, union)
	}
	if ops.CertAns != nil {
		checkAnswer("CertAns", ops.CertAns, inter)
	}
}

// buildProbes derives the metamorphic probe instances from image
// worlds: the world itself, a strict subset, and a same-size near miss
// within the constant pool.
func buildProbes(image []*rel.Instance, maxWorlds int, consts []string) []*rel.Instance {
	var probes []*rel.Instance
	for wi, w := range image {
		if wi >= maxWorlds {
			break
		}
		probes = append(probes, w)
		if s := subsetInstance(w); s != nil {
			probes = append(probes, s)
		}
		if len(consts) > 0 {
			if p := perturbInstance(w, consts[wi%len(consts)]); p != nil {
				probes = append(probes, p)
			}
		}
	}
	return probes
}

// subsetInstance drops one fact from the first non-empty relation; nil
// when the world is empty.
func subsetInstance(w *rel.Instance) *rel.Instance {
	out := rel.NewInstance()
	dropped := false
	for _, r := range w.Relations() {
		nr := out.EnsureRelation(r.Name, r.Arity)
		for fi, f := range r.Facts() {
			if !dropped && fi == 0 {
				dropped = true
				continue
			}
			nr.Add(f)
		}
	}
	if !dropped {
		return nil
	}
	return out
}

// perturbInstance substitutes c into the first cell of the first fact
// of the first non-empty relation — a same-size near-miss world. It
// stays inside the case's constant pool so domain-restricted backends
// and the oracle agree on the answer. Returns nil when the substitution
// would be a no-op or no fact has a cell.
func perturbInstance(w *rel.Instance, c string) *rel.Instance {
	out := rel.NewInstance()
	perturbed := false
	for _, r := range w.Relations() {
		nr := out.EnsureRelation(r.Name, r.Arity)
		for fi, f := range r.Facts() {
			if !perturbed && fi == 0 && len(f) > 0 && f[0] != c {
				nf := f.Clone()
				nf[0] = c
				nr.Add(nf)
				perturbed = true
				continue
			}
			nr.Add(f)
		}
	}
	if !perturbed {
		return nil
	}
	return out
}

// restrictTo keeps only the facts whose constants all lie in allowed.
func restrictTo(i *rel.Instance, allowed map[string]bool) *rel.Instance {
	out := rel.NewInstance()
	for _, r := range i.Relations() {
		keep := out.EnsureRelation(r.Name, r.Arity)
	facts:
		for _, f := range r.Facts() {
			for _, c := range f {
				if !allowed[c] {
					continue facts
				}
			}
			keep.Add(f)
		}
	}
	return out
}

// worldSet is the oracle-side view of a finite world list: fingerprint
// dedup with exact-equality confirmation (the same idiom as
// internal/worlds).
type worldSet struct {
	list    []*rel.Instance
	buckets map[uint64][]*rel.Instance
}

func newWorldSet(ws []*rel.Instance) *worldSet {
	s := &worldSet{buckets: make(map[uint64][]*rel.Instance)}
	for _, w := range ws {
		s.add(w)
	}
	return s
}

func (s *worldSet) add(i *rel.Instance) {
	if s.has(i) {
		return
	}
	s.list = append(s.list, i)
	s.buckets[i.Fingerprint()] = append(s.buckets[i.Fingerprint()], i)
}

func (s *worldSet) has(i *rel.Instance) bool {
	for _, prev := range s.buckets[i.Fingerprint()] {
		if prev.Equal(i) {
			return true
		}
	}
	return false
}

func (s *worldSet) possible(p *rel.Instance) bool {
	for _, w := range s.list {
		if p.SubsetOf(w) {
			return true
		}
	}
	return false
}

func (s *worldSet) certain(p *rel.Instance) bool {
	for _, w := range s.list {
		if !p.SubsetOf(w) {
			return false
		}
	}
	return true
}

// unionInter computes the union and intersection instances of the set's
// worlds' facts (nil, nil on the empty set).
func (s *worldSet) unionInter() (union, inter *rel.Instance) {
	for _, a := range s.list {
		if union == nil {
			union = a.Clone()
			inter = a.Clone()
			continue
		}
		for _, r := range a.Relations() {
			union.EnsureRelation(r.Name, r.Arity).UnionWith(r)
		}
		for _, r := range inter.Relations() {
			other := a.Relation(r.Name)
			keep := rel.NewRelation(r.Name, r.Arity)
			for _, u := range r.Tuples() {
				if other != nil && other.Contains(u) {
					keep.Insert(u)
				}
			}
			*r = *keep
		}
	}
	return union, inter
}
