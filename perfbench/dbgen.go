package main

import (
	"fmt"
	"math/big"
	"math/rand"
	"strings"

	"pw/internal/parse"
	"pw/internal/rel"
)

// tupleDB is a generated tuple-level decomposition over R(k g v) and a
// certain relation C(g t). Component i has two alternatives; each holds
// two R facts sharing a value, so the alternatives are correlated and
// Normalize keeps them as one tuple-level component (a single-fact
// alternative list would be split into an attribute-level template).
// Groups partition the components evenly, which is what keeps a
// group-selective query's cost independent of the seed.
type tupleDB struct {
	groups  []string    // group constants, one per group
	comps   []tupleComp // uncertain components, in text order
	certain []rel.Fact  // C(g t) facts, one per group
	byGroup [][]int     // component indices per group
}

type tupleComp struct {
	k1, k2 string
	g      int
	v      [2]string // value of alternative 0 and 1
}

// valuePool is the domain of R's value column; values[...] relations of
// the join shape map part of it.
var valuePool = []string{"lo", "hi", "mid", "off", "low", "top"}

func newTupleDB(rng *rand.Rand, n, groups int) *tupleDB {
	db := &tupleDB{byGroup: make([][]int, groups)}
	for j := 0; j < groups; j++ {
		db.groups = append(db.groups, fmt.Sprintf("g%03d", j))
		db.certain = append(db.certain, rel.Fact{db.groups[j], fmt.Sprintf("t%06d", rng.Intn(1000000))})
	}
	keys := rng.Perm(n)
	for i := 0; i < n; i++ {
		a := rng.Intn(len(valuePool))
		b := (a + 1 + rng.Intn(len(valuePool)-1)) % len(valuePool)
		c := tupleComp{
			k1: fmt.Sprintf("k%05da", keys[i]),
			k2: fmt.Sprintf("k%05db", keys[i]),
			g:  i % groups,
			v:  [2]string{valuePool[a], valuePool[b]},
		}
		db.byGroup[c.g] = append(db.byGroup[c.g], i)
		db.comps = append(db.comps, c)
	}
	return db
}

// rFacts returns the two R facts of alternative alt of component c.
func (db *tupleDB) rFacts(i, alt int) [2]rel.Fact {
	c := db.comps[i]
	g := db.groups[c.g]
	return [2]rel.Fact{{c.k1, g, c.v[alt]}, {c.k2, g, c.v[alt]}}
}

// text renders the database as a .pw @wsd block.
func (db *tupleDB) text() string {
	var b strings.Builder
	b.WriteString("@wsd\n  relation: R(3)\n  relation: C(2)\n  component:\n    alt:")
	for j, f := range db.certain {
		if j > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, " C(%s %s)", f[0], f[1])
	}
	b.WriteByte('\n')
	for i := range db.comps {
		b.WriteString("  component:\n")
		for alt := 0; alt < 2; alt++ {
			fs := db.rFacts(i, alt)
			fmt.Fprintf(&b, "    alt: R(%s), R(%s)\n", strings.Join(fs[0], " "), strings.Join(fs[1], " "))
		}
	}
	return b.String()
}

// count is the exact world count: one binary choice per component.
func (db *tupleDB) count() string {
	return new(big.Int).Lsh(big.NewInt(1), uint(len(db.comps))).String()
}

// groupFacts is every R fact of the group's components (both
// alternatives): the possible answers of σ[g = group](R).
func (db *tupleDB) groupFacts(j int) []rel.Fact {
	var out []rel.Fact
	for _, i := range db.byGroup[j] {
		for alt := 0; alt < 2; alt++ {
			fs := db.rFacts(i, alt)
			out = append(out, fs[0], fs[1])
		}
	}
	return out
}

// groupKeys is the keys of the group's components, present in every
// world: the certain (and possible) answers of π[k](σ[g = group](R)).
func (db *tupleDB) groupKeys(j int) []rel.Fact {
	var out []rel.Fact
	for _, i := range db.byGroup[j] {
		out = append(out, rel.Fact{db.comps[i].k1}, rel.Fact{db.comps[i].k2})
	}
	return out
}

// world returns the world picked by choice (one alternative per
// component) as an instance over both relations. A mixed component
// (>= 0) contributes its first fact from the chosen alternative and its
// second from the other one, which makes the instance no world.
func (db *tupleDB) world(choice []int, mixed int) *rel.Instance {
	inst := rel.NewInstance()
	r := inst.EnsureRelation("R", 3)
	c := inst.EnsureRelation("C", 2)
	for i, alt := range choice {
		r.Add(db.rFacts(i, alt)[0])
		if i == mixed {
			alt = 1 - alt
		}
		r.Add(db.rFacts(i, alt)[1])
	}
	for _, f := range db.certain {
		c.Add(f)
	}
	return inst
}

// attrDB is a generated attribute-level decomposition over A(s v): one
// template A(s {v1|v2|v3}) per sensor plus a few certain hub facts. A
// fact probe on it resolves through the template scan, so its cost
// grows with the number of templates.
type attrDB struct {
	sensors []string
	vals    [][3]string
	hubs    []rel.Fact
}

func newAttrDB(rng *rand.Rand, n int) *attrDB {
	db := &attrDB{}
	ids := rng.Perm(n)
	for i := 0; i < n; i++ {
		db.sensors = append(db.sensors, fmt.Sprintf("s%05d", ids[i]))
		p := rng.Perm(len(valuePool))
		db.vals = append(db.vals, [3]string{valuePool[p[0]], valuePool[p[1]], valuePool[p[2]]})
	}
	for j := 0; j < 8; j++ {
		db.hubs = append(db.hubs, rel.Fact{fmt.Sprintf("hub%02d", j), "ok"})
	}
	return db
}

func (db *attrDB) text() string {
	var b strings.Builder
	b.WriteString("@wsd\n  relation: A(2)\n  component:\n    alt:")
	for j, f := range db.hubs {
		if j > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, " A(%s %s)", f[0], f[1])
	}
	b.WriteByte('\n')
	for i, s := range db.sensors {
		v := db.vals[i]
		fmt.Fprintf(&b, "  component:\n    tmpl: A(%s {%s|%s|%s})\n", s, v[0], v[1], v[2])
	}
	return b.String()
}

func (db *attrDB) count() string {
	return new(big.Int).Exp(big.NewInt(3), big.NewInt(int64(len(db.sensors))), nil).String()
}

// instanceText renders facts of one relation as a .pw @relation block.
func instanceText(name string, arity int, facts []rel.Fact) string {
	inst := rel.NewInstance()
	r := inst.EnsureRelation(name, arity)
	for _, f := range facts {
		r.Add(f)
	}
	return printInstance(inst)
}

// printInstance renders an instance the way the server renders answers
// (parse.PrintInstance: canonical fact order), so answers compare as
// strings.
func printInstance(inst *rel.Instance) string {
	var b strings.Builder
	if err := parse.PrintInstance(&b, inst); err != nil {
		panic(err) // strings.Builder writes cannot fail
	}
	return b.String()
}
