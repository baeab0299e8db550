package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"strings"

	"pw/internal/decide"
	"pw/internal/gen"
	"pw/internal/parse"
	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/table"
)

// ctable-decide sizes: the table kinds of the paper's §3–§5, each sized
// so one decision takes about 0.1 to 1 ms. Containment is
// asked only where the superset side is inequality- and condition-free
// (Theorem 4.1's freeze cell): the general Π₂ᵖ cell is exponential in
// the subset's variables and would make single requests take seconds.
const (
	ctableDBs      = 15 // databases t00..t14, kinds cycling through ctableKinds
	ctableVariants = 6  // member instances drawn per database
	// ctableShapeSeed fixes the tables' structure (where the variables,
	// inequalities and local conditions sit) and the request multiset.
	// The run's seed renames every constant and orders the stream: a
	// random table's decision cost depends on its structure, so drawing
	// the structure from the run's seed would make runs with different
	// seeds do different amounts of work.
	ctableShapeSeed = 1987
)

// genConst matches the constants internal/gen writes (c0, c1, …, and
// the junk constants of perturbed instances).
var genConst = regexp.MustCompile(`\b(c[0-9]+|junk[0-9]+)\b`)

var ctableKinds = []string{"codd", "etable", "itable", "ctable", "ground"}

// ctableTable generates the one table T(3) of database k.
func ctableTable(seed int64, kind string) *table.Table {
	switch kind {
	case "codd":
		return gen.CoddTable(seed, "T", 150, 3, 40, 0.3)
	case "etable":
		return gen.ETable(seed, "T", 40, 3, 12, 8, 0.3)
	case "itable":
		return gen.ITable(seed, "T", 14, 3, 12, 3, 0.25)
	case "ctable":
		return gen.CTable(seed, "T", 16, 3, 8, 6, 0.3, 0.3)
	default: // ground: a complete table, rep(d) is one world
		return gen.CoddTable(seed, "T", 150, 3, 40, 0)
	}
}

// ctableDecide generates @table databases and MEMB/UNIQ/POSS/CERT/CONT
// requests against them. Expected answers come from the decision
// procedures run once here, sequentially (Workers: 1) — the server runs
// them with its full worker budget, and the determinism contract says
// the answers agree.
func ctableDecide(rng *rand.Rand) (*workload, error) {
	shape := rand.New(rand.NewSource(ctableShapeSeed))
	// One common prefix keeps the constants' relative order, which the
	// valuation enumerators' visit order follows.
	tag := fmt.Sprintf("q%04d", rng.Intn(10000))
	rename := func(text string) string { return genConst.ReplaceAllString(text, tag+"$1") }
	o := decide.Options{Workers: 1}
	id := query.Identity{}
	type tdb struct {
		name, kind string
		orig, d    *table.Database
	}
	var dbs []tdb
	var specs []dbSpec
	for k := 0; k < ctableDBs; k++ {
		kind := ctableKinds[k%len(ctableKinds)]
		orig := table.DB(ctableTable(shape.Int63(), kind))
		var b strings.Builder
		if err := parse.PrintDatabase(&b, orig); err != nil {
			return nil, err
		}
		text := rename(b.String())
		// Parse the renamed text: the truth is computed on exactly what
		// the server loads.
		d, err := parse.ParseDatabase(strings.NewReader(text))
		if err != nil {
			return nil, fmt.Errorf("ctable %s: %w", kind, err)
		}
		name := fmt.Sprintf("t%02d", k)
		dbs = append(dbs, tdb{name, kind, orig, d})
		specs = append(specs, dbSpec{name, text})
	}
	// renamed carries an instance drawn on the original table over to
	// the renamed one.
	renamed := func(inst *rel.Instance) (*rel.Instance, error) {
		return parse.ParseInstance(strings.NewReader(rename(printInstance(inst))))
	}

	pool := make([][]*request, 5) // per problem: memb, uniq, poss, cert, cont
	add := func(p int, kind string, r *request, ok bool, err error) error {
		if err != nil {
			return fmt.Errorf("%s truth on %s: %w", kind, r.req.DB, err)
		}
		r.want = []string{strconv.FormatBool(ok)}
		pool[p] = append(pool[p], r)
		return nil
	}
	for _, db := range dbs {
		for v := 0; v < ctableVariants; v++ {
			om, ok := gen.MemberInstance(shape.Int63(), db.orig)
			if !ok {
				continue
			}
			opert, _ := gen.PerturbedInstance(shape.Int63(), om)
			m, err := renamed(om)
			if err != nil {
				return nil, err
			}
			for _, oinst := range []*rel.Instance{om, opert} {
				if oinst == nil {
					continue
				}
				inst, err := renamed(oinst)
				if err != nil {
					return nil, err
				}
				r := newReq("decide.memb", db.name, "memb")
				r.req.Inst = printInstance(inst)
				ok, err := o.Membership(inst, id, db.d)
				if err := add(0, "memb", r, ok, err); err != nil {
					return nil, err
				}
				part := firstFacts(inst, 1+inst.Size()/2)
				r = newReq("decide.poss", db.name, "poss")
				r.req.Facts = printInstance(part)
				ok, err = o.Possible(part, id, db.d)
				if err := add(2, "poss", r, ok, err); err != nil {
					return nil, err
				}
			}
			r := newReq("decide.uniq", db.name, "uniq")
			r.req.Inst = printInstance(m)
			ok, err = o.Uniqueness(id, db.d, m)
			if err := add(1, "uniq", r, ok, err); err != nil {
				return nil, err
			}
			few := firstFacts(m, 2)
			r = newReq("decide.cert", db.name, "cert")
			r.req.Facts = printInstance(few)
			ok, err = o.Certain(few, id, db.d)
			if err := add(3, "cert", r, ok, err); err != nil {
				return nil, err
			}
		}
	}
	for _, sub := range dbs {
		for _, sup := range dbs {
			if sub.name == sup.name || sub.kind == "ctable" || sup.kind == "itable" || sup.kind == "ctable" {
				continue
			}
			r := newReq("decide.cont", sub.name, "cont")
			r.req.DB2 = sup.name
			ok, err := o.Containment(id, sub.d, id, sup.d)
			if err := add(4, "cont", r, ok, err); err != nil {
				return nil, err
			}
		}
	}

	// The request multiset is drawn from the shape seed; the run's seed
	// only orders it.
	weights := []int{30, 10, 20, 20, 20}
	stream := make([]*request, 0, streamLen)
	for len(stream) < streamLen {
		p := pool[pick(shape, weights)]
		stream = append(stream, p[shape.Intn(len(p))])
	}
	rng.Shuffle(len(stream), func(a, b int) { stream[a], stream[b] = stream[b], stream[a] })
	// Warm-up: every distinct request once.
	var warm []*request
	for _, p := range pool {
		warm = append(warm, p...)
	}
	return &workload{
		dbs:     specs,
		streams: [][]*request{stream},
		shared:  true,
		warmup:  warm,
	}, nil
}

// firstFacts is the instance restricted to its first n facts (canonical
// order), relation by relation.
func firstFacts(inst *rel.Instance, n int) *rel.Instance {
	out := rel.NewInstance()
	for _, r := range inst.Relations() {
		nr := out.EnsureRelation(r.Name, r.Arity)
		for _, f := range r.Facts() {
			if n == 0 {
				break
			}
			nr.Add(f)
			n--
		}
	}
	return out
}
