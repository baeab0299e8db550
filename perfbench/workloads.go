package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"pw/internal/rel"
	"pw/internal/server"
)

// Sizes. Each is chosen against a cost measured on the unmodified
// engine; README.md records the reasoning and the scaling behind it.
const (
	probeTupleComps  = 128 // probe-mix tuple-level db: probes are hash lookups
	probeTupleGroups = 8
	probeAttrTmpls   = 4000 // probe-mix attribute-level db: the template scan costs about one loopback round trip
	missComps        = 1200 // query-miss db: every request evaluates
	missGroups       = 96   // 4 shapes × 96 groups = 384 fingerprints: > 256 answer cache, < 512 prepared cache
	writeComps       = 2000 // write-mix db: a write costs ~1.6 ms, a re-evaluated read ~20 ms
	writeGroups      = 64
	streamLen        = 8192 // requests per generated shared stream (clients cycle it)
	setupRepeats     = 7    // set-ups per run; setup_s is their median
	runSlices        = 18   // measured slices per run; a set-up follows every third
)

// request is one generated request with its expected answer.
type request struct {
	req  server.Request
	body []byte // req as the POST /query JSON body
	// kind names the layer work the request does (see layerCalls).
	kind string
	// want is the expected rendering of the answer (see render). A
	// write-mix read has one entry per state of the write cycle; the
	// response's version selects the state it was answered at.
	want  []string
	write bool
}

// dbSpec is one database the workload loads, as .pw text.
type dbSpec struct {
	name string
	text string
}

// workload is a generated database set plus request streams.
type workload struct {
	name string
	dbs  []dbSpec
	// streams: with shared set, every client pulls the next request of
	// streams[0], so the global request order is the stream order;
	// otherwise client c replays streams[c] in order (write-mix keeps
	// all writes on one client so their order is fixed).
	streams [][]*request
	shared  bool
	// warmup is run through Server.Do inside every timed set-up.
	warmup []*request
	// prime runs the whole shared stream once over HTTP before
	// measuring, so every measured query-miss request finds its parsed
	// query in the prepared-query cache.
	prime bool
}

var workloadNames = []string{"probe-mix", "query-miss", "write-mix", "ctable-decide"}

func buildWorkload(name string, seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	var w *workload
	switch name {
	case "probe-mix":
		w = probeMix(rng)
	case "query-miss":
		w = queryMiss(rng)
	case "write-mix":
		w = writeMix(rng)
	case "ctable-decide":
		var err error
		if w, err = ctableDecide(rng); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	w.name = name
	for _, s := range w.streams {
		for _, r := range s {
			if r.body == nil {
				b, err := json.Marshal(&r.req)
				if err != nil {
					return nil, err
				}
				r.body = b
			}
		}
	}
	return w, nil
}

func newReq(kind, db, op string, want ...string) *request {
	return &request{kind: kind, req: server.Request{DB: db, Op: op}, want: want}
}

// pick draws an index from weights.
func pick(rng *rand.Rand, weights []int) int {
	total := 0
	for _, w := range weights {
		total += w
	}
	x := rng.Intn(total)
	for i, w := range weights {
		if x < w {
			return i
		}
		x -= w
	}
	return len(weights) - 1
}

// ---- query shapes over the tuple-level database ----

// shapeCount is the number of group-parameterized query shapes.
const shapeCount = 4

// shapeQuery renders shape s over group j as @query text.
func (db *tupleDB) shapeQuery(s, j int) string {
	g := db.groups[j]
	var e string
	switch s {
	case 0:
		e = fmt.Sprintf("select[#g = %s](R(k g v))", g)
	case 1:
		e = fmt.Sprintf("project[k](select[#g = %s](R(k g v)))", g)
	case 2:
		e = fmt.Sprintf("join(select[#g = %s](R(k g v)), values[v w](%s))", g, joinValues)
	case 3:
		e = fmt.Sprintf("certain(possible(select[#g = %s](R(k g v))))", g)
	}
	return fmt.Sprintf("@query q%d\n  out: A = %s\n", s, e)
}

// joinValues maps half of valuePool: the join keeps only R facts whose
// value is mapped and extends them with the mapped w.
const joinValues = "lo x1; hi x2; mid x3"

var joinMap = map[string]string{"lo": "x1", "hi": "x2", "mid": "x3"}

// shapeAnswer is the generator's truth for shape s over group j: the
// possible or certain answers, rendered like the server renders them.
// extra lists facts the write-mix cycle has inserted into R.
func (db *tupleDB) shapeAnswer(s, j int, certain bool, extra []rel.Fact) string {
	facts := append(db.groupFacts(j), extra...)
	switch s {
	case 0: // σ: each fact lives in one alternative only
		if certain {
			return instanceText("A", 3, extra)
		}
		return instanceText("A", 3, facts)
	case 1: // π[k]: both alternatives carry the keys
		keys := db.groupKeys(j)
		for _, f := range extra {
			keys = append(keys, rel.Fact{f[0]})
		}
		return instanceText("A", 1, keys)
	case 2: // ⋈ values: natural join on v, columns k g v w
		var out []rel.Fact
		src := facts
		if certain {
			src = extra
		}
		for _, f := range src {
			if w, ok := joinMap[f[2]]; ok {
				out = append(out, rel.Fact{f[0], f[1], f[2], w})
			}
		}
		return instanceText("A", 4, out)
	default: // certain(possible(σ)): the possible answers, made certain
		return instanceText("A", 3, facts)
	}
}

// answerReq is a poss-ans/cert-ans request for shape s over group j.
func (db *tupleDB) answerReq(dbName string, s, j int, certain bool) *request {
	op := "poss-ans"
	if certain {
		op = "cert-ans"
	}
	r := newReq("answers", dbName, op, db.shapeAnswer(s, j, certain, nil))
	r.req.Query = db.shapeQuery(s, j)
	return r
}

// ---- probe-mix ----

// probeMix serves decomposition-native fact probes on two databases
// plus a small, cache-resident pool of answer queries.
func probeMix(rng *rand.Rand) *workload {
	tup := newTupleDB(rng, probeTupleComps, probeTupleGroups)
	attr := newAttrDB(rng, probeAttrTmpls)
	tupCount, attrCount := tup.count(), attr.count()

	// 16 answer requests: shapes × 2 groups × {poss, cert}. They fit the
	// answer cache, so after their first evaluation they are hits.
	var answers []*request
	for s := 0; s < shapeCount; s++ {
		for _, j := range []int{0, 1 + rng.Intn(probeTupleGroups-1)} {
			answers = append(answers, tup.answerReq("tup", s, j, false), tup.answerReq("tup", s, j, true))
		}
	}

	weights := []int{14, 8, 4, 4, 20, 42, 4, 4}
	stream := make([]*request, 0, streamLen)
	for len(stream) < streamLen {
		var r *request
		switch pick(rng, weights) {
		case 0: // poss on the tuple-level db: 1-3 facts
			r = tupPoss(rng, tup, "tup", -1)
		case 1: // cert: a certain C fact, or an R fact (never certain)
			i := rng.Intn(len(tup.comps))
			if rng.Intn(2) == 0 {
				f := tup.certain[rng.Intn(len(tup.certain))]
				r = newReq("cert", "tup", "cert", "true")
				r.req.Facts = instanceText("C", 2, []rel.Fact{f})
			} else {
				r = newReq("cert", "tup", "cert", "false")
				r.req.Facts = instanceText("R", 3, []rel.Fact{tup.rFacts(i, rng.Intn(2))[0]})
			}
		case 2: // memb: a sampled world, or one mixing a component's two alternatives
			choice := make([]int, len(tup.comps))
			for i := range choice {
				choice[i] = rng.Intn(2)
			}
			mixed, want := -1, "true"
			if rng.Intn(2) == 0 {
				mixed, want = rng.Intn(len(tup.comps)), "false"
			}
			r = newReq("memb", "tup", "memb", want)
			r.req.Inst = printInstance(tup.world(choice, mixed))
		case 3: // count on either db (memoized per version by the server)
			if rng.Intn(2) == 0 {
				r = newReq("count", "tup", "count", tupCount)
			} else {
				r = newReq("count", "attr", "count", attrCount)
			}
		case 4: // a cache-resident answer query
			r = answers[rng.Intn(len(answers))]
		case 5: // poss on the attribute-level db: the template scan
			i := rng.Intn(len(attr.sensors))
			v := attr.vals[i][rng.Intn(3)]
			want := "true"
			if rng.Intn(2) == 0 {
				v = missingValue(attr.vals[i])
				want = "false"
			}
			r = newReq("poss_attr", "attr", "poss", want)
			r.req.Facts = instanceText("A", 2, []rel.Fact{{attr.sensors[i], v}})
		case 6: // cert on the attribute-level db: hub facts are certain
			if rng.Intn(2) == 0 {
				r = newReq("cert", "attr", "cert", "true")
				r.req.Facts = instanceText("A", 2, []rel.Fact{attr.hubs[rng.Intn(len(attr.hubs))]})
			} else {
				i := rng.Intn(len(attr.sensors))
				r = newReq("cert", "attr", "cert", "false")
				r.req.Facts = instanceText("A", 2, []rel.Fact{{attr.sensors[i], attr.vals[i][0]}})
			}
		case 7: // poss on a hub fact of the attribute-level db: a fact-table hit
			r = newReq("poss_attr", "attr", "poss", "true")
			r.req.Facts = instanceText("A", 2, []rel.Fact{attr.hubs[rng.Intn(len(attr.hubs))]})
		}
		stream = append(stream, r)
	}
	// Warm-up: the first request of every kind.
	var warm []*request
	seen := map[string]bool{}
	for _, r := range stream {
		if !seen[r.kind] {
			seen[r.kind] = true
			warm = append(warm, r)
		}
	}
	return &workload{
		dbs:     []dbSpec{{"tup", tup.text()}, {"attr", attr.text()}},
		streams: [][]*request{stream},
		shared:  true,
		warmup:  warm,
	}
}

// missingValue is a valuePool value outside the template's slot list.
func missingValue(vals [3]string) string {
	for _, v := range valuePool {
		if v != vals[0] && v != vals[1] && v != vals[2] {
			return v
		}
	}
	panic("valuePool too small")
}

// tupPoss builds a poss probe of 1-3 facts on a tuple-level db. A
// positive probe draws facts of one alternative per touched component
// (plus maybe a certain C fact other than avoidC's); a negative one
// pairs facts of both alternatives of one component, or names a fact
// outside the support.
func tupPoss(rng *rand.Rand, tup *tupleDB, dbName string, avoidC int) *request {
	var rf []rel.Fact
	var cf []rel.Fact
	want := "true"
	switch rng.Intn(4) {
	case 0, 1:
		for n := 1 + rng.Intn(2); n > 0; n-- {
			i := rng.Intn(len(tup.comps))
			rf = append(rf, tup.rFacts(i, rng.Intn(2))[rng.Intn(2)])
		}
		if j := rng.Intn(len(tup.certain)); j != avoidC && rng.Intn(2) == 0 {
			cf = append(cf, tup.certain[j])
		}
		// Two draws from one component must come from one alternative.
		if len(rf) == 2 && rf[0][0][:len(rf[0][0])-1] == rf[1][0][:len(rf[1][0])-1] && rf[0][2] != rf[1][2] {
			rf = rf[:1]
		}
	case 2:
		i := rng.Intn(len(tup.comps))
		rf = append(rf, tup.rFacts(i, 0)[0], tup.rFacts(i, 1)[1])
		want = "false"
	default:
		i := rng.Intn(len(tup.comps))
		f := tup.rFacts(i, 0)[0]
		rf = append(rf, rel.Fact{f[0], f[1], "none"})
		want = "false"
	}
	inst := rel.NewInstance()
	r := inst.EnsureRelation("R", 3)
	for _, f := range rf {
		r.Add(f)
	}
	if len(cf) > 0 {
		c := inst.EnsureRelation("C", 2)
		for _, f := range cf {
			c.Add(f)
		}
	}
	q := newReq("poss_tuple", dbName, "poss", want)
	q.req.Facts = printInstance(inst)
	return q
}

// ---- query-miss ----

// queryMiss cycles a pool of distinct answer queries that is larger
// than the answer cache and smaller than the prepared-query cache:
// every measured request is a prepared hit and an answer miss.
func queryMiss(rng *rand.Rand) *workload {
	db := newTupleDB(rng, missComps, missGroups)
	var pool []*request
	for s := 0; s < shapeCount; s++ {
		for j := 0; j < missGroups; j++ {
			// One op per fingerprint: poss-ans and cert-ans of one query
			// share an answer-cache line.
			pool = append(pool, db.answerReq("big", s, j, (s+j)%2 == 1))
		}
	}
	stream := append([]*request(nil), pool...)
	rng.Shuffle(len(stream), func(a, b int) { stream[a], stream[b] = stream[b], stream[a] })
	// Warm-up: the first two groups of every shape.
	var warm []*request
	for s := 0; s < shapeCount; s++ {
		warm = append(warm, pool[s*missGroups], pool[s*missGroups+1])
	}
	return &workload{
		dbs:     []dbSpec{{"big", db.text()}},
		streams: [][]*request{stream},
		shared:  true,
		warmup:  warm,
		prime:   true,
	}
}

// ---- write-mix ----

// writeCycle is the write program cycle: the database returns to its
// initial state after every four writes, so it keeps its shape for
// the whole run. State k is the state after k writes (mod 4):
//
//	0: initial            1: R(wk g on) inserted
//	2: inserted, C off    3: C off
const writeCycle = 4

// writeMix interleaves @update writes with reads whose answers depend
// on the write cycle's state. Client 0 writes once every four requests;
// client 1 only reads. Every write bumps the version and purges the
// answer cache, so answer reads re-evaluate after each write.
func writeMix(rng *rand.Rand) *workload {
	db := newTupleDB(rng, writeComps, writeGroups)
	count := db.count()
	gw := rng.Intn(writeGroups)
	cg := rng.Intn(writeGroups)
	wk := fmt.Sprintf("w%05d", rng.Intn(100000))
	ins := rel.Fact{wk, db.groups[gw], "on"}
	ctag := db.certain[cg]
	coff := rel.Fact{ctag[0], "off"}
	inserted := func(st int) bool { return st == 1 || st == 2 }
	off := func(st int) bool { return st == 2 || st == 3 }

	writes := []string{
		fmt.Sprintf("@update\n  insert: R(%s %s on)\n", wk, db.groups[gw]),
		fmt.Sprintf("@update\n  update: C(%s *) set 2 = off\n", ctag[0]),
		fmt.Sprintf("@update\n  delete: R(%s * *)\n", wk),
		fmt.Sprintf("@update\n  update: C(%s *) set 2 = %s\n", ctag[0], ctag[1]),
	}

	// byState builds a state-dependent expectation.
	byState := func(f func(st int) string) []string {
		out := make([]string, writeCycle)
		for st := range out {
			out[st] = f(st)
		}
		return out
	}
	extra := func(st int) []rel.Fact {
		if inserted(st) {
			return []rel.Fact{ins}
		}
		return nil
	}
	boolStr := strconv.FormatBool
	reads := []func() *request{
		func() *request {
			r := newReq("answers", "wm", "poss-ans", byState(func(st int) string { return db.shapeAnswer(0, gw, false, extra(st)) })...)
			r.req.Query = db.shapeQuery(0, gw)
			return r
		},
		func() *request {
			r := newReq("answers", "wm", "cert-ans", byState(func(st int) string { return db.shapeAnswer(0, gw, true, extra(st)) })...)
			r.req.Query = db.shapeQuery(0, gw)
			return r
		},
		func() *request {
			r := newReq("answers", "wm", "cert-ans", byState(func(st int) string { return db.shapeAnswer(1, gw, true, extra(st)) })...)
			r.req.Query = db.shapeQuery(1, gw)
			return r
		},
		func() *request {
			r := newReq("answers", "wm", "poss-ans", byState(func(st int) string {
				if off(st) {
					return instanceText("A", 2, []rel.Fact{coff})
				}
				return instanceText("A", 2, []rel.Fact{ctag})
			})...)
			r.req.Query = fmt.Sprintf("@query c\n  out: A = select[#g = %s](C(g t))\n", ctag[0])
			return r
		},
		func() *request {
			r := newReq("poss_tuple", "wm", "poss", byState(func(st int) string { return boolStr(inserted(st)) })...)
			r.req.Facts = instanceText("R", 3, []rel.Fact{ins})
			return r
		},
		func() *request {
			r := newReq("cert", "wm", "cert", byState(func(st int) string { return boolStr(inserted(st)) })...)
			r.req.Facts = instanceText("R", 3, []rel.Fact{ins})
			return r
		},
		func() *request {
			r := newReq("cert", "wm", "cert", byState(func(st int) string { return boolStr(off(st)) })...)
			r.req.Facts = instanceText("C", 2, []rel.Fact{coff})
			return r
		},
		func() *request {
			r := newReq("cert", "wm", "cert", byState(func(st int) string { return boolStr(!off(st)) })...)
			r.req.Facts = instanceText("C", 2, []rel.Fact{ctag})
			return r
		},
		func() *request { return tupPoss(rng, db, "wm", cg) },
		func() *request { return newReq("count", "wm", "count", count) },
	}
	readWeights := []int{10, 10, 10, 10, 12, 12, 12, 12, 8, 4}
	read := func() *request { return reads[pick(rng, readWeights)]() }

	const blocks = 512 // writes per stream pass; a multiple of writeCycle
	var writer, reader []*request
	for b := 0; b < blocks; b++ {
		wr := newReq("write", "wm", "write", count)
		wr.req.Update = writes[b%writeCycle]
		wr.write = true
		writer = append(writer, wr, read(), read(), read())
	}
	for len(reader) < streamLen {
		reader = append(reader, read())
	}
	// Warm-up: one of each read kind, answered at the initial state.
	var warm []*request
	for _, f := range reads {
		warm = append(warm, f())
	}
	return &workload{
		dbs:     []dbSpec{{"wm", db.text()}},
		streams: [][]*request{writer, reader},
		warmup:  warm,
	}
}
