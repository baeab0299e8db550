package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"time"

	"pw/internal/decide"
	"pw/internal/obs"
	"pw/internal/parse"
	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/server"
	"pw/internal/table"
	"pw/internal/wsd"
	"pw/internal/wsdalg"
)

// perLayer lists the traced pass's metrics and units; BENCHMARK.json
// carries the same names (a test keeps them in step). A metric of a
// layer the workload never reaches reads 0.
var perLayer = []struct{ name, unit string }{
	{"http.self_us", "us"},
	{"http.echo_us", "us"},
	{"encode.json_us", "us"},
	{"encode.bytes", "bytes"},
	{"server.do_us", "us"},
	{"server.self_us", "us"},
	{"server.do_allocs", "count"},
	{"server.answer_hit_ratio", "ratio"},
	{"server.prepared_hit_ratio", "ratio"},
	{"parse.instance_us", "us"},
	{"parse.query_us", "us"},
	{"parse.update_us", "us"},
	{"parse.db_s", "s"},
	{"wsd.poss_tuple_us", "us"},
	{"wsd.poss_attr_us", "us"},
	{"wsd.cert_us", "us"},
	{"wsd.memb_us", "us"},
	{"wsd.count_us", "us"},
	{"wsd.update_us", "us"},
	{"wsd.update_touched", "count"},
	{"wsd.update_survivors", "count"},
	{"wsd.update_unshares", "count"},
	{"wsdalg.optimize_us", "us"},
	{"wsdalg.plan_cost_ratio", "ratio"},
	{"wsdalg.eval_us", "us"},
	{"wsdalg.eval_allocs", "count"},
	{"wsdalg.scan_us", "us"},
	{"wsdalg.select_us", "us"},
	{"wsdalg.project_us", "us"},
	{"wsdalg.join_us", "us"},
	{"wsdalg.const_us", "us"},
	{"wsdalg.possible_us", "us"},
	{"wsdalg.certain_us", "us"},
	{"wsdalg.assemble_us", "us"},
	{"wsdalg.normalize_us", "us"},
	{"wsdalg.unattributed_us", "us"},
	{"wsdalg.alts_tabulated", "count"},
	{"wsdalg.parts", "count"},
	{"wsdalg.merge_space_max", "count"},
	{"wsd.readout_us", "us"},
	{"encode.print_us", "us"},
	{"decide.memb_us", "us"},
	{"decide.uniq_us", "us"},
	{"decide.cont_us", "us"},
	{"decide.poss_us", "us"},
	{"decide.cert_us", "us"},
	{"decide.valuations", "count"},
	{"decide.shards", "count"},
	{"decide.cancels", "count"},
	{"layers.accounted_frac", "frac"},
	{"machine.ref_ms", "ms"},
}

// means accumulates per-metric sample means.
type means map[string]*[2]float64 // sum, count

func (m means) add(name string, v float64) {
	s := m[name]
	if s == nil {
		s = new([2]float64)
		m[name] = s
	}
	s[0] += v
	s[1]++
}

func (m means) addDur(name string, d time.Duration) { m.add(name, us(d)) }

func (m means) mean(name string) float64 {
	if s := m[name]; s != nil && s[1] > 0 {
		return s[0] / s[1]
	}
	return 0
}

// mirror is the traced pass's own copy of one database: the layer
// calls run against it, never against the server's resident copy, so
// they cannot disturb the server's caches. A write-mix mirror follows
// the writes.
type mirror struct {
	w *wsd.WSD
	d *table.Database
}

type tracedResult struct {
	metrics           map[string]metric
	attempted, failed int
	refSeconds        float64 // the calibration's median over the pass
}

// tracedResponse is a ?trace=1 reply: the answer plus the server's span
// tree for the request.
type tracedResponse struct {
	server.Response
	Error string `json:"error"`
}

// tracedPass replays the workload's request order sequentially for d.
// Even-numbered requests go over HTTP with ?trace=1: the round trip
// minus the server's root span is the HTTP layer's self time, and the
// root span minus its child spans is the server's. Odd-numbered
// requests call Server.Do directly, timed and allocation-counted from
// outside. Every request's layer work is then repeated through each
// layer's public function on the mirror databases. A trivial handler on
// a second listener gives the HTTP floor.
func tracedPass(w *workload, srv *server.Server, url string, d time.Duration, chk *checker) (*tracedResult, error) {
	mirrors := map[string]*mirror{}
	for _, db := range w.dbs {
		src, err := parse.ParseSource(strings.NewReader(db.text))
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", db.name, err)
		}
		mirrors[db.name] = &mirror{w: src.WSD, d: src.DB}
	}
	echo, err := serve(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		rw.Header().Set("Content-Type", "application/json")
		rw.Write([]byte("{\"op\":\"echo\"}\n"))
	}))
	if err != nil {
		return nil, err
	}
	defer echo.close()
	c := newClient(1)
	defer c.CloseIdleConnections()

	order := interleave(w)
	m := means{}
	var rtSum, accountedSum float64
	var httpN int
	res := &tracedResult{metrics: map[string]metric{}}
	cal := newCalibration()
	cal.rounds(3)
	st0 := srv.Stats()
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		r := order[i%len(order)]
		res.attempted++
		var cached bool
		// Collect the mirror calls' garbage first, so the server's
		// figures do not pay for the benchmark's own allocations.
		runtime.GC()
		if i%2 == 0 {
			t0 := time.Now()
			status, raw, err := post(c, url+"/query?trace=1", r.body)
			rt := time.Since(t0)
			var tr tracedResponse
			if err == nil {
				err = json.Unmarshal(raw, &tr)
			}
			wr := &wireResponse{Version: tr.Version, Answer: tr.Answer, Count: tr.Count, Facts: tr.Facts, Error: tr.Error}
			if err != nil || !chk.check(r, status, wr) || tr.Trace == nil {
				res.failed++
				continue
			}
			cached = tr.Cached
			root := float64(tr.Trace.DurUS)
			var children float64
			for _, ch := range tr.Trace.Children {
				children += float64(ch.DurUS)
			}
			m.add("http.self_us", us(rt)-root)
			m.add("server.self_us", root-children)
			// The reply as an untraced request would carry it.
			tr.Trace, tr.Cost, tr.RequestID = nil, nil, ""
			t1 := time.Now()
			body, _ := json.Marshal(&tr.Response)
			m.addDur("encode.json_us", time.Since(t1))
			m.add("encode.bytes", float64(len(body)))
			lib := layerCalls(r, mirrors, m, !cached, srv.Workers())
			rtSum += us(rt)
			accountedSum += us(rt) - root + (root - children) + lib
			httpN++
		} else {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			resp, err := srv.Do(&r.req)
			dt := time.Since(t0)
			runtime.ReadMemStats(&m1)
			if !chk.checkDo(r, resp, err) {
				res.failed++
				continue
			}
			cached = resp.Cached
			m.addDur("server.do_us", dt)
			m.add("server.do_allocs", float64(m1.Mallocs-m0.Mallocs))
			layerCalls(r, mirrors, m, !cached, srv.Workers())
		}
		if i%8 == 0 {
			t0 := time.Now()
			if _, _, err := post(c, echo.url+"/echo", r.body); err == nil {
				m.addDur("http.echo_us", time.Since(t0))
			}
		}
	}
	st1 := srv.Stats()
	cal.rounds(3)
	res.refSeconds = cal.seconds()
	for _, l := range perLayer {
		if _, ok := m[l.name]; ok {
			res.metrics[l.name] = metric{m.mean(l.name), l.unit}
		}
	}
	ratio := func(hits, misses int64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	res.metrics["server.answer_hit_ratio"] = metric{ratio(st1.AnswerHits-st0.AnswerHits, st1.AnswerMisses-st0.AnswerMisses), "ratio"}
	res.metrics["server.prepared_hit_ratio"] = metric{ratio(st1.PreparedHits-st0.PreparedHits, st1.PreparedMisses-st0.PreparedMisses), "ratio"}
	if httpN > 0 && rtSum > 0 {
		res.metrics["layers.accounted_frac"] = metric{accountedSum / rtSum, "frac"}
	}
	return res, nil
}

// interleave is the traced pass's request order: a shared stream as
// is; per-client streams round-robin, which keeps each client's own
// order (so write-mix writes stay in cycle order).
func interleave(w *workload) []*request {
	if w.shared {
		return w.streams[0]
	}
	var out []*request
	for i := 0; ; i++ {
		more := false
		for _, s := range w.streams {
			if i < len(s) {
				out = append(out, s[i])
				more = true
			}
		}
		if !more {
			return out
		}
	}
}

// layerCalls repeats r's work through each layer's public functions on
// the mirrors, recording each call's time and counters. It returns the
// microseconds of the calls the server itself made for r: evaluation
// only when the server evaluated (miss), never the parse of a prepared
// query (the prepared-query cache holds it), never a memoized count.
func layerCalls(r *request, mirrors map[string]*mirror, m means, miss bool, workers int) float64 {
	mr := mirrors[r.req.DB]
	timed := func(name string, f func()) float64 {
		t0 := time.Now()
		f()
		d := us(time.Since(t0))
		m.add(name, d)
		return d
	}
	parseInst := func(text string) (*rel.Instance, float64) {
		var inst *rel.Instance
		d := timed("parse.instance_us", func() { inst, _ = parse.ParseInstance(strings.NewReader(text)) })
		return inst, d
	}
	var onPath float64
	switch r.kind {
	case "poss_tuple", "poss_attr":
		inst, d := parseInst(r.req.Facts)
		onPath = d + timed("wsd."+r.kind+"_us", func() { mr.w.Possible(inst) })
	case "cert":
		inst, d := parseInst(r.req.Facts)
		onPath = d + timed("wsd.cert_us", func() { mr.w.Certain(inst) })
	case "memb":
		inst, d := parseInst(r.req.Inst)
		onPath = d + timed("wsd.memb_us", func() { mr.w.Member(inst) })
	case "count":
		timed("wsd.count_us", func() { _ = mr.w.Count().String() })
	case "answers":
		onPath = evalLayers(r, mr.w, m, miss)
	case "write":
		var u *wsd.Update
		onPath = timed("parse.update_us", func() { u, _ = parse.ParseUpdate(strings.NewReader(r.req.Update)) })
		c := obs.NewCost()
		onPath += timed("wsd.update_us", func() {
			next, err := mr.w.ApplyUpdateObserved(u, c)
			if err == nil {
				mr.w = next
			}
		})
		m.add("wsd.update_touched", float64(c.Get(obs.UpdateTouchedComponents)))
		m.add("wsd.update_survivors", float64(c.Get(obs.UpdateSurvivorComponents)))
		m.add("wsd.update_unshares", float64(c.Get(obs.UpdateCOWUnshares)))
	default: // decide.<problem> on a table database
		c := obs.NewCost()
		o := decide.Options{Workers: workers, Cost: c}
		id := query.Identity{}
		text := r.req.Inst
		if text == "" {
			text = r.req.Facts
		}
		var inst *rel.Instance
		if r.req.Op != "cont" {
			inst, onPath = parseInst(text)
		}
		d := timed(r.kind+"_us", func() {
			switch r.req.Op {
			case "memb":
				o.Membership(inst, id, mr.d)
			case "uniq":
				o.Uniqueness(id, mr.d, inst)
			case "poss":
				o.Possible(inst, id, mr.d)
			case "cert":
				o.Certain(inst, id, mr.d)
			case "cont":
				o.Containment(id, mr.d, id, mirrors[r.req.DB2].d)
			}
		})
		if miss || r.req.Op != "cont" {
			onPath += d
		}
		m.add("decide.valuations", float64(c.Get(obs.DecideValuations)))
		m.add("decide.shards", float64(c.Get(obs.DecideShards)))
		m.add("decide.cancels", float64(c.Get(obs.DecideCancels)))
	}
	return onPath
}

// evalLayers is the server's answer path through the library: parse
// the query, plan it, evaluate the chosen form with an EXPLAIN plan,
// read the answers off the result and print them. Plan node times are
// inclusive, so each operator is charged its own time minus its
// children's. It returns the on-path microseconds.
func evalLayers(r *request, w *wsd.WSD, m means, miss bool) float64 {
	t0 := time.Now()
	src, err := parse.ParseSource(strings.NewReader(r.req.Query))
	m.addDur("parse.query_us", time.Since(t0))
	if err != nil || src.Query == nil {
		return 0
	}
	q := *src.Query
	t1 := time.Now()
	opt, info := wsdalg.Optimize(w, q)
	optUS := us(time.Since(t1))
	m.add("wsdalg.optimize_us", optUS)
	if info != nil && info.NaiveCost > 0 {
		m.add("wsdalg.plan_cost_ratio", float64(info.ChosenCost)/float64(info.NaiveCost))
	}
	c := obs.NewCost()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t2 := time.Now()
	out, plan, err := wsdalg.EvalPlanned(w, opt, c)
	evalUS := us(time.Since(t2))
	runtime.ReadMemStats(&m1)
	if err != nil {
		return 0
	}
	m.add("wsdalg.eval_us", evalUS)
	m.add("wsdalg.eval_allocs", float64(m1.Mallocs-m0.Mallocs))
	perOp := map[string]float64{}
	var nodes float64
	var walk func(n *wsdalg.PlanNode)
	walk = func(n *wsdalg.PlanNode) {
		self := float64(n.Act.DurUS)
		for _, ch := range n.Children {
			self -= float64(ch.Act.DurUS)
			walk(ch)
		}
		if n.Op != "out" {
			perOp[n.Op] += max(self, 0)
			nodes += max(self, 0)
		}
	}
	for _, o := range plan.Outs {
		for _, ch := range o.Children {
			walk(ch)
		}
	}
	for op, v := range perOp {
		m.add("wsdalg."+op+"_us", v)
	}
	var asm, norm float64
	if plan.Assemble != nil {
		asm = float64(plan.Assemble.Act.DurUS)
	}
	if plan.Normalize != nil {
		norm = float64(plan.Normalize.DurUS)
	}
	m.add("wsdalg.assemble_us", asm)
	m.add("wsdalg.normalize_us", norm)
	m.add("wsdalg.unattributed_us", max(float64(plan.DurUS)-nodes-asm-norm, 0))
	m.add("wsdalg.alts_tabulated", float64(c.Get(obs.EvalAltsTabulated)))
	m.add("wsdalg.parts", float64(c.Get(obs.EvalParts)))
	m.add("wsdalg.merge_space_max", float64(c.Get(obs.EvalMergeSpaceMax)))
	var inst *rel.Instance
	t3 := time.Now()
	if r.req.Op == "poss-ans" {
		inst, err = wsdalg.PossibleAnswers(out, query.Identity{})
	} else {
		inst, err = wsdalg.CertainAnswers(out, query.Identity{})
	}
	readUS := us(time.Since(t3))
	m.add("wsd.readout_us", readUS)
	if err != nil {
		return 0
	}
	t4 := time.Now()
	_ = printInstance(inst)
	printUS := us(time.Since(t4))
	m.add("encode.print_us", printUS)
	if !miss {
		// An answer-cache hit re-prints the cached answer, nothing more.
		return printUS
	}
	return optUS + evalUS + readUS + printUS
}
