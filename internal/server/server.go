// Package server is the long-running query engine behind cmd/pwd: it
// loads .pw databases once, keeps normalized world-set decompositions
// (and their interned fact tables) resident in memory, and answers the
// pwq command set — memb/uniq/poss/cert/count/sample/poss-ans/cert-ans/
// cont — to many concurrent clients over HTTP/JSON.
//
// The performance core is three layers, applied in order on every
// query-shaped request:
//
//  1. prepared queries — the @query text is parsed and compiled once
//     per distinct text (an LRU keyed by the raw text) and the compiled
//     plan's canonical printed form is the query fingerprint, so two
//     spellings of the same algebra share everything downstream;
//  2. an answer cache — the possible and certain answer rows read off
//     one evaluation (and the answer texts printed from them) are
//     cached in an LRU keyed by (effective version, query fingerprint),
//     so a repeated cert-ans or poss-ans skips evaluation entirely. A
//     query's effective version is the last version that wrote a
//     relation it scans, so a write to other relations leaves its
//     answers (and its kept plan decision) in place;
//  3. request batching + admission control — concurrent identical
//     uncached queries coalesce into one evaluation (a singleflight
//     group keyed like the cache), and all heavy evaluations pass
//     through a semaphore sized by Config.Workers, so a burst of
//     expensive containment queries queues behind the pool while cheap
//     decomposition-native fact probes (MEMB/POSS/CERT/count on a
//     loaded WSD) bypass it and stay at microsecond latency.
//
// Lock discipline: the Server's own RWMutex guards only the name →
// database map; each database carries its own RWMutex guarding the
// {backend, version} pair plus a writeMu serializing mutations. Request
// handling takes the database read lock just long enough to snapshot
// that pair, then evaluates outside any lock — the loaded backends are
// immutable after normalization, and the write path preserves that:
// an @update is applied copy-on-write against the snapshot (readers
// keep serving the old version throughout) and the result is installed
// as a new version in one short critical section, together with the
// per-relation write stamps of that version. Every cache and
// singleflight key embeds the version (answer keys: the effective
// version of the relations the query scans), so stale answers are never
// served after a reload or write; entries whose key can no longer be
// requested — for answers, those whose query reads a relation in the
// write's footprint — are purged from the answer cache at install time.
package server

import (
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pw/internal/algebra"
	"pw/internal/decide"
	"pw/internal/obs"
	"pw/internal/parse"
	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/rep"
	"pw/internal/table"
	"pw/internal/wsd"
	"pw/internal/wsdalg"
)

// Config tunes a Server. The zero value is a sensible default.
type Config struct {
	// Workers is the decide.Options goroutine budget of the heavy
	// procedures and, equally, the admission-control pool size: at most
	// this many heavy evaluations (query evaluation, c-table decision
	// procedures, world counting) run concurrently; the rest queue.
	// 0 means GOMAXPROCS.
	Workers int
	// CacheSize bounds the answer cache (entries). 0 means 256; a
	// negative value disables answer caching (every request evaluates,
	// though identical in-flight requests still coalesce).
	CacheSize int
	// SlowQueryThreshold enables the slow-query log: every request
	// taking at least this long is logged as its flight record (op,
	// database, canonical query fingerprint, outcome, plan summary and
	// cost counters). 0 disables it.
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives slow-query lines, one Write per line,
	// serialized across requests (os.Stderr when nil and a threshold is
	// set).
	SlowQueryLog io.Writer
	// FlightSize bounds the flight recorder, the ring of recently
	// answered requests served at GET /debug/requests. 0 means 128; a
	// negative value disables recording.
	FlightSize int
}

const (
	defaultCacheSize = 256
	preparedSize     = 512 // prepared-query cache entries
)

// Server is a resident multi-database query engine. Safe for concurrent
// use by any number of goroutines.
type Server struct {
	workers int
	sem     chan struct{}

	mu  sync.RWMutex // guards dbs (the map, not the databases)
	dbs map[string]*database

	cacheMu  sync.Mutex // guards prepared and answers
	prepared *lruCache[string, *preparedQuery]
	answers  *lruCache[ansKey, any]

	flight flightGroup[ansKey]

	metrics       *serverMetrics
	slowThreshold time.Duration
	slowMu        sync.Mutex // serializes slow-query lines onto slowLog
	slowLog       io.Writer
	recorder      *flightRecorder
	idBase        string
	idSeq         atomic.Uint64
}

// database is one loaded .pw database. mu guards the {rep, version}
// pair. writeMu
// serializes the slow half of every mutation (file re-parse, update
// application) so concurrent reloads and writes cannot interleave their
// read-compute-install sequences; it is always acquired before mu and
// never held while answering queries, so readers keep snapshotting the
// current version through db.mu alone.
type database struct {
	name string
	path string // "" for databases registered in-memory

	writeMu sync.Mutex

	mu      sync.RWMutex
	version uint64
	stamps  *relStamps
	rep     rep.DB

	// Per-database answer-cache traffic, surfaced by /stats and the
	// per-db /metrics families (the aggregate counters hide which
	// database's cache is churning).
	ansHits   atomic.Int64
	ansMisses atomic.Int64
}

// relStamps records, for one installed version, the version that last
// wrote each relation: base is the version of the last install that
// wrote every relation (registration, reload, assume), rel the versions
// of the relation-scoped writes since. Every install stamps with the
// new version, so the largest stamp is the installed version itself.
// Replaced copy-on-write at install, never mutated.
type relStamps struct {
	base uint64
	rel  map[string]uint64
}

// after returns the stamps of the install at version whose footprint is
// rels (every relation when all).
func (st *relStamps) after(version uint64, rels []string, all bool) *relStamps {
	if all {
		return &relStamps{base: version}
	}
	next := &relStamps{base: st.base, rel: make(map[string]uint64, len(st.rel)+len(rels))}
	for r, v := range st.rel {
		next.rel[r] = v
	}
	for _, r := range rels {
		next.rel[r] = version
	}
	return next
}

// effective is the version a query reading reads answers at: the
// largest stamp over the relations it scans (the installed version
// itself when it may read every relation). It changes exactly when an
// install writes one of those relations.
func (st *relStamps) effective(reads *readSet, version uint64) uint64 {
	if reads.all {
		return version
	}
	e := st.base
	for _, r := range reads.rels {
		if v := st.rel[r]; v > e {
			e = v
		}
	}
	return e
}

// dbView is an immutable snapshot of a database taken under its read
// lock; evaluation happens against the snapshot, outside any lock.
type dbView struct {
	name    string
	version uint64
	stamps  *relStamps
	rep     rep.DB
	db      *database // answer-key identity and per-db cache attribution; never nil from view()
}

// Stats is a point-in-time snapshot of the server counters, including
// the per-database breakdown. Its counters are the ones /metrics
// exposes, read from the same store, so the two cannot disagree.
type Stats struct {
	Requests       int64     `json:"requests"`
	Errors         int64     `json:"errors"`
	PreparedHits   int64     `json:"prepared_hits"`
	PreparedMisses int64     `json:"prepared_misses"`
	AnswerHits     int64     `json:"answer_hits"`
	AnswerMisses   int64     `json:"answer_misses"`
	Coalesced      int64     `json:"coalesced"`
	PlanReused     int64     `json:"plan_reused"`
	InFlightEvals  int64     `json:"in_flight_evals"`
	AnswerEntries  int       `json:"answer_entries"`
	PreparedCached int       `json:"prepared_entries"`
	DBs            []DBStats `json:"dbs,omitempty"`
}

// DBStats is one database's slice of the server counters: its installed
// version, the resident backend kind, and the answer-cache traffic
// attributed to it.
type DBStats struct {
	Name          string `json:"name"`
	Version       uint64 `json:"version"`
	Backend       string `json:"backend"` // "wsd" or "table"
	Kind          string `json:"kind"`    // "tuple", "attr", or "table"
	AnswerHits    int64  `json:"answer_hits"`
	AnswerMisses  int64  `json:"answer_misses"`
	AnswerEntries int    `json:"answer_entries"`
}

// DBStats snapshots the per-database counters, sorted by name.
func (s *Server) DBStats() []DBStats {
	s.mu.RLock()
	dbs := make([]*database, 0, len(s.dbs))
	for _, db := range s.dbs {
		dbs = append(dbs, db)
	}
	s.mu.RUnlock()

	// Live answer-cache entries per database (a cont entry counts
	// under its subset side).
	entries := make(map[*database]int, len(dbs))
	s.cacheMu.Lock()
	s.answers.each(func(k ansKey) {
		entries[k.db]++
	})
	s.cacheMu.Unlock()

	out := make([]DBStats, 0, len(dbs))
	for _, db := range dbs {
		db.mu.RLock()
		version, r := db.version, db.rep
		db.mu.RUnlock()
		backend, kind := r.Kind()
		out = append(out, DBStats{
			Name:          db.name,
			Version:       version,
			Backend:       backend,
			Kind:          kind,
			AnswerHits:    db.ansHits.Load(),
			AnswerMisses:  db.ansMisses.Load(),
			AnswerEntries: entries[db],
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// New returns a Server with no databases loaded.
func New(cfg Config) *Server {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cacheSize := cfg.CacheSize
	if cacheSize == 0 {
		cacheSize = defaultCacheSize
	}
	slowLog := cfg.SlowQueryLog
	if slowLog == nil && cfg.SlowQueryThreshold > 0 {
		slowLog = os.Stderr
	}
	s := &Server{
		workers:       workers,
		sem:           make(chan struct{}, workers),
		dbs:           make(map[string]*database),
		prepared:      newLRU[string, *preparedQuery](preparedSize),
		answers:       newLRU[ansKey, any](cacheSize),
		slowThreshold: cfg.SlowQueryThreshold,
		slowLog:       slowLog,
		recorder:      newFlightRecorder(cfg.FlightSize),
		idBase:        fmt.Sprintf("%06x", rand.Int31n(1<<24)),
	}
	s.metrics = newServerMetrics(s)
	return s
}

// Workers reports the effective worker/admission pool size.
func (s *Server) Workers() int { return s.workers }

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	s.cacheMu.Lock()
	ansN, prepN := s.answers.len(), s.prepared.len()
	s.cacheMu.Unlock()
	m := s.metrics
	var requests, errs uint64
	for _, op := range metricOps {
		requests += m.requests[op].Value()
		errs += m.errors[op].Value()
	}
	return Stats{
		Requests:       int64(requests),
		Errors:         int64(errs),
		PreparedHits:   int64(m.prepHits.Value()),
		PreparedMisses: int64(m.prepMisses.Value()),
		AnswerHits:     int64(m.ansHits.Value()),
		AnswerMisses:   int64(m.ansMisses.Value()),
		Coalesced:      int64(m.coalesced.Value()),
		PlanReused:     int64(m.planReused.Value()),
		InFlightEvals:  m.inflight.Value(),
		AnswerEntries:  ansN,
		PreparedCached: prepN,
		DBs:            s.DBStats(),
	}
}

// AddWSD registers an in-memory decomposition under name. The
// decomposition is normalized here (the one mutation) and must not be
// mutated by the caller afterwards.
func (s *Server) AddWSD(name string, w *wsd.WSD) error {
	if err := w.Normalize(); err != nil {
		return fmt.Errorf("normalize %s: %w", name, err)
	}
	return s.register(&database{name: name, version: 1, rep: rep.DB{WSD: w}})
}

// AddTables registers an in-memory conditioned-table database under
// name. The database must not be mutated by the caller afterwards.
func (s *Server) AddTables(name string, d *table.Database) error {
	return s.register(&database{name: name, version: 1, rep: rep.DB{Tab: d}})
}

// Open loads a .pw database file (either backend) under name.
func (s *Server) Open(name, path string) error {
	db := &database{name: name, path: path, version: 1}
	if err := loadInto(db, path); err != nil {
		return err
	}
	return s.register(db)
}

// testHookReloadAfterRead, when non-nil, runs after a reload has parsed
// the file but before it installs the result — with writeMu held. Tests
// use it to prove reloads serialize: a second reload started during the
// hook must observe the first one's install.
var testHookReloadAfterRead func(name string)

// Reload re-reads a file-backed database and installs the fresh backend
// under the write lock, bumping the version. A reload writes every
// relation: every answer cached against the old version becomes
// unreachable at that instant and is purged from the answer cache.
// Concurrent reloads of one database are serialized by its writeMu:
// without it, two reloads could each read the file and then install in
// the opposite order, leaving the older file content live at the
// higher version.
func (s *Server) Reload(name string) error {
	db, err := s.lookup(name)
	if err != nil {
		return err
	}
	if db.path == "" {
		return &Error{Status: 400, Err: fmt.Errorf("database %q is in-memory and cannot be reloaded", name)}
	}
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	fresh := &database{name: name, path: db.path}
	if err := loadInto(fresh, db.path); err != nil {
		return err
	}
	if testHookReloadAfterRead != nil {
		testHookReloadAfterRead(name)
	}
	db.mu.Lock()
	db.rep = fresh.rep
	db.version++
	live := db.version
	db.stamps = &relStamps{base: live}
	stamps := db.stamps
	db.mu.Unlock()
	s.purgeStale(db, live, stamps)
	return nil
}

// purgeStale drops every answer-cache entry of database db that no
// request can reach after the install of version live with the given
// stamps: an eval entry whose key version is no longer its query's
// effective version (its query reads a relation the install wrote),
// any other entry keyed on the database at a version other than live,
// and cont entries whose superset side (db2) is the database at
// another version. Callers hold the database's writeMu, so stamps are
// the latest.
func (s *Server) purgeStale(db *database, live uint64, stamps *relStamps) {
	s.cacheMu.Lock()
	purged := s.answers.purge(func(k ansKey, val any) bool {
		if k.db == db {
			if k.kind == "eval" {
				return k.version != stamps.effective(val.(*evalEntry).reads, live)
			}
			if k.version != live {
				return true
			}
		}
		return k.db2 == db && k.version2 != live
	})
	s.cacheMu.Unlock()
	s.metrics.ansPurged.Add(uint64(purged))
}

func loadInto(db *database, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	src, err := parse.ParseSource(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	switch {
	case src.WSD != nil:
		// ParseWSD normalizes on the way in; Normalize here is the
		// explicit share-across-goroutines handshake and a no-op.
		if err := src.WSD.Normalize(); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		db.rep = rep.DB{WSD: src.WSD}
	case src.DB != nil:
		db.rep = rep.DB{Tab: src.DB}
	case src.Update != nil:
		return fmt.Errorf("%s is an @update file, not a database", path)
	default:
		return fmt.Errorf("%s is a @query file, not a database", path)
	}
	return nil
}

func (s *Server) register(db *database) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.dbs[db.name]; dup {
		return fmt.Errorf("database %q already loaded", db.name)
	}
	db.stamps = &relStamps{base: db.version} // a registration writes every relation
	s.dbs[db.name] = db
	return nil
}

// lookup returns the database registered under name, or a 404.
func (s *Server) lookup(name string) (*database, error) {
	s.mu.RLock()
	db := s.dbs[name]
	s.mu.RUnlock()
	if db == nil {
		return nil, &Error{Status: 404, Err: fmt.Errorf("unknown database %q", name)}
	}
	return db, nil
}

// view snapshots a database's backend and version under its read lock.
func (s *Server) view(name string) (dbView, error) {
	db, err := s.lookup(name)
	if err != nil {
		return dbView{}, err
	}
	db.mu.RLock()
	v := dbView{name: db.name, version: db.version, stamps: db.stamps, rep: db.rep, db: db}
	db.mu.RUnlock()
	return v, nil
}

// DBInfo describes one loaded database for the /dbs listing.
type DBInfo struct {
	Name    string `json:"name"`
	Path    string `json:"path,omitempty"`
	Version uint64 `json:"version"`
	Backend string `json:"backend"` // "wsd" or "table"
	Kind    string `json:"kind"`    // "tuple", "attr", or "table"
	Count   string `json:"count,omitempty"`
}

// Databases lists the loaded databases, sorted by name. Counts are
// reported only for decompositions, where they are O(components).
func (s *Server) Databases() []DBInfo {
	s.mu.RLock()
	out := make([]DBInfo, 0, len(s.dbs))
	for _, db := range s.dbs {
		db.mu.RLock()
		info := DBInfo{Name: db.name, Path: db.path, Version: db.version}
		info.Backend, info.Kind = db.rep.Kind()
		if db.rep.Native() {
			info.Count = db.rep.Count(decide.Options{})
		}
		db.mu.RUnlock()
		out = append(out, info)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Error is a request-level failure with an HTTP status classification.
type Error struct {
	Status int
	Err    error
}

func (e *Error) Error() string { return e.Err.Error() }
func (e *Error) Unwrap() error { return e.Err }

func badRequest(format string, args ...any) *Error {
	return &Error{Status: 400, Err: fmt.Errorf(format, args...)}
}

// statusFor classifies an error for the HTTP layer: explicit *Error
// statuses pass through; queries outside a backend's decidable fragment
// are 422 (unprocessable, resubmitting won't help); anything else is a
// 400-class input problem (this server computes on trusted resident
// data — evaluation errors stem from the request's query or payload).
func statusFor(err error) int {
	var se *Error
	if errors.As(err, &se) {
		return se.Status
	}
	if errors.Is(err, wsdalg.ErrUnsupported) || errors.Is(err, wsdalg.ErrEntangled) ||
		errors.Is(err, wsd.ErrInfiniteRep) || errors.Is(err, algebra.ErrWorldSetOp) {
		return 422
	}
	return 400
}

// Request is one query-server request (the POST /query body).
type Request struct {
	DB     string `json:"db"`
	Op     string `json:"op"`
	Query  string `json:"query,omitempty"`  // @query text for poss-ans/cert-ans, or the -db view for cont
	Query2 string `json:"query2,omitempty"` // the -db2 view for cont
	DB2    string `json:"db2,omitempty"`    // superset database for cont
	Inst   string `json:"inst,omitempty"`   // .pw instance text for memb/uniq
	Facts  string `json:"facts,omitempty"`  // .pw instance text for poss/cert
	Update string `json:"update,omitempty"` // @update text for write
	N      int    `json:"n,omitempty"`      // sample count (default 1)
	Seed   int64  `json:"seed,omitempty"`   // sample seed (0 means the documented default)
}

// Response is the answer to one Request.
type Response struct {
	DB      string   `json:"db,omitempty"`
	Op      string   `json:"op"`
	Version uint64   `json:"version,omitempty"`
	Answer  *bool    `json:"answer,omitempty"` // memb/uniq/poss/cert/cont
	Count   string   `json:"count,omitempty"`  // count (decimal, exact)
	Facts   string   `json:"facts,omitempty"`  // poss-ans/cert-ans (.pw instance text)
	Worlds  []string `json:"worlds,omitempty"` // sample (.pw instance texts)
	// Cached reports the answer was served from the answer cache with no
	// evaluation this request; Coalesced that it piggybacked on another
	// request's in-flight evaluation.
	Cached    bool `json:"cached,omitempty"`
	Coalesced bool `json:"coalesced,omitempty"`
	// RequestID, Trace and Cost are filled by the HTTP layer on ?trace=1
	// requests: the span tree and the nonzero cost counters recorded
	// while answering this request.
	RequestID string           `json:"request_id,omitempty"`
	Trace     *obs.SpanNode    `json:"trace,omitempty"`
	Cost      map[string]int64 `json:"cost,omitempty"`
	// Plan is the EXPLAIN/ANALYZE record attached on ?explain=1 (or
	// CallOptions.Explain): per-operator estimates and actuals for
	// evaluated queries, a summary probe plan for decomposition-native
	// ops. A cached answer carries the plan recorded when its cache
	// entry was evaluated, not a fresh one.
	Plan *wsdalg.Plan `json:"plan,omitempty"`
}

// CallOptions modulate one Do call: an optional trace to record spans
// and cost into, whether to attach an EXPLAIN plan to the response, and
// the request ID to stamp on the request's record (the HTTP layer
// passes the X-Request-Id it minted; direct callers may leave it
// empty).
type CallOptions struct {
	Trace     *obs.Trace
	Explain   bool
	RequestID string
}

// Do answers one request. It is the transport-independent core the HTTP
// layer (and the benchmarks, and the difftest backend) call.
func (s *Server) Do(req *Request) (*Response, error) {
	return s.DoCall(req, CallOptions{})
}

// DoCall answers one request under explicit CallOptions. Every request
// fills one record, from which finish derives its metrics, flight-ring
// slot and slow-query line; failures additionally mark the trace root
// with the error class so an error response still carries a complete,
// annotated span tree. A request whose dispatch panics is recorded too:
// it fails with status 500 and error class "panic".
func (s *Server) DoCall(req *Request, opts CallOptions) (*Response, error) {
	rc := newReqCtx(opts.Trace)
	rc.explain = opts.Explain
	if opts.Explain {
		s.metrics.explain.Inc()
	}
	start := time.Now()
	resp, err := s.dispatchRecovered(req, rc)
	r := requestRecord{
		id:     opts.RequestID,
		t:      time.Now().UTC(),
		op:     req.Op,
		db:     req.DB,
		fp:     rc.fp,
		dur:    time.Since(start),
		status: 200,
		cost:   rc.cost.Snapshot(),
	}
	if resp != nil {
		r.version, r.cached, r.coalesced = resp.Version, resp.Cached, resp.Coalesced
		if rc.explain {
			resp.Plan = rc.plan
		}
	}
	if err != nil {
		r.status, r.errMsg, r.errClass = statusFor(err), err.Error(), errorClass(err)
	}
	r.slow = s.slowThreshold > 0 && r.dur >= s.slowThreshold
	if r.slow || err != nil {
		r.plan = planSummary(rc.plan)
	}
	s.finish(&r, rc.tr)
	if err != nil && rc.explain && rc.plan != nil {
		// ?explain=1 parity on the error path: the partial plan (error
		// class marked at the failing node) rides the error the same
		// way the span tree rides a traced failure.
		err = &PlanError{Err: err, Plan: rc.plan}
	}
	return resp, err
}

// PlanError carries the partial EXPLAIN plan of a failed explain
// request alongside the underlying error; errors.Is/As see through it.
type PlanError struct {
	Err  error
	Plan *wsdalg.Plan
}

func (e *PlanError) Error() string { return e.Err.Error() }
func (e *PlanError) Unwrap() error { return e.Err }

// testHookDispatch, when non-nil, runs at the start of every dispatch.
// Tests use it to make a request panic.
var testHookDispatch func(req *Request)

// errPanic marks the error of a request whose dispatch panicked.
var errPanic = errors.New("internal error")

// dispatchRecovered is dispatch with a panic turned into a 500 error,
// so the request still reaches finish (and the HTTP layer answers it
// instead of dropping the connection). The stack goes to the standard
// logger, as net/http would have logged it.
func (s *Server) dispatchRecovered(req *Request, rc *reqCtx) (resp *Response, err error) {
	defer func() {
		if p := recover(); p != nil {
			log.Printf("server: panic answering %s on %q: %v\n%s", req.Op, req.DB, p, debug.Stack())
			resp, err = nil, &Error{Status: 500, Err: fmt.Errorf("%w: panic: %v", errPanic, p)}
		}
	}()
	if testHookDispatch != nil {
		testHookDispatch(req)
	}
	return s.dispatch(req, rc)
}

// errorClass names an error for span annotations and request records:
// a recovered panic, the evaluator's refusal classes, the
// representation-system limit, or the HTTP status family.
func errorClass(err error) string {
	if err == nil {
		return ""
	}
	if errors.Is(err, errPanic) {
		return "panic"
	}
	if errors.Is(err, wsd.ErrInfiniteRep) {
		return "infinite_rep"
	}
	if c := wsdalg.ErrorClass(err); c != "error" {
		return c
	}
	var se *Error
	if errors.As(err, &se) {
		return fmt.Sprintf("http_%d", se.Status)
	}
	return "error"
}

// planSummary compresses a plan to one line for ring slots and log
// lines (the full tree stays behind ?explain=1 / pwq explain).
func planSummary(p *wsdalg.Plan) string {
	if p == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s components=%d", p.Query, p.Components)
	if p.WorldCount != "" {
		fmt.Fprintf(&b, " worlds=%s", p.WorldCount)
	}
	if p.Error != "" {
		fmt.Fprintf(&b, " !%s", p.Error)
	}
	if n := p.Assemble; n != nil && n.Act.MergeSpace > 0 {
		fmt.Fprintf(&b, " assemble_merge=%d", n.Act.MergeSpace)
	}
	fmt.Fprintf(&b, " us=%d", p.DurUS)
	return b.String()
}

func (s *Server) dispatch(req *Request, rc *reqCtx) (*Response, error) {
	if req.DB == "" {
		return nil, badRequest("missing db")
	}
	if req.Op == "write" {
		return s.opWrite(req, rc)
	}
	v, err := s.view(req.DB)
	if err != nil {
		return nil, err
	}
	resp := &Response{DB: v.name, Op: req.Op, Version: v.version}
	start := time.Now()
	var out *Response
	switch req.Op {
	case "memb", "uniq", "poss", "cert":
		out, err = s.opDecide(req, v, resp, rc)
	case "count":
		out, err = s.opCount(v, resp, rc)
	case "sample":
		out, err = s.opSample(req, v, resp, rc)
	case "poss-ans", "cert-ans":
		out, err = s.opAnswers(req, v, resp, rc)
	case "cont":
		out, err = s.opCont(req, v, resp, rc)
	case "":
		return nil, badRequest("missing op")
	default:
		return nil, badRequest("unknown op %q", req.Op)
	}
	// Decomposition-native ops never run the evaluator; on explain they
	// get a summary probe plan (input size, exact world count, wall
	// time) so ?explain=1 is meaningful on every op. Evaluated paths
	// already filled rc.plan with the real operator tree.
	if err == nil && rc.explain && rc.plan == nil && v.rep.Native() {
		rc.plan = probePlan(req.Op, v, time.Since(start))
	}
	return out, err
}

// probePlan is the explain record of a decomposition-native op that
// answered straight off the resident WSD, with no algebra evaluation.
func probePlan(op string, v dbView, dur time.Duration) *wsdalg.Plan {
	return &wsdalg.Plan{
		Query:      op,
		Components: int64(v.rep.WSD.LiveComponents()),
		WorldCount: v.rep.WSD.CountString(),
		DurUS:      dur.Microseconds(),
	}
}

// acquire blocks until an admission slot frees up. Heavy procedures —
// anything that evaluates a query, runs a c-table decision search, or
// counts by enumeration — pass through here; decomposition-native fact
// probes do not, so they cannot be starved by expensive traffic. The
// wait is recorded three ways: a span on the trace, the request's
// SemWaitNanos counter, and the process-wide wait histogram.
func (s *Server) acquire(rc *reqCtx) func() {
	sp := rc.span("admission")
	start := time.Now()
	s.sem <- struct{}{}
	wait := time.Since(start)
	sp.End()
	rc.cost.Add(obs.SemWaitNanos, wait.Nanoseconds())
	s.metrics.semWait.Observe(wait.Seconds())
	s.metrics.inflight.Add(1)
	return func() {
		s.metrics.inflight.Add(-1)
		<-s.sem
	}
}

func (s *Server) opts(rc *reqCtx) decide.Options {
	return decide.Options{Workers: s.workers, Cost: rc.cost}
}

func parseInstanceText(field, text string, rc *reqCtx) (*rel.Instance, error) {
	if text == "" {
		return nil, badRequest("missing %s", field)
	}
	sp := rc.span("parse")
	inst, err := parse.ParseInstance(rc.cost.ParseReader(strings.NewReader(text)))
	sp.End()
	if err != nil {
		return nil, badRequest("%s: %v", field, err)
	}
	return inst, nil
}

func printInstance(inst *rel.Instance) (string, error) {
	var b strings.Builder
	if err := parse.PrintInstance(&b, inst); err != nil {
		return "", err
	}
	return b.String(), nil
}

func yes(resp *Response, v bool) *Response { resp.Answer = &v; return resp }

// admit acquires an admission slot for work on v's database, or none
// on a decomposition, whose decision probes and samples need no search.
// span names the span that work runs under.
func (s *Server) admit(v dbView, rc *reqCtx) (release func(), span string) {
	if v.rep.Native() {
		return func() {}, "probe"
	}
	return s.acquire(rc), "decide"
}

// opDecide answers MEMB (memb), UNIQ (uniq), POSS (poss) and CERT (cert)
// on the stored database: memb and uniq read the inst field, poss and
// cert the facts field.
func (s *Server) opDecide(req *Request, v dbView, resp *Response, rc *reqCtx) (*Response, error) {
	field, text := "inst", req.Inst
	if req.Op == "poss" || req.Op == "cert" {
		field, text = "facts", req.Facts
	}
	inst, err := parseInstanceText(field, text, rc)
	if err != nil {
		return nil, err
	}
	release, span := s.admit(v, rc)
	defer release()
	sp := rc.span(span)
	defer sp.End()
	var ok bool
	switch o := s.opts(rc); req.Op {
	case "memb":
		ok, err = v.rep.Member(o, inst)
	case "uniq":
		ok, err = v.rep.Unique(o, inst)
	case "poss":
		ok, err = v.rep.Possible(o, inst)
	default:
		ok, err = v.rep.Certain(o, inst)
	}
	if err != nil {
		return nil, err
	}
	return yes(resp, ok), nil
}

// opCount answers a decomposition's count straight off its per-version
// memo; a table database's count enumerates, so it is cached and
// admitted like any heavy evaluation.
func (s *Server) opCount(v dbView, resp *Response, rc *reqCtx) (*Response, error) {
	if v.rep.Native() {
		sp := rc.span("probe")
		defer sp.End()
		resp.Count = v.rep.Count(s.opts(rc))
		return resp, nil
	}
	key := ansKey{kind: "count", db: v.db, version: v.version}
	n, cached, coalesced, err := s.cachedEval(key, rc, func() (any, error) {
		defer s.acquire(rc)()
		sp := rc.span("count")
		defer sp.End()
		return v.rep.Count(s.opts(rc)), nil
	})
	if err != nil {
		return nil, err
	}
	resp.Count = n.(string)
	resp.Cached, resp.Coalesced = cached, coalesced
	return resp, nil
}

// defaultSampleSeed is the seed used when a sample request omits the
// field (JSON zero value). It is deliberately not a small seed a client
// would plausibly pick: the old behavior coerced 0 to 1, silently
// aliasing the default onto the explicit seed=1 stream so the two
// requests drew identical worlds.
const defaultSampleSeed = 0x705753_1987 // "pw" / the paper's year

func (s *Server) opSample(req *Request, v dbView, resp *Response, rc *reqCtx) (*Response, error) {
	n := req.N
	if n == 0 {
		n = 1
	}
	if n < 0 || n > 1000 {
		return nil, badRequest("n must be in [1, 1000]")
	}
	seed := req.Seed
	if seed == 0 {
		seed = defaultSampleSeed
	}
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < n; k++ {
		release, _ := s.admit(v, rc)
		inst, err := v.rep.Sample(rng, seed, k)
		release()
		if err != nil {
			return nil, &Error{Status: 400, Err: err}
		}
		text, err := printInstance(inst)
		if err != nil {
			return nil, err
		}
		resp.Worlds = append(resp.Worlds, text)
	}
	return resp, nil
}

// opWrite applies an @update program to a decomposition-backed database
// and installs the result as a new version. The slow half — parsing the
// program and the incremental renormalization — runs under the
// database's writeMu only, so concurrent readers keep answering against
// the pre-update snapshot (ApplyUpdate is copy-on-write: the installed
// result shares untouched components with the old version, which is
// never mutated). The install itself is one short critical section
// under db.mu that also stamps the update's footprint (the relations it
// can change, wsd.Update.Footprint) with the new version; afterwards
// the cache entries no request can reach are purged, which leaves the
// answers of queries reading no relation in the footprint in place.
func (s *Server) opWrite(req *Request, rc *reqCtx) (*Response, error) {
	if req.Update == "" {
		return nil, badRequest("missing update")
	}
	sp := rc.span("parse")
	u, err := parse.ParseUpdate(rc.cost.ParseReader(strings.NewReader(req.Update)))
	sp.End()
	if err != nil {
		return nil, badRequest("update: %v", err)
	}
	db, err := s.lookup(req.DB)
	if err != nil {
		return nil, err
	}
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	db.mu.RLock()
	base := db.rep.WSD
	db.mu.RUnlock()
	if base == nil {
		return nil, &Error{Status: 422, Err: fmt.Errorf(
			"database %q is table-backed; updates need a decomposition (@wsd) database", req.DB)}
	}
	release := s.acquire(rc)
	sp = rc.span("apply-update")
	next, err := base.ApplyUpdateObserved(u, rc.cost)
	sp.End()
	release()
	if err != nil {
		return nil, err
	}
	// A write that keeps the world count (an insert of a certain fact,
	// say) keeps the base version's memoized text (wsd.CountString).
	count := next.CountString()
	rels, all := u.Footprint()
	db.mu.Lock()
	db.rep = rep.DB{WSD: next}
	db.version++
	live := db.version
	db.stamps = db.stamps.after(live, rels, all)
	stamps := db.stamps
	db.mu.Unlock()
	s.purgeStale(db, live, stamps)
	return &Response{DB: req.DB, Op: "write", Version: live, Count: count}, nil
}

// preparedQuery is one compiled query: the parsed algebra plan plus
// its canonical fingerprint (the plan's printed form, so equivalent
// spellings share one answer-cache line), the relations it scans, and
// the planner's last decision for it.
type preparedQuery struct {
	q     query.Query
	fp    string
	reads *readSet
	// kept is the last planning decision an evaluation of this query
	// made, with the database and effective version it was made at. A
	// later answer miss at the same key evaluates the kept form without
	// planning again; a write to a relation the query scans, or a
	// reload, moves the effective version, so the next miss re-plans. It
	// lives and dies with the prepared-cache entry.
	kept atomic.Pointer[keptDecision]
}

// readSet is the set of relations a prepared query scans
// (query.Scans); all marks a query that may read any relation.
type readSet struct {
	rels []string
	all  bool
}

// readAll is the read set of the identity query, FO and Datalog.
var readAll = &readSet{all: true}

// keptDecision is a planning decision keyed by the database and the
// effective version it was made at. The key holds no decomposition: the
// version pins the decision without keeping the WSD it was made on
// reachable once a write replaces it. A write to relations the query
// does not scan keeps the decision: its form is equivalent to the query
// on every world set, so reusing it never changes an answer.
type keptDecision struct {
	db      *database
	version uint64
	dec     *wsdalg.Decision
}

// decision returns the decision kept for v's database at effective
// version eff, or nil when the last one was made elsewhere (or none was
// made).
func (p *preparedQuery) decision(v dbView, eff uint64) *wsdalg.Decision {
	if k := p.kept.Load(); k != nil && k.db == v.db && k.version == eff {
		return k.dec
	}
	return nil
}

// keep records d as the decision for v's database at effective version
// eff.
func (p *preparedQuery) keep(v dbView, eff uint64, d *wsdalg.Decision) {
	p.kept.Store(&keptDecision{db: v.db, version: eff, dec: d})
}

// prepare compiles @query text through the prepared-query cache.
func (s *Server) prepare(text string, rc *reqCtx) (*preparedQuery, error) {
	s.cacheMu.Lock()
	if v, ok := s.prepared.get(text); ok {
		s.cacheMu.Unlock()
		s.metrics.prepHits.Inc()
		return v, nil
	}
	s.cacheMu.Unlock()
	s.metrics.prepMisses.Inc()
	sp := rc.span("prepare")
	defer sp.End()
	src, err := parse.ParseSource(rc.cost.ParseReader(strings.NewReader(text)))
	if err != nil {
		return nil, badRequest("query: %v", err)
	}
	if src.Query == nil {
		return nil, badRequest("query text does not contain a @query block")
	}
	var b strings.Builder
	if err := parse.PrintQuery(&b, *src.Query); err != nil {
		return nil, badRequest("query: %v", err)
	}
	rels, all := query.Scans(*src.Query)
	p := &preparedQuery{q: *src.Query, fp: b.String(), reads: &readSet{rels: rels, all: all}}
	s.cacheMu.Lock()
	s.prepared.add(text, p)
	s.cacheMu.Unlock()
	return p, nil
}

// prepareOrIdentity resolves optional query text (cont's views, the
// answer ops' query): empty text is the identity query with a reserved
// fingerprint, prepared afresh each time (it never plans).
func (s *Server) prepareOrIdentity(text string, rc *reqCtx) (*preparedQuery, error) {
	if text == "" {
		return &preparedQuery{q: query.Identity{}, fp: "~identity", reads: readAll}, nil
	}
	return s.prepare(text, rc)
}

// ansKey is an answer-cache and singleflight key: kind is "eval" (a
// decomposition readout, at the query's effective version) or the op of
// a cached table answer or decision (poss-ans, cert-ans, count, cont).
// The database pointer is its identity, which a reload keeps (it
// mutates the same struct). Only cont sets the superset side db2, at
// version2, and the second fingerprint fp2.
type ansKey struct {
	kind     string
	db       *database
	version  uint64
	fp       string
	db2      *database
	version2 uint64
	fp2      string
}

// cachedEval is the answer-cache + singleflight core: a cache hit
// returns immediately; otherwise concurrent callers with the same key
// share one execution of fn, whose result is cached for the next
// request. With caching disabled the flight still coalesces identical
// in-flight work. Outcomes are recorded globally, per database, and in
// the request's cost counters (per database: key.db's); coalesced
// requests correctly lack eval spans — fn ran on the first caller's
// goroutine.
func (s *Server) cachedEval(key ansKey, rc *reqCtx, fn func() (any, error)) (val any, cached, coalesced bool, err error) {
	s.cacheMu.Lock()
	if v, ok := s.answers.get(key); ok {
		s.cacheMu.Unlock()
		s.metrics.ansHits.Inc()
		key.db.ansHits.Add(1)
		rc.cost.Add(obs.CacheHits, 1)
		return v, true, false, nil
	}
	s.cacheMu.Unlock()
	s.metrics.ansMisses.Inc()
	key.db.ansMisses.Add(1)
	rc.cost.Add(obs.CacheMisses, 1)
	val, err, coalesced = s.flight.do(key, func() (any, error) {
		v, err := fn()
		if err != nil {
			return nil, err
		}
		s.cacheMu.Lock()
		s.answers.add(key, v)
		s.cacheMu.Unlock()
		return v, nil
	})
	if coalesced {
		s.metrics.coalesced.Inc()
		rc.cost.Add(obs.CoalescedWaits, 1)
	}
	return val, false, coalesced, err
}

// evalEntry is one cached readout — the possible and certain answer
// rows of one evaluation, interned — plus the answer texts printed off
// it, each rendered at most once, the EXPLAIN plan recorded by the
// evaluation that populated the entry, and the relations its query
// scans (purgeStale reads them). It holds no decomposition but one: the
// identity query's readout reads its possible set off the version it
// answers, and that is always the live version — the identity query
// reads every relation, so any install purges its entry. A cache hit
// reads a rendered text: it neither reads the rows out nor prints.
type evalEntry struct {
	ans   *wsdalg.Answers
	plan  *wsdalg.Plan
	reads *readSet
	poss  answerText
	cert  answerText
}

// answerText is one printed answer set and the error reading or
// printing it failed with, computed once.
type answerText struct {
	once sync.Once
	text string
	err  error
}

// answers returns the printed possible (poss-ans) or certain (cert-ans)
// answers of the cached readout, printing them on first use.
func (e *evalEntry) answers(op string) (string, error) {
	t, possible := &e.cert, op == "poss-ans"
	if possible {
		t = &e.poss
	}
	t.once.Do(func() {
		var b strings.Builder
		if t.err = parse.PrintAnswers(&b, e.ans, possible); t.err == nil {
			t.text = b.String()
		}
	})
	return t.text, t.err
}

// ansEntry caches a final printed answer (the c-table engine path,
// which has no reusable intermediate decomposition).
type ansEntry struct{ text string }

func (s *Server) opAnswers(req *Request, v dbView, resp *Response, rc *reqCtx) (*Response, error) {
	// An empty query is the identity: the possible/certain facts of the
	// database's own world set.
	p, err := s.prepareOrIdentity(req.Query, rc)
	if err != nil {
		return nil, err
	}
	q := p.q
	rc.fp = p.fp
	if v.rep.Native() {
		// One cache line per (db, effective version, fingerprint) holds
		// the readout of one evaluation; poss-ans and cert-ans on the
		// same query share it. Versions that wrote only relations the
		// query does not scan share its effective version: the answers
		// read at any of them are equal.
		eff := v.stamps.effective(p.reads, v.version)
		key := ansKey{kind: "eval", db: v.db, version: eff, fp: p.fp}
		val, cached, coalesced, err := s.cachedEval(key, rc, func() (any, error) {
			defer s.acquire(rc)()
			sp := rc.span("eval")
			defer sp.End()
			// Planning plus the plan: the planner's microseconds sit
			// next to the evaluation they describe, and keeping the plan
			// in the cache entry lets explain requests on cache hits
			// answer without re-evaluating. A decision kept from an
			// earlier miss at this effective version skips the planning.
			prior := p.decision(v, eff)
			if prior != nil {
				rc.cost.Add(obs.PlanReused, 1)
				s.metrics.planReused.Inc()
			}
			ans, plan, dec, err := wsdalg.Eval(v.rep.WSD, q, wsdalg.Options{Decision: prior, Cost: rc.cost})
			if err != nil {
				sp.SetError(errorClass(err))
				rc.plan = plan // partial, error-marked: the request record still sees it
				return nil, err
			}
			if prior == nil {
				p.keep(v, eff, dec)
			}
			return &evalEntry{ans: ans, plan: plan, reads: p.reads}, nil
		})
		if err != nil {
			return nil, err
		}
		entry := val.(*evalEntry)
		rc.plan = entry.plan
		sp := rc.span("answers")
		resp.Facts, err = entry.answers(req.Op)
		sp.End()
		if err != nil {
			return nil, err
		}
		resp.Cached, resp.Coalesced = cached, coalesced
		return resp, nil
	}
	key := ansKey{kind: req.Op, db: v.db, version: v.version, fp: p.fp}
	val, cached, coalesced, err := s.cachedEval(key, rc, func() (any, error) {
		defer s.acquire(rc)()
		sp := rc.span("decide")
		defer sp.End()
		a, err := v.rep.Answers(s.opts(rc), q, req.Op == "poss-ans")
		if err != nil {
			return nil, err
		}
		text, err := printInstance(a)
		if err != nil {
			return nil, err
		}
		return &ansEntry{text: text}, nil
	})
	if err != nil {
		return nil, err
	}
	resp.Facts = val.(*ansEntry).text
	resp.Cached, resp.Coalesced = cached, coalesced
	return resp, nil
}

func (s *Server) opCont(req *Request, v dbView, resp *Response, rc *reqCtx) (*Response, error) {
	if req.DB2 == "" {
		return nil, badRequest("missing db2")
	}
	v2, err := s.view(req.DB2)
	if err != nil {
		return nil, err
	}
	p0, err := s.prepareOrIdentity(req.Query, rc)
	if err != nil {
		return nil, err
	}
	p1, err := s.prepareOrIdentity(req.Query2, rc)
	if err != nil {
		return nil, err
	}
	rc.fp = p0.fp + " ⊆ " + p1.fp
	key := ansKey{kind: "cont", db: v.db, version: v.version, fp: p0.fp, db2: v2.db, version2: v2.version, fp2: p1.fp}
	val, cached, coalesced, err := s.cachedEval(key, rc, func() (any, error) {
		defer s.acquire(rc)()
		sp := rc.span("decide")
		defer sp.End()
		return rep.Contains(s.opts(rc), p0.q, v.rep, p1.q, v2.rep)
	})
	if err != nil {
		return nil, err
	}
	resp.Cached, resp.Coalesced = cached, coalesced
	return yes(resp, val.(bool)), nil
}
