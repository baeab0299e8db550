// Command perfbench is the serving benchmark of the pwd query server.
// It generates a seeded workload (databases and a request stream),
// loads the databases into a fresh in-process server.Server, serves its
// HTTP handler on a loopback listener, and drives it closed-loop,
// checking every answer. With -trace 1 it instead replays the same
// stream through each layer's public functions and reports per-layer
// metrics. See README.md for the workloads, metrics and sizes.
//
//	perfbench -workload probe-mix -seed 1 -seconds 10 -trace 0
//	perfbench -steady 5 -workload query-miss   # spread of 5 seeded runs vs BENCHMARK.json bounds
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The exit code is 1 when any answer was wrong, 2 on a usage or set-up
// error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"pw/internal/parse"
	"pw/internal/server"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the untraced run's metrics and units; BENCHMARK.json
// carries the same names (a test keeps them in step).
var endToEnd = []struct{ name, unit string }{
	{"throughput_ops", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p90_us", "us"},
	{"ok_frac", "frac"},
	{"allocs_per_op", "count"},
	{"heap_live_mb", "MB"},
	{"setup_s", "s"},
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "seed of the generated databases and request stream")
	seconds := fs.Float64("seconds", 15, "measured duration (with -steady: default run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1: traced per-layer pass instead of the end-to-end measurement")
	steady := fs.Int("steady", 0, "run each workload (or -workload) this many times, seeds seed.., and print each metric's spread against its BENCHMARK.json bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *steady > 0 {
		explicit := 0.0
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "seconds" {
				explicit = *seconds
			}
		})
		return steadiness(*name, *seed, *steady, explicit, stdout, stderr)
	}
	if *name == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need -workload, -seconds > 0 and -trace 0|1")
		return 2
	}
	w, err := buildWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	res, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// clients is the closed-loop client count: one connection per CPU, at
// most two, so the load generator and the server share the machine.
func clients() int { return min(2, runtime.NumCPU()) }

// measure runs one generated workload: set up, optionally prime, then
// either the closed-loop end-to-end measurement or the traced pass.
func measure(w *workload, seed int64, d time.Duration, traced bool, stdout io.Writer) (*result, error) {
	chk := &checker{}
	res := &result{Metrics: map[string]metric{}}
	var setups, parses []float64
	// setUp builds one fresh server, timed; it also counts the warm-up
	// requests' checks.
	setUp := func() (*server.Server, error) {
		srv, dur, parseDur, att, failed, err := setUpOnce(w, chk)
		res.Attempted += att
		res.Failed += failed
		setups = append(setups, dur)
		parses = append(parses, parseDur)
		return srv, err
	}
	srv, err := setUp()
	if err != nil {
		return nil, err
	}
	if traced {
		for len(setups) < setupRepeats {
			if _, err := setUp(); err != nil {
				return nil, err
			}
		}
	}
	hs, err := serve(srv.Handler())
	if err != nil {
		return nil, err
	}
	defer hs.close() // a second close is a no-op
	c := newClient(clients())
	defer c.CloseIdleConnections()
	cur := &cursor{}
	if w.prime {
		p := runLoad(c, hs.url, w, clients(), 0, cur, chk)
		res.Attempted += p.completed
		res.Failed += p.failed
	}
	if traced {
		tp, err := tracedPass(w, srv, hs.url, d, chk)
		if err != nil {
			return nil, err
		}
		res.Attempted += tp.attempted
		res.Failed += tp.failed
		tp.metrics["parse.db_s"] = metric{median(parses), "s"}
		tp.metrics["machine.ref_ms"] = metric{tp.refSeconds * 1e3, "ms"}
		for _, m := range perLayer {
			v, ok := tp.metrics[m.name]
			if !ok {
				v = metric{0, m.unit}
			}
			res.Metrics[m.name] = v
		}
		res.Correct = res.Failed == 0
		return res, nil
	}

	// The measurement is cut into slices, with one more (discarded)
	// set-up after every third: set-up and serving are both sampled
	// across the whole run, and a burst of interference from other
	// tenants of the machine moves a few slices, not the medians.
	cal := newCalibration()
	cal.rounds(3)
	var lat []time.Duration
	var rates, p50s []float64
	var mallocs uint64
	completed, failed := 0, 0
	slice := d / runSlices
	for k := 0; k < runSlices; k++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		lr := runLoad(c, hs.url, w, clients(), slice, cur, chk)
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		if lr.completed == 0 {
			return nil, fmt.Errorf("no request completed in %v", slice)
		}
		completed += lr.completed
		failed += lr.failed
		sortDurations(lr.lat)
		rates = append(rates, float64(lr.completed)/lr.elapsed.Seconds())
		p50s = append(p50s, us(percentile(lr.lat, 0.50)))
		lat = append(lat, lr.lat...)
		cal.rounds(2)
		if (k+1)%(runSlices/(setupRepeats-1)) == 0 {
			if _, err := setUp(); err != nil {
				return nil, err
			}
		}
	}
	res.Attempted += completed
	res.Failed += failed
	sortDurations(lat)
	n := float64(completed)
	set := func(name string, v float64) {
		for _, m := range endToEnd {
			if m.name == name {
				res.Metrics[name] = metric{v, m.unit}
			}
		}
	}
	// Times are reported at reference speed: divided by how much slower
	// than refSeconds the reference work ran in this run (see
	// calibration). measured keeps them as the clock read them. The
	// calibration's last use is here, so its buffers are garbage by the
	// time the heap is measured.
	refSec := cal.seconds()
	slow := refSec / refSeconds
	measured := map[string]float64{
		"throughput_ops": median(rates),
		"latency_p50_us": median(p50s),
		"latency_p90_us": us(percentile(lat, 0.90)),
		"setup_s":        median(setups),
	}
	set("throughput_ops", measured["throughput_ops"]*slow)
	set("latency_p50_us", measured["latency_p50_us"]/slow)
	set("latency_p90_us", measured["latency_p90_us"]/slow)
	set("setup_s", measured["setup_s"]/slow)
	// p99 is printed for people but not gated: on a shared host it moves
	// by 2-3x between runs of the same code (see README.md).
	p99 := us(percentile(lat, 0.99))
	set("ok_frac", (n-float64(failed))/n)
	set("allocs_per_op", float64(mallocs)/n)
	// Live heap with the server resident: stop the listener (its
	// connections' buffers) and drop the benchmark's own request streams
	// and samples first, so the figure is the server's databases and
	// caches.
	c.CloseIdleConnections()
	if err := hs.close(); err != nil {
		return nil, err
	}
	lat, w.streams, w.warmup = nil, nil, nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	set("heap_live_mb", float64(ms.HeapAlloc)/1e6)
	runtime.KeepAlive(srv)
	fmt.Fprintf(stdout, "%s seed=%d: %d requests, error_frac=%g, latency_p99_us=%.1f measured (%d beyond it), reference work %.2f ms (%.0f ms at reference speed)\n",
		w.name, seed, completed, float64(failed)/n, p99, completed/100, refSec*1e3, refSeconds*1e3)
	for _, m := range endToEnd {
		fmt.Fprintf(stdout, "  %-16s %14.4f %s", m.name, res.Metrics[m.name].Value, m.unit)
		if v, ok := measured[m.name]; ok {
			fmt.Fprintf(stdout, "  (measured %.4f)", v)
		}
		fmt.Fprintln(stdout)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// setUpOnce builds a fresh server: it parses and registers every
// database and runs the warm-up requests, timed after a GC. It returns
// the server, the set-up's and the parses' durations in seconds, and
// the warm-up checks.
func setUpOnce(w *workload, chk *checker) (srv *server.Server, dur, parseDur float64, attempted, failed int, err error) {
	runtime.GC()
	start := time.Now()
	srv = server.New(server.Config{})
	var parsing time.Duration
	for _, db := range w.dbs {
		p0 := time.Now()
		src, err := parse.ParseSource(strings.NewReader(db.text))
		parsing += time.Since(p0)
		if err != nil {
			return nil, 0, 0, 0, 0, fmt.Errorf("parse %s: %w", db.name, err)
		}
		if src.WSD != nil {
			err = srv.AddWSD(db.name, src.WSD)
		} else {
			err = srv.AddTables(db.name, src.DB)
		}
		if err != nil {
			return nil, 0, 0, 0, 0, err
		}
	}
	for _, r := range w.warmup {
		resp, err := srv.Do(&r.req)
		attempted++
		if !chk.checkDo(r, resp, err) {
			failed++
		}
	}
	return srv, time.Since(start).Seconds(), parsing.Seconds(), attempted, failed, nil
}

func sortDurations(ds []time.Duration) {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// percentile is the nearest-rank percentile of sorted samples.
func percentile(sorted []time.Duration, p float64) time.Duration {
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
