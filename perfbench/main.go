// Command perfbench is fepiad's served-workload benchmark. It starts fepiad
// in process (one worker, or a coordinator over three loopback workers),
// drives one named workload closed-loop for a fixed time, checks every
// response against an in-process library reference, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as the last
// line of standard output, one JSON object. README.md documents the
// workloads and what each metric is meant to move.
//
//	perfbench -workload analytic-oneshot -seed 1 -seconds 15 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"fepia/internal/server"
)

// workload is one served traffic shape.
type workload struct {
	name    string
	fleet   bool          // coordinator with a state dir over fleetWorkers workers
	clients int           // closed-loop clients (the fleet-watch updater is one)
	worker  server.Config // every worker's configuration
	gen     func(seed int64, seconds int) *inputs
}

var workloads = []*workload{
	{name: "analytic-oneshot", clients: 2,
		gen: func(seed int64, seconds int) *inputs { return genAnalytic(seed, 1000*seconds) }},
	{name: "numeric-repeat", clients: 2,
		// The documented fleet worker configuration (docs/operations.md).
		worker: server.Config{ScenarioCacheCap: 256, CacheCap: 4096},
		gen:    func(seed int64, seconds int) *inputs { return genNumeric(seed, 800*seconds) }},
	{name: "fleet-watch", fleet: true, clients: 1,
		gen: func(seed int64, _ int) *inputs { return genWatch(seed) }},
	{name: "fleet-search", fleet: true, clients: 2,
		gen: func(seed int64, _ int) *inputs { return genSearch(seed) }},
}

// setupReps is how many times a run builds its topology; setup_s is the
// median, and the last build serves the timed windows.
const setupReps = 25

// warmUp is the untimed closed-loop run before the measured window.
const warmUp = 2 * time.Second

// maxRun bounds one invocation, set-up and verification included.
const maxRun = 170 * time.Second

// minOps is the fewest operations a timed window must complete, so that
// each sub-window's p99 rests on at least 100 samples.
const minOps = 1000

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 15, "timed window length in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced layer measurements and prints per-layer metrics")
	flag.Parse()
	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: -workload {analytic-oneshot|numeric-repeat|fleet-watch|fleet-search} -seed N -seconds S -trace {0|1}\n")
		return 2
	}
	// A hung request or reference must not keep the command past its time
	// limit: give up without a result.
	watchdog := time.AfterFunc(maxRun, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no result after %v, giving up\n", w.name, maxRun)
		os.Exit(1)
	})
	defer watchdog.Stop()
	if err := bench(w, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	return 0
}

// errWrong marks a run that completed but served wrong results: the result
// line is printed, and the command still fails.
type errWrong int

func (e errWrong) Error() string { return fmt.Sprintf("%d wrong results", int(e)) }

func bench(w *workload, seed int64, seconds int, traced bool) error {
	in := w.gen(seed, seconds)
	if err := selfTest(w, in); err != nil {
		return fmt.Errorf("self-test: %w", err)
	}
	reqs, err := newArena()
	if err != nil {
		return err
	}
	if err := in.releaseDocs(reqs); err != nil {
		return err
	}
	v := newVerifier(in)
	if in.states != nil || w.name == "fleet-search" {
		// Small, fixed input sets: reference them before anything is timed.
		all := make([]int, len(in.items))
		for i := range all {
			all[i] = i
		}
		v.prepare(all)
	}

	scratch, err := filepath.Abs(filepath.Join(".bench_build", "run", fmt.Sprintf("%s-%d-%d", w.name, seed, os.Getpid())))
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	var setups []float64
	var t *topo
	for i := 0; i < setupReps; i++ {
		runtime.GC() // input generation's garbage is not set-up work
		tp, d, err := startTopo(w, in, filepath.Join(scratch, fmt.Sprintf("state-%d", i)))
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
		if i < setupReps-1 {
			tp.close()
		} else {
			t = tp
		}
	}
	defer t.close()

	r := &runner{w: w, in: in, t: t, v: v, seed: seed}
	for c := 0; c < w.clients; c++ {
		a, err := newArena()
		if err != nil {
			return err
		}
		r.arenas = append(r.arenas, a)
	}
	d := time.Duration(seconds) * time.Second
	// An untimed warm-up first, so the measured windows see filled caches
	// and open connections (numeric-repeat's working set, above all).
	warm, err := r.runWindow(warmUp, nil)
	if err != nil {
		return err
	}
	plain, err := r.runWindow(d, nil)
	if err != nil {
		return err
	}
	if len(plain.ops) == 0 {
		return fmt.Errorf("no operation completed in the %v window", d)
	}
	var tr *tracer
	var tracedWin *window
	if traced {
		tr = newTracer(d)
		if tracedWin, err = r.runWindow(d, tr); err != nil {
			return err
		}
	}

	out := &report{w: w}
	for _, win := range []*window{warm, plain, tracedWin} {
		if win != nil {
			out.verify(r, win)
		}
	}
	res := result{Correct: out.wrong == 0, Attempted: out.attempted, Failed: out.fails.total, Metrics: map[string]metric{}}
	if traced {
		lp, err := r.layerPass(tr, plain, tracedWin)
		if err != nil {
			return fmt.Errorf("layer pass: %w", err)
		}
		res.Metrics = lp
		if err := tr.write(filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))); err != nil {
			return err
		}
	}

	e2e := out.endToEnd(plain, median(setups))
	plainOps := len(plain.ops)
	first := int(plain.ops[0].k)
	out.repeatShare = in.repeatShare(first, first+plainOps)
	// Release the benchmark's own buffers so heap_inuse_mb is what the
	// servers retain.
	in.items, warm, plain, tracedWin, v.refs = nil, nil, nil, nil, nil
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e2e["heap_inuse_mb"] = metric{float64(ms.HeapInuse) / (1 << 20), "MB"}
	if !traced {
		res.Metrics = e2e
	}

	out.print(e2e, res.Metrics, plainOps, traced)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if out.wrong > 0 {
		return errWrong(out.wrong)
	}
	if plainOps < minOps {
		fmt.Fprintf(os.Stderr, "perfbench: %s: warning: only %d operations in the window (want >= %d)\n", w.name, plainOps, minOps)
	}
	return nil
}

// report accumulates the verification outcome of the timed windows.
type report struct {
	w             *workload
	attempted     int
	fails         failures
	wrong         int
	wrongExamples []string
	repeatShare   float64
}

// verify checks every op of a window: failures are classified, successful
// responses compared with the reference (and, for fleet-watch, with the SSE
// frame the subscriber received).
func (rp *report) verify(r *runner, win *window) {
	var items []int
	for i := range win.ops {
		items = append(items, int(win.ops[i].item))
	}
	r.v.prepare(items)
	for i := range win.ops {
		o := &win.ops[i]
		rp.attempted++
		if kind := classify(o); kind != "" {
			rp.fails.add(kind)
			continue
		}
		if r.t.sub != nil {
			if msg := checkFrame(r.t.sub, o.body); msg == "missing" {
				rp.fails.add("sse-missing-frame")
				continue
			} else if msg != "" {
				rp.addWrong(o, "sse frame: "+msg)
				continue
			}
		}
		if msg := r.v.check(o); msg != "" {
			rp.addWrong(o, msg)
		}
	}
}

func (rp *report) addWrong(o *op, msg string) {
	rp.wrong++
	if len(rp.wrongExamples) < 5 {
		rp.wrongExamples = append(rp.wrongExamples, fmt.Sprintf("op %d (input %d): %s", o.k, o.item, msg))
	}
}

// endToEnd computes the metrics a caller sees from the untraced window.
// Every one is a median over the window's sub-windows (ops attributed to
// the sub-window they completed in), p99 too: a burst of outside load (a
// slow fsync on a shared disk, a neighbour's CPU spike) fills the tail of
// the sub-window it lands in, and over the whole window it would set the
// p99 of the run.
func (rp *report) endToEnd(win *window, setup float64) map[string]metric {
	var tput, p50, p99, cpu, allocs, bytes []float64
	for i := 0; i+1 < len(win.marks); i++ {
		a, b := win.marks[i], win.marks[i+1]
		var lat []float64
		for _, o := range win.ops {
			if o.done > a.at && o.done <= b.at {
				lat = append(lat, float64(o.lat)/1e6)
			}
		}
		if len(lat) == 0 {
			continue
		}
		n := float64(len(lat))
		sort.Float64s(lat)
		tput = append(tput, n/(b.at-a.at).Seconds())
		p50 = append(p50, percentile(lat, 0.50))
		p99 = append(p99, percentile(lat, 0.99))
		cpu = append(cpu, float64(b.cpu-a.cpu)/1e6/n)
		allocs = append(allocs, float64(b.mallocs-a.mallocs)/n)
		bytes = append(bytes, float64(b.bytes-a.bytes)/n)
	}
	return map[string]metric{
		"setup_s":            {setup, "s"},
		"throughput_ops_s":   {median(tput), "1/s"},
		"latency_p50_ms":     {median(p50), "ms"},
		"latency_p99_ms":     {median(p99), "ms"},
		"cpu_ms_per_op":      {median(cpu), "ms"},
		"allocs_per_op":      {median(allocs), "count"},
		"alloc_bytes_per_op": {median(bytes), "B"},
	}
}

// print writes the human-readable summary: every end-to-end metric by name
// and unit with the sample count, the failure breakdown, and (traced) every
// per-layer metric.
func (rp *report) print(e2e, layer map[string]metric, samples int, traced bool) {
	fmt.Printf("# workload %s\n", rp.w.name)
	fmt.Printf("samples %d count (timed window; %d ops verified in all)\n", samples, rp.attempted)
	errRate := 0.0
	if rp.attempted > 0 {
		errRate = float64(rp.fails.total) / float64(rp.attempted)
	}
	fmt.Printf("error_rate %.6g ratio (failures: %s)\n", errRate, rp.fails.String())
	fmt.Printf("wrong_results %d count\n", rp.wrong)
	for _, ex := range rp.wrongExamples {
		fmt.Printf("  wrong: %s\n", ex)
	}
	if rp.w.name == "numeric-repeat" {
		fmt.Printf("repeat_share %.4f ratio\n", rp.repeatShare)
	}
	printMetrics(e2e)
	if traced {
		fmt.Println("# per-layer (traced run)")
		printMetrics(layer)
	}
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%s %.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
