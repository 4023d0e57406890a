package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// op is one closed-loop operation as the client saw it. Response bodies are
// kept raw, in the client's arena, and parsed only after the timed window.
// Ops live off the Go heap, so an op holds no heap pointers.
type op struct {
	k          int64 // global op index (input = seq[k%len(seq)])
	item       int32
	status     int32
	lat        time.Duration
	done       time.Duration // completion, since the window started
	body       []byte        // in the client's arena
	retryAfter int32         // Retry-After seconds, -1 when absent
	fail       uint8         // failTransport or failTimeout when no response arrived
	sampled    bool          // served in process through the front handler (traced)
}

const (
	failTransport = 1 + iota
	failTimeout
)

// window is one timed closed-loop run and its resource deltas.
type window struct {
	ops     []op
	wall    time.Duration
	marks   []mark // resource counters at the subWindows+1 sub-window edges
	numGC   uint32
	pauseNs uint64
	written int64 // storage bytes written by the process (/proc/self/io)
	before  statz
	after   statz
}

// subWindows splits a timed window for the median-of-sub-windows metrics:
// a burst of outside load moves one sub-window, not the median.
const subWindows = 10

// mark is the process's resource counters at one instant of a window.
type mark struct {
	at      time.Duration
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func takeMark(start time.Time) mark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return mark{at: time.Since(start), cpu: cpuTime(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// runner drives one topology; the op counter runs on across windows so the
// input sequence (and fleet-watch's state chain) continues.
type runner struct {
	w      *workload
	in     *inputs
	t      *topo
	v      *verifier
	seed   int64
	arenas []*arena // one per client, for response bodies
	next   atomic.Int64
}

// maxOpsPerSecond bounds one client's op rate, sizing its op buffer.
const maxOpsPerSecond = 20000

// runWindow runs w.clients closed-loop clients for d. With tr non-nil every
// op gets a root span and every sampleEvery-th op is served in process
// through the front handler, followed by its layer replays.
func (r *runner) runWindow(d time.Duration, tr *tracer) (*window, error) {
	win := &window{}
	var err error
	if win.before, err = r.t.statz(); err != nil {
		return nil, err
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	wr0 := writtenBytes()
	start := time.Now()
	end := start.Add(d)
	win.marks = []mark{takeMark(start)}

	perClient := make([][]op, r.w.clients)
	for c := range perClient {
		if perClient[c], err = offHeap[op](maxOpsPerSecond * int(d/time.Second+1)); err != nil {
			return nil, err
		}
	}
	errs := make([]error, r.w.clients)
	var wg sync.WaitGroup
	for c := 0; c < r.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var cs *clientSpans
			if tr != nil {
				if cs, errs[c] = tr.client(); errs[c] != nil {
					return
				}
			}
			for time.Now().Before(end) {
				if len(perClient[c]) == cap(perClient[c]) {
					errs[c] = errors.New("op buffer full")
					return
				}
				o, err := r.do(cs, r.arenas[c])
				if err != nil {
					errs[c] = err
					return
				}
				o.done = time.Since(start)
				perClient[c] = append(perClient[c], o)
			}
		}(c)
	}
	for i := 1; i < subWindows; i++ {
		time.Sleep(time.Until(start.Add(d * time.Duration(i) / subWindows)))
		win.marks = append(win.marks, takeMark(start))
	}
	wg.Wait()
	win.marks = append(win.marks, takeMark(start))
	win.wall = time.Since(start)
	win.written = writtenBytes() - wr0
	runtime.ReadMemStats(&ms1)
	win.numGC = ms1.NumGC - ms0.NumGC
	win.pauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	total := 0
	for c, ops := range perClient {
		if errs[c] != nil {
			return nil, fmt.Errorf("client %d: %w", c, errs[c])
		}
		total += len(ops)
	}
	if win.ops, err = offHeap[op](total); err != nil {
		return nil, err
	}
	for _, ops := range perClient {
		win.ops = append(win.ops, ops...)
	}
	sort.Slice(win.ops, func(i, j int) bool { return win.ops[i].k < win.ops[j].k })
	if win.after, err = r.t.statz(); err != nil {
		return nil, err
	}
	return win, nil
}

// do sends the next input, over loopback or — for traced samples — through
// the front handler in process. The response body goes to the arena; an
// error means the arena is full.
func (r *runner) do(cs *clientSpans, a *arena) (op, error) {
	k := r.next.Add(1) - 1
	item := r.in.seq[k%int64(len(r.in.seq))]
	it := &r.in.items[item]
	o := op{k: k, item: item, retryAfter: -1}
	if cs != nil && k%sampleEvery == 0 {
		o.sampled = true
		root := cs.begin("op", -1, k)
		h := cs.begin("server.handler", root, k)
		req := httptest.NewRequest(http.MethodPost, it.path, bytes.NewReader(it.body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		st := time.Now()
		r.t.frontHandler.ServeHTTP(rec, req)
		o.lat = time.Since(st)
		cs.end(h)
		o.status = int32(rec.Code)
		o.retryAfter = retryAfter(rec.Header())
		replay(cs, root, h, k, r, it)
		cs.end(root)
		var err error
		o.body, err = a.add(rec.Body.Bytes())
		return o, err
	}
	var root int32 = -1
	if cs != nil {
		root = cs.begin("op", -1, k)
	}
	defer func() {
		if cs != nil {
			cs.end(root)
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.t.front+it.path, bytes.NewReader(it.body))
	if err != nil {
		o.fail = failTransport
		return o, nil
	}
	req.Header.Set("Content-Type", "application/json")
	st := time.Now()
	resp, err := r.t.client.Do(req)
	if err == nil {
		o.status = int32(resp.StatusCode)
		o.retryAfter = retryAfter(resp.Header)
		o.body, err = a.readFrom(resp.Body)
		resp.Body.Close()
		if errors.Is(err, errArenaFull) {
			return o, err
		}
	}
	o.lat = time.Since(st)
	switch {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded) || strings.Contains(err.Error(), "Client.Timeout"):
		o.fail = failTimeout
	default:
		o.fail = failTransport
	}
	return o, nil
}

func retryAfter(h http.Header) int32 {
	v, err := strconv.Atoi(h.Get("Retry-After"))
	if err != nil {
		return -1
	}
	return int32(v)
}

// failures is the one place every failed operation is classified: non-200
// responses by status and kind (429 with its Retry-After), transport
// errors, client timeouts, and watch updates whose SSE frame never arrived.
type failures struct {
	byKind map[string]int
	total  int
}

func (f *failures) add(kind string) {
	if f.byKind == nil {
		f.byKind = make(map[string]int)
	}
	f.byKind[kind]++
	f.total++
}

// classify returns the failure kind of o, or "" when it succeeded at the
// transport and HTTP level.
func classify(o *op) string {
	switch {
	case o.fail == failTimeout:
		return "client-timeout"
	case o.fail == failTransport:
		return "transport"
	case o.status == http.StatusOK:
		return ""
	}
	var er struct {
		Kind string `json:"kind"`
	}
	_ = json.Unmarshal(o.body, &er)
	kind := fmt.Sprintf("http-%d", o.status)
	if er.Kind != "" {
		kind += ":" + er.Kind
	}
	if o.status == http.StatusTooManyRequests {
		kind += fmt.Sprintf(" (retry-after %ds)", o.retryAfter)
	}
	return kind
}

func (f *failures) String() string {
	if f.total == 0 {
		return "none"
	}
	var parts []string
	for k, n := range f.byKind {
		parts = append(parts, k+"="+strconv.Itoa(n))
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// writtenBytes is the process's write_bytes from /proc/self/io: bytes it
// caused to be sent to storage (page granular). -1 entries read as 0.
func writtenBytes() int64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "write_bytes: "); ok {
			n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			return n
		}
	}
	return 0
}

// percentile is the nearest-rank p-quantile (0 < p ≤ 1) of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*p+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
