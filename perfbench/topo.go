package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"fepia/internal/cluster"
	"fepia/internal/server"
)

// node is one in-process HTTP listener on loopback.
type node struct {
	hs   *http.Server
	url  string
	done chan struct{}
}

func serve(h http.Handler) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(n.done)
		_ = n.hs.Serve(ln)
	}()
	return n, nil
}

func (n *node) close() {
	_ = n.hs.Close()
	<-n.done
}

// topo is one workload's serving topology: a single worker, or a
// coordinator (with a state dir) over fleetWorkers default workers.
type topo struct {
	client *http.Client

	workers []*server.Server
	wnodes  []*node
	coord   *cluster.Coordinator
	cnode   *node

	front        string       // URL the clients send to
	frontHandler http.Handler // the same front end, in process (traced samples)

	sub *subscriber // fleet-watch's SSE reader
}

const fleetWorkers = 3

// watchEventCap bounds the coordinator's per-watch event journal, which is
// rewritten whole into the state dir on every update. At the default (1024)
// that rewrite grows through the whole timed window and throughput decays
// with it; a 64-event resume window reaches its steady state within the
// first second, so a run measures one stationary cost.
const watchEventCap = 64

func newClient(conns int) *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = conns
	t.DisableCompression = true
	return &http.Client{Transport: t, Timeout: opTimeout}
}

// opTimeout is the client timeout of one operation.
const opTimeout = 30 * time.Second

// startTopo builds the servers, waits until every front answers /readyz,
// and for fleet-watch opens the watch and waits for its snapshot frame.
// The returned duration is the set-up time: construction to ready.
func startTopo(w *workload, in *inputs, stateDir string) (*topo, time.Duration, error) {
	t := &topo{client: newClient(w.clients + 2)}
	start := time.Now()
	if err := t.build(w, stateDir); err != nil {
		t.close()
		return nil, 0, err
	}
	if w.name == "fleet-watch" {
		sub, err := openWatch(t.client, t.front, watchID, in.states[0])
		if err != nil {
			t.close()
			return nil, 0, fmt.Errorf("opening watch: %w", err)
		}
		t.sub = sub
	}
	return t, time.Since(start), nil
}

func (t *topo) build(w *workload, stateDir string) error {
	nw := 1
	if w.fleet {
		nw = fleetWorkers
	}
	for i := 0; i < nw; i++ {
		s := server.New(w.worker)
		n, err := serve(s.Handler())
		if err != nil {
			return err
		}
		t.workers = append(t.workers, s)
		t.wnodes = append(t.wnodes, n)
	}
	t.front, t.frontHandler = t.wnodes[0].url, t.workers[0].Handler()
	if w.fleet {
		urls := make([]string, nw)
		for i, n := range t.wnodes {
			urls[i] = n.url
		}
		c, err := cluster.New(cluster.Config{Workers: urls, StateDir: stateDir, WatchEventCap: watchEventCap})
		if err != nil {
			return err
		}
		t.coord = c
		n, err := serve(c.Handler())
		if err != nil {
			return err
		}
		t.cnode = n
		t.front, t.frontHandler = n.url, c.Handler()
	}
	for _, n := range t.wnodes {
		if err := waitReady(t.client, n.url); err != nil {
			return err
		}
	}
	if t.cnode != nil {
		return waitReady(t.client, t.cnode.url)
	}
	return nil
}

func waitReady(c *http.Client, url string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Get(url + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 10s (last error %v)", url, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops the subscriber, the coordinator and the workers, and waits
// for every goroutine they started.
func (t *topo) close() {
	if t.sub != nil {
		t.sub.stop()
	}
	if t.cnode != nil {
		t.cnode.close()
	}
	if t.coord != nil {
		t.coord.Close()
	}
	for i, n := range t.wnodes {
		n.close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = t.workers[i].Drain(ctx)
		cancel()
	}
	t.client.CloseIdleConnections()
}

// statz snapshots the workers' and the coordinator's counters.
type statz struct {
	workers []server.Statz
	coord   *cluster.Statz
}

func (t *topo) statz() (statz, error) {
	var st statz
	for _, n := range t.wnodes {
		var s server.Statz
		if err := getJSON(t.client, n.url+"/statz", &s); err != nil {
			return st, err
		}
		st.workers = append(st.workers, s)
	}
	if t.cnode != nil {
		st.coord = &cluster.Statz{}
		if err := getJSON(t.client, t.cnode.url+"/statz", st.coord); err != nil {
			return st, err
		}
	}
	return st, nil
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// frame is one SSE event as received.
type frame struct {
	seq   uint64
	event string
	data  []byte
}

// subscriber reads one watch's SSE stream into memory.
type subscriber struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu     sync.Mutex
	frames map[uint64]frame
}

// openWatch creates watch id on front with doc and returns once the
// snapshot frame has arrived; the stream keeps being read until stop.
func openWatch(c *http.Client, front, id string, doc any) (*subscriber, error) {
	body, err := json.Marshal(map[string]any{"id": id, "scenario": doc})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, front+"/v1/watch", bytes.NewReader(body))
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	// The stream outlives any client timeout; a dedicated client without one.
	resp, err := (&http.Client{Transport: c.Transport}).Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("POST /v1/watch: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	s := &subscriber{cancel: cancel, done: make(chan struct{}), frames: make(map[uint64]frame)}
	first := make(chan error, 1)
	go s.read(resp.Body, first)
	select {
	case err := <-first:
		if err != nil {
			s.stop()
			return nil, err
		}
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, errors.New("no snapshot frame within 30s")
	}
	return s, nil
}

func (s *subscriber) read(body io.ReadCloser, first chan<- error) {
	defer close(s.done)
	defer body.Close()
	br := bufio.NewReader(body)
	var cur frame
	got := false
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			if !got {
				first <- fmt.Errorf("stream ended before the snapshot frame: %w", err)
			}
			return
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			s.mu.Lock()
			s.frames[cur.seq] = cur
			s.mu.Unlock()
			if !got {
				got = true
				first <- nil
			}
			cur = frame{}
		case strings.HasPrefix(line, "id: "):
			cur.seq, _ = strconv.ParseUint(line[4:], 10, 64)
		case strings.HasPrefix(line, "event: "):
			cur.event = line[7:]
		case strings.HasPrefix(line, "data: "):
			cur.data = []byte(line[6:])
		}
	}
}

func (s *subscriber) frame(seq uint64) (frame, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.frames[seq]
	return f, ok
}

func (s *subscriber) stop() {
	s.cancel()
	<-s.done
}
