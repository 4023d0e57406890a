package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"fepia/internal/core"
	"fepia/internal/durable"
	"fepia/internal/scenario"
	"fepia/internal/vec"
)

// Watch checkpoint store: one file per live watch under
// <state-dir>/watches, rewritten after every accepted update, so a SIGKILL
// between updates loses nothing — the restarted daemon reloads the watch's
// current document, its per-feature radii (bit-exact), and its rendered
// event journal, and a client resuming the subscription replays the exact
// bytes it would have received from the uninterrupted stream. Same
// durability discipline as the search checkpoints (internal/durable):
// atomic writes, checksummed payloads, quarantine-not-fatal reads.

const (
	watchKind    = "fepia-watch"
	watchVersion = 1
	watchSuffix  = ".watch.json"
)

// ErrNoWatch reports a watch id with no loadable checkpoint. Mapped to
// HTTP 404 kind "watch-not-found".
var ErrNoWatch = errors.New("server: no checkpoint for watch id")

// watchEnvelope is the on-disk shape of one watch file.
type watchEnvelope struct {
	Kind     string          `json:"kind"`
	Version  int             `json:"version"`
	ID       string          `json:"id"`
	Checksum string          `json:"checksum"`
	Payload  json.RawMessage `json:"payload"`
}

// radiusWire is a bit-exact serialization of one core.Radius: Value and
// Point coordinates are stored as IEEE-754 bit patterns (Value can be +Inf,
// which JSON numbers cannot carry, and resumed delta evaluations splice
// these radii back verbatim — any rounding would break the bit-identity
// contract).
type radiusWire struct {
	Value    uint64   `json:"value"`
	Point    []uint64 `json:"point,omitempty"`
	Side     int      `json:"side"`
	Feature  int      `json:"feature"`
	Param    int      `json:"param"`
	Analytic bool     `json:"analytic,omitempty"`
	Degraded bool     `json:"degraded,omitempty"`
}

func radiusToWire(r core.Radius) radiusWire {
	w := radiusWire{
		Value:    math.Float64bits(r.Value),
		Side:     int(r.Side),
		Feature:  r.Feature,
		Param:    r.Param,
		Analytic: r.Analytic,
		Degraded: r.Degraded,
	}
	if r.Point != nil {
		w.Point = make([]uint64, len(r.Point))
		for i, v := range r.Point {
			w.Point[i] = math.Float64bits(v)
		}
	}
	return w
}

func radiusFromWire(w radiusWire) core.Radius {
	r := core.Radius{
		Value:    math.Float64frombits(w.Value),
		Side:     core.BoundarySide(w.Side),
		Feature:  w.Feature,
		Param:    w.Param,
		Analytic: w.Analytic,
		Degraded: w.Degraded,
	}
	if w.Point != nil {
		r.Point = make(vec.V, len(w.Point))
		for i, b := range w.Point {
			r.Point[i] = math.Float64frombits(b)
		}
	}
	return r
}

// WatchEventRec is one rendered event of a watch's journal: the exact SSE
// payload bytes sent to subscribers, kept so a resumed subscription replays
// them byte-identically.
type WatchEventRec struct {
	Seq  uint64          `json:"seq"`
	Type string          `json:"type"` // "snapshot" or "delta"
	Data json.RawMessage `json:"data"`
}

// WatchPayload is what a watch checkpoint carries: enough to resume both
// halves of the subsystem — the delta chain (current document + prior
// radii, bit-exact) and the subscription stream (the rendered journal).
type WatchPayload struct {
	ID        string `json:"id"`
	Tenant    string `json:"tenant,omitempty"`
	Weighting string `json:"weighting"`
	// AncestorFP is the fingerprint of the watch's original document; the
	// warm-start registry for the whole update chain is keyed by it (every
	// update produces a new fingerprint, but the chain shares one registry).
	AncestorFP string               `json:"ancestorFp,omitempty"`
	Doc        scenario.AnalysisDoc `json:"doc"`
	Seq        uint64               `json:"seq"`
	Radii      []radiusWire         `json:"radii"`
	Events     []WatchEventRec      `json:"events"`
}

// WatchStoreStats are the watch store's monotonic counters.
type WatchStoreStats struct {
	Saves          uint64 `json:"saves"`
	SaveErrors     uint64 `json:"saveErrors"`
	Loaded         uint64 `json:"loaded"`
	CorruptSkipped uint64 `json:"corruptSkipped"`
	Deletes        uint64 `json:"deletes"`
}

// watchStore persists watch checkpoints in a directory. All methods are
// safe for concurrent use.
type watchStore struct {
	dir string

	mu    sync.Mutex
	stats WatchStoreStats
}

func openWatchStore(dir string) (*watchStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("server: watch store dir is empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: opening watch store: %w", err)
	}
	return &watchStore{dir: dir}, nil
}

func (ws *watchStore) Stats() WatchStoreStats {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.stats
}

// path names id's file by a hash of the id, so client-chosen watch ids
// never become path components.
func (ws *watchStore) path(id string) string {
	h := fnv.New64a()
	h.Write([]byte(id))
	return filepath.Join(ws.dir, strconv.FormatUint(h.Sum64(), 16)+watchSuffix)
}

// Save atomically replaces id's checkpoint.
func (ws *watchStore) Save(p WatchPayload) error {
	raw, err := json.Marshal(p)
	if err != nil {
		ws.countSaveErr()
		return fmt.Errorf("server: watch checkpoint save: %w", err)
	}
	env := watchEnvelope{
		Kind:     watchKind,
		Version:  watchVersion,
		ID:       p.ID,
		Checksum: durable.Checksum(raw),
		Payload:  raw,
	}
	data, err := json.Marshal(env)
	if err != nil {
		ws.countSaveErr()
		return fmt.Errorf("server: watch checkpoint save: %w", err)
	}
	if err := durable.WriteFileAtomic(ws.path(p.ID), data, ".watch-*"); err != nil {
		ws.countSaveErr()
		return fmt.Errorf("server: watch checkpoint save: %w", err)
	}
	ws.mu.Lock()
	ws.stats.Saves++
	ws.mu.Unlock()
	return nil
}

func (ws *watchStore) countSaveErr() {
	ws.mu.Lock()
	ws.stats.SaveErrors++
	ws.mu.Unlock()
}

// decodeWatch verifies one watch file end to end.
func decodeWatch(data []byte) (WatchPayload, error) {
	var env watchEnvelope
	var p WatchPayload
	if err := json.Unmarshal(data, &env); err != nil {
		return p, fmt.Errorf("server: watch file: %w", err)
	}
	if env.Kind != watchKind || env.Version != watchVersion {
		return p, fmt.Errorf("server: watch file kind/version %q/%d, want %q/%d", env.Kind, env.Version, watchKind, watchVersion)
	}
	if got := durable.Checksum(env.Payload); got != env.Checksum {
		return p, fmt.Errorf("server: watch file checksum %s, recorded %s", got, env.Checksum)
	}
	if err := json.Unmarshal(env.Payload, &p); err != nil {
		return p, fmt.Errorf("server: watch payload: %w", err)
	}
	if p.ID != env.ID {
		return p, fmt.Errorf("server: watch payload id %q under envelope id %q", p.ID, env.ID)
	}
	return p, nil
}

// Load retrieves id's checkpoint. A missing file returns ErrNoWatch; a
// corrupt one is quarantined (removed, counted) and reported as ErrNoWatch
// too.
func (ws *watchStore) Load(id string) (WatchPayload, error) {
	path := ws.path(id)
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return WatchPayload{}, fmt.Errorf("%w: %q", ErrNoWatch, id)
		}
		return WatchPayload{}, fmt.Errorf("server: watch load: %w", err)
	}
	p, err := decodeWatch(data)
	if err == nil && p.ID != id {
		err = fmt.Errorf("server: watch file for id %q found under %q's name", p.ID, id)
	}
	if err != nil {
		ws.quarantine(path)
		return WatchPayload{}, fmt.Errorf("%w: %q (%v)", ErrNoWatch, id, err)
	}
	ws.mu.Lock()
	ws.stats.Loaded++
	ws.mu.Unlock()
	return p, nil
}

// Delete removes id's checkpoint (a closed watch needs no resume).
func (ws *watchStore) Delete(id string) {
	if err := os.Remove(ws.path(id)); err != nil {
		return
	}
	ws.mu.Lock()
	ws.stats.Deletes++
	ws.mu.Unlock()
}

// quarantine removes a file Load refused, best-effort, and counts it.
func (ws *watchStore) quarantine(path string) {
	_ = os.Remove(path)
	ws.mu.Lock()
	ws.stats.CorruptSkipped++
	ws.mu.Unlock()
}

// List returns the ids of every intact checkpoint, sorted, for /statz.
// Corrupt files are quarantined and skipped, never fatal.
func (ws *watchStore) List() []string {
	entries, err := os.ReadDir(ws.dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), watchSuffix) {
			continue
		}
		path := filepath.Join(ws.dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			ws.quarantine(path)
			continue
		}
		p, err := decodeWatch(data)
		if err != nil {
			ws.quarantine(path)
			continue
		}
		out = append(out, p.ID)
	}
	sort.Strings(out)
	return out
}
