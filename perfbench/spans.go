package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gps/internal/obs"
)

// A span brackets one call into a layer's public function, timed from the
// benchmark's side of the call. Spans are kept in memory and written once
// at the end of a traced run; nothing inside the program is instrumented.
type span struct {
	name   string // "layer.function"
	start  int64  // ns since the recorder's epoch, strictly monotone
	end    int64
	parent int    // index of the enclosing span, -1 for a root
	track  uint64 // one track per task or job; spans on a track nest
	id     string // cell or job id shared by every span of one cell or job
}

// layer is the module a span belongs to: the part of its name before the
// first dot.
func (s *span) layer() string {
	l, _, _ := strings.Cut(s.name, ".")
	return l
}

// recorder collects spans from concurrent tasks. A nil recorder records
// nothing, so untraced passes run the same code with one nil check per call.
type recorder struct {
	epoch  time.Time
	lastNs atomic.Int64
	tracks atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// now is a strictly monotone nanosecond clock, so no two span boundaries
// share a timestamp and B/E events order unambiguously in the trace file.
func (r *recorder) now() int64 {
	t := time.Since(r.epoch).Nanoseconds()
	for {
		last := r.lastNs.Load()
		if t <= last {
			t = last + 1
		}
		if r.lastNs.CompareAndSwap(last, t) {
			return t
		}
	}
}

// task is the span context of one unit of work: a pool task or a client
// job. Its spans share one track and one id.
type task struct {
	rec   *recorder
	track uint64
	id    string
	open  []int // stack of open span indexes
}

// newTask opens a root span on a fresh track. With a nil recorder it
// returns a nil task whose methods do nothing.
func (r *recorder) newTask(name, id string) *task {
	if r == nil {
		return nil
	}
	t := &task{rec: r, track: r.tracks.Add(1), id: id}
	t.begin(name)
	return t
}

func (t *task) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	start := t.rec.now()
	t.rec.mu.Lock()
	t.rec.spans = append(t.rec.spans, span{name: name, start: start, parent: parent, track: t.track, id: t.id})
	idx := len(t.rec.spans) - 1
	t.rec.mu.Unlock()
	t.open = append(t.open, idx)
}

// end closes the innermost open span.
func (t *task) end() {
	if t == nil {
		return
	}
	idx := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	end := t.rec.now()
	t.rec.mu.Lock()
	t.rec.spans[idx].end = end
	t.rec.mu.Unlock()
}

// do runs fn inside a child span named name.
func (t *task) do(name string, fn func()) {
	t.begin(name)
	fn()
	t.end()
}

// finish closes the root span; every child must already be closed.
func (t *task) finish() {
	if t == nil {
		return
	}
	if len(t.open) != 1 {
		panic(fmt.Sprintf("perfbench: task %s finished with %d open spans", t.id, len(t.open)))
	}
	t.end()
}

// selfTimes returns each span's duration minus the part of it covered by
// its children. Children of one span sit on the parent's track and never
// overlap each other, so the covered part is the sum of their durations.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i := range spans {
		self[i] += spans[i].end - spans[i].start
		if p := spans[i].parent; p >= 0 {
			self[p] -= spans[i].end - spans[i].start
		}
	}
	return self
}

// layerTimes aggregates self time per layer for the spans selected by keep.
// Root spans count under unattributed instead of their layer: a root's self
// time is task time no layer call covers.
type layerTimes struct {
	self         map[string]float64 // seconds by layer
	byName       map[string]float64 // seconds by span name
	calls        map[string]int     // span count by name
	maxCall      map[string]float64 // longest span by name, seconds
	unattributed float64
	rootTotal    float64 // summed root durations
}

func aggregate(spans []span, keep func(root *span) bool) layerTimes {
	self := selfTimes(spans)
	lt := layerTimes{
		self: map[string]float64{}, byName: map[string]float64{},
		calls: map[string]int{}, maxCall: map[string]float64{},
	}
	rootOf := make([]int, len(spans))
	for i := range spans {
		// parents are appended before their children
		if p := spans[i].parent; p >= 0 {
			rootOf[i] = rootOf[p]
		} else {
			rootOf[i] = i
		}
		if keep != nil && !keep(&spans[rootOf[i]]) {
			continue
		}
		s := float64(self[i]) / 1e9
		dur := float64(spans[i].end-spans[i].start) / 1e9
		if spans[i].parent < 0 {
			lt.unattributed += s
			lt.rootTotal += dur
			continue
		}
		lt.self[spans[i].layer()] += s
		lt.byName[spans[i].name] += s
		lt.calls[spans[i].name]++
		if dur > lt.maxCall[spans[i].name] {
			lt.maxCall[spans[i].name] = dur
		}
	}
	return lt
}

// layerSum is the summed self time of every layer (unattributed excluded).
func (lt layerTimes) layerSum() float64 {
	var sum float64
	for _, v := range lt.self {
		sum += v
	}
	return sum
}

// shares renders each layer's share of the summed layer self time.
func (lt layerTimes) shares() map[string]float64 {
	total := lt.layerSum()
	out := map[string]float64{}
	for k, v := range lt.self {
		if total > 0 {
			out[k] = v / total
		}
	}
	return out
}

// writePerfetto writes the spans as a Chrome trace-event JSON array (B/E
// pairs, one tid per track) and checks the file with obs.ValidateTrace,
// the validator tracelint uses.
func writePerfetto(path string, spans []span) error {
	type event struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Pid  int               `json:"pid"`
		Tid  uint64            `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	events := make([]event, 0, 2*len(spans))
	for _, s := range spans {
		cat := s.layer()
		events = append(events,
			event{Name: s.name, Cat: cat, Ph: "B", Ts: float64(s.start) / 1e3, Pid: 1, Tid: s.track, Args: map[string]string{"id": s.id}},
			event{Name: s.name, Cat: cat, Ph: "E", Ts: float64(s.end) / 1e3, Pid: 1, Tid: s.track})
	}
	sort.SliceStable(events, func(a, b int) bool { return events[a].Ts < events[b].Ts })
	data, err := json.Marshal(events)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if _, err := obs.ValidateTrace(data); err != nil {
		return fmt.Errorf("span trace invalid: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
