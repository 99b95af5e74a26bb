package obs

import (
	"context"
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The span tracer records wall-clock spans into the Chrome trace-event JSON
// format (a flat array of B/E duration events), which Perfetto and
// chrome://tracing load directly. Spans carry a category — "job", "figure",
// "cell", "phase", "engine-phase" — and nest cell ⊂ figure ⊂ job by wall
// time; concurrent spans (matrix cells) get their own track (tid) from a
// small free-list so same-track events always nest strictly.
//
// Spans reach the tracer through a context: WithTracer installs it,
// StartSpan consults it. With no tracer installed StartSpan is one context
// lookup and returns a nil *Span whose End is a no-op — the production
// price of the instrumentation.

// Span categories used across the repo. Validation and the trace checker
// key on these.
const (
	CatJob         = "job"
	CatFigure      = "figure"
	CatCell        = "cell"
	CatPhase       = "phase"
	CatEnginePhase = "engine-phase"
)

// event is one trace-event JSON object. Ts is fractional microseconds
// since tracer start: the underlying clock ticks in strictly monotone
// nanoseconds (see Tracer.now), so no two events share a timestamp and B/E
// ordering is unambiguous for validation.
type event struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"` // microseconds since tracer start
	Pid  int               `json:"pid"`
	Tid  uint64            `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// Tracer buffers completed spans and flushes them to w as a growing JSON
// array from a background goroutine. The flusher is bound to the context
// given to NewTracer: when that context is canceled (a gpsd drain deadline,
// a gpsbench SIGINT) it finalizes the file and exits, so an abandoned
// tracer never leaks its goroutine, and the file on disk is valid JSON
// after every flush boundary.
type Tracer struct {
	mu      sync.Mutex
	w       io.Writer
	pid     int // trace-event pid; node-derived via SetProcess, default 1
	start   time.Time
	lastNs  atomic.Int64 // strictly monotone event clock, nanoseconds
	pending []event
	wrote   bool // at least one event emitted (comma state)
	closed  bool
	err     error

	free []uint64 // returned track ids, reused lowest-last
	next uint64   // next brand-new track id

	wake chan struct{}
	quit chan struct{}
	done chan struct{}
}

// flushEvery bounds how stale the on-disk trace can be while a run is in
// flight.
const flushEvery = 250 * time.Millisecond

// NewTracer starts a tracer writing to w. Callers must Close it to emit
// the closing bracket; if ctx is canceled first the flusher finalizes on
// its way out and Close becomes a no-op.
func NewTracer(ctx context.Context, w io.Writer) *Tracer {
	t := &Tracer{
		w:     w,
		pid:   1,
		start: time.Now(),
		next:  1,
		wake:  make(chan struct{}, 1),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go t.flushLoop(ctx)
	return t
}

// SetProcess tags all later events with a node-derived pid and queues
// Chrome process_name plus trace_start (wall-clock epoch) metadata, so that
// per-node trace files merge into one track-per-node cluster timeline.
// Call it right after NewTracer: events already queued keep their old pid.
func (t *Tracer) SetProcess(node string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	t.pid = nodePid(node)
	t.pending = append(t.pending,
		event{Name: "process_name", Ph: "M", Pid: t.pid,
			Args: map[string]string{"name": processName(node)}},
		event{Name: "trace_start", Ph: "M", Pid: t.pid,
			Args: map[string]string{"unix_us": strconv.FormatInt(t.start.UnixMicro(), 10)}},
	)
}

func (t *Tracer) flushLoop(ctx context.Context) {
	defer close(t.done)
	tick := time.NewTicker(flushEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			t.finalize()
			return
		case <-t.quit:
			return
		case <-tick.C:
			t.flushPending()
		case <-t.wake:
			t.flushPending()
		}
	}
}

// Close flushes everything, writes the closing bracket and stops the
// flusher. Idempotent, and safe after the flusher's context was canceled.
func (t *Tracer) Close() error {
	t.finalize()
	t.mu.Lock()
	select {
	case <-t.quit:
	default:
		close(t.quit)
	}
	t.mu.Unlock()
	<-t.done
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// finalize flushes pending events and terminates the JSON array.
func (t *Tracer) finalize() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	t.flushLocked()
	if !t.wrote {
		t.write([]byte("[\n"))
	}
	t.write([]byte("\n]\n"))
	t.closed = true
}

// flushPending writes buffered events under the lock.
func (t *Tracer) flushPending() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.closed {
		t.flushLocked()
	}
}

func (t *Tracer) flushLocked() {
	for i := range t.pending {
		data, err := json.Marshal(&t.pending[i])
		if err != nil { // cannot happen for this struct; keep the trace sane
			continue
		}
		switch {
		case !t.wrote:
			t.write([]byte("[\n"))
			t.wrote = true
		default:
			t.write([]byte(",\n"))
		}
		t.write(data)
	}
	t.pending = t.pending[:0]
}

// write appends to the underlying writer, keeping the first error.
func (t *Tracer) write(p []byte) {
	if t.err != nil {
		return
	}
	_, t.err = t.w.Write(p)
}

// now returns a strictly increasing nanosecond timestamp: concurrent calls
// never observe the same value, so every event in a trace has a distinct
// position and span validation never faces a tie.
func (t *Tracer) now() int64 {
	ns := time.Since(t.start).Nanoseconds()
	for {
		last := t.lastNs.Load()
		if ns <= last {
			ns = last + 1
		}
		if t.lastNs.CompareAndSwap(last, ns) {
			return ns
		}
	}
}

// micros renders a nanosecond clock reading as trace-event microseconds.
func micros(ns int64) float64 { return float64(ns) / 1e3 }

// allocTrack hands out a track id: the most recently freed one, or a fresh
// one. Reuse keeps the Perfetto track list as narrow as the real
// concurrency.
func (t *Tracer) allocTrack() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.free); n > 0 {
		id := t.free[n-1]
		t.free = t.free[:n-1]
		return id
	}
	id := t.next
	t.next++
	return id
}

func (t *Tracer) freeTrack(id uint64) {
	t.mu.Lock()
	t.free = append(t.free, id)
	t.mu.Unlock()
}

// Span is one in-flight duration. A nil *Span is valid and all methods are
// no-ops, so call sites never branch on whether tracing is enabled.
type Span struct {
	t         *Tracer
	name, cat string
	tid       uint64
	ownsTrack bool
	startTs   int64
	args      map[string]string
}

// span begins a span. newTrack forces a dedicated track (for spans that
// run concurrently with their siblings); otherwise the parent's track is
// inherited so serial children nest on one Perfetto row.
func (t *Tracer) span(parent *Span, cat, name string, newTrack bool, kv []string) *Span {
	s := &Span{t: t, name: name, cat: cat}
	switch {
	case newTrack || parent == nil:
		s.tid = t.allocTrack()
		s.ownsTrack = true
	default:
		s.tid = parent.tid
	}
	// Stamp the start only once the track is held: allocTrack may wait on
	// the tracer lock, and a reused track's previous span ends before it is
	// freed, so a later stamp keeps same-track spans strictly nested.
	s.startTs = t.now()
	if len(kv) > 0 {
		s.args = make(map[string]string, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			s.args[kv[i]] = kv[i+1]
		}
	}
	return s
}

// End closes the span, queueing its B/E event pair for the flusher. Safe on
// a nil span and after the tracer finalized (events are then dropped).
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.t
	end := t.now()
	t.mu.Lock()
	if !t.closed {
		t.pending = append(t.pending,
			event{Name: s.name, Cat: s.cat, Ph: "B", Ts: micros(s.startTs), Pid: t.pid, Tid: s.tid, Args: s.args},
			event{Name: s.name, Cat: s.cat, Ph: "E", Ts: micros(end), Pid: t.pid, Tid: s.tid},
		)
	}
	t.mu.Unlock()
	if s.ownsTrack {
		t.freeTrack(s.tid)
	}
	select {
	case t.wake <- struct{}{}:
	default:
	}
}

// tracerKey and spanKey carry the tracer and the current span in a context.
type tracerKey struct{}
type spanKey struct{}

// WithTracer returns a context whose spans record into t.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey{}, t)
}

// TracerFrom extracts the tracer installed by WithTracer, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}

// WithTraceContext installs a distributed trace position: spans started
// under the returned context stamp trace_id/span_id/parent_span_id args and
// advance the position, so nested spans chain into one parent/child tree
// that survives file merges (see ValidateClusterTraces).
func WithTraceContext(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, tc)
}

// TraceContextFrom extracts the current trace position, or the zero context.
func TraceContextFrom(ctx context.Context) TraceContext {
	tc, _ := ctx.Value(traceCtxKey{}).(TraceContext)
	return tc
}

// StartSpan begins a span on the current span's track (serial nesting) and
// returns a context carrying it as the parent of further spans. With no
// tracer installed it returns ctx unchanged and a nil span.
func StartSpan(ctx context.Context, cat, name string, kv ...string) (context.Context, *Span) {
	return startSpan(ctx, cat, name, "", false, kv)
}

// StartSpanTrack is StartSpan on a dedicated track, for spans that run
// concurrently with their siblings (matrix cells).
func StartSpanTrack(ctx context.Context, cat, name string, kv ...string) (context.Context, *Span) {
	return startSpan(ctx, cat, name, "", true, kv)
}

// StartSpanWithID is StartSpanTrack with a caller-chosen span ID — for job
// root spans whose span_id was minted at submit and persisted in the
// journal, so the span emitted at execution time (possibly on another node,
// after crash replay or adoption) matches the identity peers already
// linked against.
func StartSpanWithID(ctx context.Context, cat, name, spanID string, kv ...string) (context.Context, *Span) {
	return startSpan(ctx, cat, name, spanID, true, kv)
}

func startSpan(ctx context.Context, cat, name, spanID string, newTrack bool, kv []string) (context.Context, *Span) {
	t := TracerFrom(ctx)
	if t == nil {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanKey{}).(*Span)
	s := t.span(parent, cat, name, newTrack, kv)
	ctx = context.WithValue(ctx, spanKey{}, s)
	if tc := TraceContextFrom(ctx); tc.TraceID != "" {
		if spanID == "" {
			spanID = NewSpanID()
		}
		if s.args == nil {
			s.args = make(map[string]string, 3)
		}
		s.args["trace_id"] = tc.TraceID
		s.args["span_id"] = spanID
		if tc.SpanID != "" {
			s.args["parent_span_id"] = tc.SpanID
		}
		ctx = WithTraceContext(ctx, TraceContext{TraceID: tc.TraceID, SpanID: spanID})
	}
	return ctx, s
}
