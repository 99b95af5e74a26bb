package engine

import (
	"reflect"
	"testing"
	"time"

	"gps/internal/trace"
)

// recordingModel captures what the engine feeds a paradigm model, one
// entry per line and one per fence.
type recordingModel struct {
	phases    []int
	accesses  []recordedLine
	endPhases []int
	finished  bool
	profiles  []Profile
}

// recordedLine is one line a model saw; a fence has line 0.
type recordedLine struct {
	gpu   int
	op    trace.Op
	scope trace.Scope
	line  uint64
}

func (m *recordingModel) Name() string      { return "recorder" }
func (m *recordingModel) PageBytes() uint64 { return 0 }
func (m *recordingModel) BeginPhase(i int, profiles []Profile) {
	m.phases = append(m.phases, i)
	m.profiles = profiles
}
func (m *recordingModel) Access(gpu int, b *Batch) {
	for _, s := range b.Spans {
		if s.Op == trace.OpFence {
			m.accesses = append(m.accesses, recordedLine{gpu, s.Op, s.Scope, 0})
		}
		for _, line := range spanLines([]Span{s}) {
			m.accesses = append(m.accesses, recordedLine{gpu, s.Op, s.Scope, line})
		}
	}
}
func (m *recordingModel) EndPhase(i int) { m.endPhases = append(m.endPhases, i) }
func (m *recordingModel) Finish(*Result) { m.finished = true }

// storeLines returns the lines gpu stores to for instructions [from, to) of
// a twoGPUProgram kernel based at base.
func storeLines(gpu int, base uint64, from, to int) []recordedLine {
	var out []recordedLine
	for i := from; i < to; i++ {
		out = append(out, recordedLine{gpu, trace.OpStore, trace.ScopeWeak, base + uint64(i)*128})
	}
	return out
}

func twoGPUProgram() *trace.Recorded {
	mk := func(gpu int, n int, base uint64) trace.Kernel {
		var accs []trace.Access
		for i := 0; i < n; i++ {
			accs = append(accs, trace.Access{
				Op: trace.OpStore, Pattern: trace.PatContiguous,
				Threads: 32, ElemBytes: 4, Addr: base + uint64(i)*128,
			})
		}
		return trace.Kernel{GPU: gpu, Name: "k", ComputeOps: 100, LocalStreamBytes: 4096, Col: trace.EncodeColumns(accs)}
	}
	return &trace.Recorded{
		M: trace.Meta{Name: "t", NumGPUs: 2, Regions: []trace.Region{
			{Name: "r", Kind: trace.RegionShared, Base: 1 << 33, Size: 1 << 20},
		}},
		Ph: []trace.Phase{
			{Index: 0, Kernels: []trace.Kernel{mk(0, 200, 1<<33), mk(1, 100, 1<<33+1<<19)}},
			{Index: 1, Kernels: []trace.Kernel{mk(0, 10, 1<<33)}},
		},
	}
}

func TestRunDrivesModelThroughAllPhases(t *testing.T) {
	m := &recordingModel{}
	res := Run(twoGPUProgram(), m)
	if !reflect.DeepEqual(m.phases, []int{0, 1}) || !reflect.DeepEqual(m.endPhases, []int{0, 1}) {
		t.Fatalf("phases %v / ends %v", m.phases, m.endPhases)
	}
	if !m.finished {
		t.Fatal("Finish not called")
	}
	// Every instruction is one aligned line: each GPU sees its kernel's
	// lines in program order, phase 0 before phase 1.
	var g0, g1 []recordedLine
	for _, a := range m.accesses {
		if a.gpu == 0 {
			g0 = append(g0, a)
		} else {
			g1 = append(g1, a)
		}
	}
	want0 := append(storeLines(0, 1<<33, 0, 200), storeLines(0, 1<<33, 0, 10)...)
	if !reflect.DeepEqual(g0, want0) {
		t.Fatalf("GPU0 saw %d lines, want %d in program order", len(g0), len(want0))
	}
	if want1 := storeLines(1, 1<<33+1<<19, 0, 100); !reflect.DeepEqual(g1, want1) {
		t.Fatalf("GPU1 saw %d lines, want %d in program order", len(g1), len(want1))
	}
	if len(res.Phases) != 2 {
		t.Fatalf("result phases = %d", len(res.Phases))
	}
	if res.Paradigm != "recorder" {
		t.Fatalf("paradigm = %q", res.Paradigm)
	}
}

func TestRunInterleavesKernelsInChunks(t *testing.T) {
	m := &recordingModel{}
	Run(twoGPUProgram(), m)
	// Phase 0 has 200 instructions on GPU0 and 100 on GPU1: the replay
	// rotates between the kernels every 64 instructions until each ends.
	const a, b = 1 << 33, 1<<33 + 1<<19
	var want []recordedLine
	for _, part := range [][]recordedLine{
		storeLines(0, a, 0, 64), storeLines(1, b, 0, 64),
		storeLines(0, a, 64, 128), storeLines(1, b, 64, 100),
		storeLines(0, a, 128, 192), storeLines(0, a, 192, 200),
		storeLines(0, a, 0, 10), // phase 1
	} {
		want = append(want, part...)
	}
	if !reflect.DeepEqual(m.accesses, want) {
		for i := range want {
			if i >= len(m.accesses) || m.accesses[i] != want[i] {
				t.Fatalf("line %d: got %+v, want %+v", i, m.accesses[min(i, len(m.accesses)-1)], want[i])
			}
		}
		t.Fatalf("got %d lines, want %d", len(m.accesses), len(want))
	}
}

func TestRunAccountsComputeAndLocalStream(t *testing.T) {
	m := &recordingModel{}
	res := Run(twoGPUProgram(), m)
	p0 := res.Phases[0].Profiles[0]
	if p0.ComputeOps != 100 {
		t.Fatalf("ComputeOps = %d", p0.ComputeOps)
	}
	if p0.LocalBytes != 4096 {
		t.Fatalf("LocalBytes = %d, want LocalStreamBytes", p0.LocalBytes)
	}
	p1 := res.Phases[1].Profiles[1]
	if p1.ComputeOps != 0 {
		t.Fatal("idle GPU charged compute")
	}
}

func TestProfileRemoteBytes(t *testing.T) {
	p := NewProfile(0, 3)
	p.RemoteRead[1] = 100
	p.Push[2] = 200
	p.Bulk[1] = 300
	if p.RemoteBytes() != 600 {
		t.Fatalf("RemoteBytes = %d", p.RemoteBytes())
	}
}

func TestResultInterconnectBytesSlicing(t *testing.T) {
	res := &Result{Meta: trace.Meta{NumGPUs: 2, ProfilePhases: 1}}
	for i := 0; i < 3; i++ {
		p := NewProfile(0, 2)
		p.Push[1] = 100
		res.Phases = append(res.Phases, PhaseRecord{Index: i, Profiles: []Profile{p, NewProfile(1, 2)}})
	}
	if res.InterconnectBytes(0) != 300 {
		t.Fatal("full sum wrong")
	}
	if res.InterconnectBytes(1) != 200 {
		t.Fatal("steady-state slice wrong")
	}
}

func TestScanSharing(t *testing.T) {
	prog := &trace.Recorded{
		M: trace.Meta{Name: "s", NumGPUs: 2, Regions: []trace.Region{
			{Name: "sh", Kind: trace.RegionShared, Base: 1 << 33, Size: 1 << 20},
			{Name: "pv", Kind: trace.RegionPrivate, Base: 2 << 33, Size: 1 << 20},
		}},
		Ph: []trace.Phase{
			{Index: 0, Kernels: []trace.Kernel{
				{GPU: 0, Name: "w", Col: trace.EncodeColumns([]trace.Access{
					{Op: trace.OpStore, Pattern: trace.PatContiguous, Threads: 32, ElemBytes: 4, Addr: 1 << 33},
					{Op: trace.OpStore, Pattern: trace.PatContiguous, Threads: 32, ElemBytes: 4, Addr: 1 << 33},
					{Op: trace.OpStore, Pattern: trace.PatContiguous, Threads: 32, ElemBytes: 4, Addr: 2 << 33}, // private: ignored
				})},
				{GPU: 1, Name: "rw", Col: trace.EncodeColumns([]trace.Access{
					{Op: trace.OpLoad, Pattern: trace.PatContiguous, Threads: 32, ElemBytes: 4, Addr: 1 << 33},
					{Op: trace.OpStore, Pattern: trace.PatContiguous, Threads: 32, ElemBytes: 4, Addr: 1 << 33},
				})},
			}},
			// Phase beyond the scan limit: must be ignored.
			{Index: 1, Kernels: []trace.Kernel{
				{GPU: 1, Name: "late", Col: trace.EncodeColumns([]trace.Access{
					{Op: trace.OpStore, Pattern: trace.PatContiguous, Threads: 32, ElemBytes: 4, Addr: 1<<33 + 1<<19},
				})},
			}},
		},
	}
	sharing := ScanSharing(prog, 1, 64<<10)
	vpn := uint64(1<<33) / (64 << 10)
	s := sharing[vpn]
	if s == nil {
		t.Fatal("page not scanned")
	}
	if s.Writers != 0b11 || s.Readers != 0b10 {
		t.Fatalf("writers %b readers %b", s.Writers, s.Readers)
	}
	// GPU0 wrote twice, GPU1 once: GPU0 dominates.
	if s.DominantWriter() != 0 {
		t.Fatalf("dominant = %d", s.DominantWriter())
	}
	lateVPN := uint64(1<<33+1<<19) / (64 << 10)
	if sharing[lateVPN] != nil {
		t.Fatal("phase beyond scan limit leaked into sharing")
	}
	// Private pages never appear.
	if sharing[uint64(2<<33)/(64<<10)] != nil {
		t.Fatal("private page scanned")
	}
}

func TestDominantWriterEmpty(t *testing.T) {
	s := &Sharing{}
	if s.DominantWriter() != -1 {
		t.Fatal("empty sharing should have no dominant writer")
	}
}

// Regression: a phase containing a kernel with zero accesses used to spin
// Run's round-robin loop forever, because `remaining` counted every kernel
// but only kernels that reach their end of stream ever decremented it.
func TestRunEmptyKernelTerminates(t *testing.T) {
	work := trace.Kernel{GPU: 0, Name: "work", Col: trace.EncodeColumns([]trace.Access{
		{Op: trace.OpStore, Pattern: trace.PatContiguous, Threads: 32, ElemBytes: 4, Addr: 1 << 33},
	})}
	prog := &trace.Recorded{
		M: trace.Meta{Name: "empty", NumGPUs: 2, Regions: []trace.Region{
			{Name: "r", Kind: trace.RegionShared, Base: 1 << 33, Size: 1 << 20},
		}},
		Ph: []trace.Phase{
			// A barrier-only kernel (zero accesses) alongside a working one...
			{Index: 0, Kernels: []trace.Kernel{work, {GPU: 1, Name: "barrier"}}},
			// ...and a phase where every kernel is empty.
			{Index: 1, Kernels: []trace.Kernel{{GPU: 0, Name: "idle"}}},
		},
	}
	m := &recordingModel{}
	done := make(chan *Result, 1)
	go func() { done <- Run(prog, m) }()
	select {
	case res := <-done:
		if len(res.Phases) != 2 {
			t.Fatalf("result phases = %d, want 2", len(res.Phases))
		}
		if len(m.accesses) != 1 {
			t.Fatalf("accesses = %d, want 1", len(m.accesses))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("engine.Run hung on a phase containing a zero-access kernel")
	}
}

func TestRunIsDeterministic(t *testing.T) {
	run := func() []recordedLine {
		m := &recordingModel{}
		Run(twoGPUProgram(), m)
		return m.accesses
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("engine replay is not deterministic")
	}
}

// phaseRecorder is a PhaseObserver that records the hook sequence.
type phaseRecorder struct {
	starts  []int
	kernels []int
	ends    []int
}

func (p *phaseRecorder) PhaseStart(index, kernels int) {
	p.starts = append(p.starts, index)
	p.kernels = append(p.kernels, kernels)
}
func (p *phaseRecorder) PhaseEnd(index int) { p.ends = append(p.ends, index) }

// TestRunObservedPhaseHooks: the observer sees every phase start before its
// model callbacks and every end after, with the kernel count, and a nil
// observer behaves exactly like Run.
func TestRunObservedPhaseHooks(t *testing.T) {
	m := &recordingModel{}
	po := &phaseRecorder{}
	res := RunObserved(twoGPUProgram(), m, po)
	if !reflect.DeepEqual(po.starts, []int{0, 1}) || !reflect.DeepEqual(po.ends, []int{0, 1}) {
		t.Fatalf("observer starts %v / ends %v, want [0 1] each", po.starts, po.ends)
	}
	if !reflect.DeepEqual(po.kernels, []int{2, 1}) {
		t.Fatalf("observer kernel counts %v, want [2 1]", po.kernels)
	}
	plain := Run(twoGPUProgram(), &recordingModel{})
	if !reflect.DeepEqual(res.Phases, plain.Phases) {
		t.Fatal("RunObserved result differs from Run")
	}
}
