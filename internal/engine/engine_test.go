package engine

import (
	"reflect"
	"testing"
	"time"

	"gps/internal/trace"
)

// recordingModel captures what the engine feeds a paradigm model.
type recordingModel struct {
	phases    []int
	accesses  []recordedAccess
	endPhases []int
	finished  bool
	profiles  []Profile
}

type recordedAccess struct {
	gpu   int
	op    trace.Op
	lines []uint64
}

func (m *recordingModel) Name() string { return "recorder" }
func (m *recordingModel) BeginPhase(i int, profiles []Profile) {
	m.phases = append(m.phases, i)
	m.profiles = profiles
}
func (m *recordingModel) Access(gpu int, b *Batch) {
	for i, a := range b.Accs {
		cp := append([]uint64{}, b.LinesOf(i)...)
		m.accesses = append(m.accesses, recordedAccess{gpu: gpu, op: a.Op, lines: cp})
	}
}
func (m *recordingModel) EndPhase(i int) { m.endPhases = append(m.endPhases, i) }
func (m *recordingModel) Finish(*Result) { m.finished = true }

func twoGPUProgram() *trace.Recorded {
	mk := func(gpu int, n int, base uint64) trace.Kernel {
		k := trace.Kernel{GPU: gpu, Name: "k", ComputeOps: 100, LocalStreamBytes: 4096}
		for i := 0; i < n; i++ {
			k.Accesses = append(k.Accesses, trace.Access{
				Op: trace.OpStore, Pattern: trace.PatContiguous,
				Threads: 32, ElemBytes: 4, Addr: base + uint64(i)*128,
			})
		}
		return k
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
	if len(m.accesses) != 310 {
		t.Fatalf("accesses = %d, want 310", len(m.accesses))
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
	// Phase 0 has 200 accesses on GPU0 and 100 on GPU1; chunked round-robin
	// means GPU1 must appear before GPU0 finishes.
	firstG1 := -1
	lastG0 := -1
	for i, a := range m.accesses[:300] {
		if a.gpu == 1 && firstG1 < 0 {
			firstG1 = i
		}
		if a.gpu == 0 {
			lastG0 = i
		}
	}
	if firstG1 < 0 || firstG1 > 128 {
		t.Fatalf("GPU1 first ran at position %d; expected early interleaving", firstG1)
	}
	if lastG0 < firstG1 {
		t.Fatal("GPU0 finished entirely before GPU1 started: no interleaving")
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
				{GPU: 0, Name: "w", Accesses: []trace.Access{
					{Op: trace.OpStore, Pattern: trace.PatContiguous, Threads: 32, ElemBytes: 4, Addr: 1 << 33},
					{Op: trace.OpStore, Pattern: trace.PatContiguous, Threads: 32, ElemBytes: 4, Addr: 1 << 33},
					{Op: trace.OpStore, Pattern: trace.PatContiguous, Threads: 32, ElemBytes: 4, Addr: 2 << 33}, // private: ignored
				}},
				{GPU: 1, Name: "rw", Accesses: []trace.Access{
					{Op: trace.OpLoad, Pattern: trace.PatContiguous, Threads: 32, ElemBytes: 4, Addr: 1 << 33},
					{Op: trace.OpStore, Pattern: trace.PatContiguous, Threads: 32, ElemBytes: 4, Addr: 1 << 33},
				}},
			}},
			// Phase beyond the scan limit: must be ignored.
			{Index: 1, Kernels: []trace.Kernel{
				{GPU: 1, Name: "late", Accesses: []trace.Access{
					{Op: trace.OpStore, Pattern: trace.PatContiguous, Threads: 32, ElemBytes: 4, Addr: 1<<33 + 1<<19},
				}},
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
	work := trace.Kernel{GPU: 0, Name: "work", Accesses: []trace.Access{
		{Op: trace.OpStore, Pattern: trace.PatContiguous, Threads: 32, ElemBytes: 4, Addr: 1 << 33},
	}}
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
	run := func() []recordedAccess {
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
