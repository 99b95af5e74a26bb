package paradigm

import (
	"reflect"
	"testing"

	"gps/internal/engine"
	"gps/internal/trace"
	"gps/internal/workload"
)

// handTrace builds a two-GPU trace with one shared region manually
// subscribed to GPU 1 only, where GPU 0 stores a line and then loads it
// back while the block is still resident in its remote write queue.
func handTrace() *trace.Recorded {
	base := uint64(1) << 33
	acc := func(op trace.Op, addr uint64) trace.Access {
		return trace.Access{Op: op, Pattern: trace.PatContiguous, Threads: 32, ElemBytes: 4, Addr: addr}
	}
	return &trace.Recorded{
		M: trace.Meta{
			Name:    "forwarding",
			NumGPUs: 2,
			Regions: []trace.Region{{
				Name: "shared", Kind: trace.RegionShared, Base: base, Size: 1 << 20,
				Writers: []int{0}, Readers: []int{1}, ManualSubscribers: []int{1},
			}},
		},
		Ph: []trace.Phase{{
			Index: 0,
			Kernels: []trace.Kernel{{
				GPU: 0, Name: "producer", ComputeOps: 1000,
				Col: trace.EncodeColumns([]trace.Access{
					acc(trace.OpStore, base),     // queued toward subscriber GPU 1
					acc(trace.OpLoad, base),      // non-subscriber load: forwards from the queue
					acc(trace.OpLoad, base+4096), // different line, not queued: remote
				}),
			}},
		}},
	}
}

func TestWriteQueueLoadForwarding(t *testing.T) {
	prog := handTrace()
	m, err := New(KindGPS, prog, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := engine.Run(prog, m)
	if res.ForwardedLoads != 1 {
		t.Fatalf("forwarded loads = %d, want 1", res.ForwardedLoads)
	}
	p := res.Phases[0].Profiles[0]
	// Exactly one remote read remains: the unqueued line.
	if p.RemoteRead[1] != engine.LineBytes {
		t.Fatalf("remote read bytes = %d, want one line", p.RemoteRead[1])
	}
}

func TestManualSubscribersRespectedInTrace(t *testing.T) {
	prog := handTrace()
	m, err := New(KindGPS, prog, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := engine.Run(prog, m)
	// GPU 0 never holds a replica; all of its queued stores push to GPU 1.
	var pushed uint64
	for _, ph := range res.Phases {
		pushed += ph.Profiles[0].Push[1]
	}
	if pushed == 0 {
		t.Fatal("stores did not replicate to the manual subscriber")
	}
	// The single-subscriber manual page must never downgrade away.
	if res.SubscriberHist[1] == 0 {
		t.Fatalf("histogram = %v, want the manual page intact", res.SubscriberHist)
	}
}

func TestUnsubscribedByDefaultConvergesToSameSteadyState(t *testing.T) {
	spec, _ := workload.ByName("jacobi")
	prog := spec.Build(workload.Config{NumGPUs: 4, Iterations: 2, Scale: 1, Seed: 1})

	run := func(kind Kind) *engine.Result {
		m, err := New(kind, prog, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return engine.Run(prog, m)
	}
	subDef := run(KindGPS)
	unsubDef := run(KindGPSUnsubDefault)

	// Steady-state interconnect traffic converges: both discover the same
	// subscriptions.
	post := subDef.Meta.ProfilePhases
	a, b := subDef.InterconnectBytes(post), unsubDef.InterconnectBytes(post)
	ratio := float64(a) / float64(b)
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("steady traffic diverges: %d vs %d", a, b)
	}

	// The profiling iteration differs in kind: unsubscribed-by-default pays
	// first-touch population stalls (counted as faults), subscribed-by-
	// default pays none.
	var unsubFaults int
	for _, ph := range unsubDef.Phases {
		if ph.Index < post {
			for _, p := range ph.Profiles {
				unsubFaults += p.Faults
			}
		}
	}
	if unsubFaults == 0 {
		t.Fatal("unsubscribed-by-default profiling should stall on first touches")
	}
	if subDef.TotalFaults() != 0 {
		t.Fatal("subscribed-by-default should not stall")
	}
}

func TestUnsubDefaultSubscriberDistributionMatches(t *testing.T) {
	spec, _ := workload.ByName("jacobi")
	prog := spec.Build(workload.Config{NumGPUs: 4, Iterations: 2, Scale: 1, Seed: 1})
	m, err := New(KindGPSUnsubDefault, prog, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := engine.Run(prog, m)
	h := res.SubscriberHist
	if h[2] == 0 || h[1] == 0 {
		t.Fatalf("histogram = %v, want interior 1-sub and halo 2-sub pages", h)
	}
	if h[3] != 0 || h[4] != 0 {
		t.Fatalf("histogram = %v: first-read subscription over-subscribed", h)
	}
}

// TestGPSPieceEndsMatchLines pins the cases where GPS replay ends a page
// piece early or charges it line by line, against the same model fed
// one-line spans: an unsubscribed-by-default subscription that follows
// loads forwarded from the write queue in the same piece, sys-scoped
// collapses, and lines outside every allocation.
func TestGPSPieceEndsMatchLines(t *testing.T) {
	base := uint64(1) << 33
	// sweep is a run of two-line stores or loads that the engine presents
	// as one span of lines lines.
	sweep := func(op trace.Op, scope trace.Scope, addr uint64, lines int) []trace.Access {
		var out []trace.Access
		for i := 0; i < lines; i += 2 {
			out = append(out, trace.Access{Op: op, Scope: scope, Pattern: trace.PatContiguous, Threads: 32, ElemBytes: 8, Addr: addr + uint64(i)*lineBytes})
		}
		return out
	}
	kernel := func(gpu int) trace.Kernel {
		var accs []trace.Access
		for _, a := range [][]trace.Access{
			sweep(trace.OpStore, trace.ScopeWeak, base, 2),        // queued: the next load forwards 2 lines
			sweep(trace.OpLoad, trace.ScopeWeak, base, 8),         // then its third line subscribes
			sweep(trace.OpStore, trace.ScopeSys, base+64<<10, 8),  // the first line collapses the page
			sweep(trace.OpStore, trace.ScopeSys, base+64<<10, 8),  // already collapsed
			sweep(trace.OpLoad, trace.ScopeWeak, base+128<<10, 8), // remote GPS page, nothing queued
			sweep(trace.OpLoad, trace.ScopeWeak, 5<<33, 8),        // outside every allocation
		} {
			accs = append(accs, a...)
		}
		return trace.Kernel{GPU: gpu, ComputeOps: 1000, Col: trace.EncodeColumns(accs)}
	}
	prog := &trace.Recorded{M: trace.Meta{
		Name: "pieces", NumGPUs: 2, ProfilePhases: 1,
		Regions: []trace.Region{{Name: "s", Kind: trace.RegionShared, Base: base, Size: 1 << 20}},
	}}
	for p := 0; p < 2; p++ {
		prog.Ph = append(prog.Ph, trace.Phase{Index: p, Kernels: []trace.Kernel{kernel(1), kernel(0)}})
	}
	for _, kind := range []Kind{KindGPS, KindGPSNoSub, KindGPSUnsubDefault} {
		spans, err := New(kind, prog, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		lines, err := New(kind, prog, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		res := engine.RunFused(prog, []engine.Model{spans, &lineSplitter{Model: lines}}, nil)
		if !reflect.DeepEqual(res[0], res[1]) {
			t.Errorf("%s: span replay differs from one-line spans\nspans: %+v\nlines: %+v", kind, res[0], res[1])
		}
		if kind == KindGPSUnsubDefault {
			if p := res[0].Phases[0].Profiles[1]; res[0].ForwardedLoads < 2 || p.Faults == 0 || p.Shootdowns == 0 {
				t.Errorf("%s: forwarded %d, GPU 1 faults %d, shootdowns %d: want forwarding, a subscription and a collapse",
					kind, res[0].ForwardedLoads, p.Faults, p.Shootdowns)
			}
		}
	}
}

// TestGPSDrainRunsSplitAtPageEnds pins the page split of drained runs: at
// 4 KB pages a 64-line queue group spans two pages, so two consecutive
// 32-line store pieces leave the queue as one run across a page end. The
// model must translate it as one run per page, as one-line spans do: two
// GPS-TLB misses and 62 hits, and every line pushed to the other GPU.
func TestGPSDrainRunsSplitAtPageEnds(t *testing.T) {
	base := uint64(1) << 33
	var stores []trace.Access
	for i := 0; i < 64; i += 2 { // lines 0-31 on one page, 32-63 on the next
		stores = append(stores, trace.Access{Op: trace.OpStore, Scope: trace.ScopeWeak, Pattern: trace.PatContiguous, Threads: 32, ElemBytes: 8, Addr: base + uint64(i)*lineBytes})
	}
	prog := &trace.Recorded{
		M: trace.Meta{Name: "split", NumGPUs: 2,
			Regions: []trace.Region{{Name: "s", Kind: trace.RegionShared, Base: base, Size: 1 << 20}}},
		Ph: []trace.Phase{{Index: 0, Kernels: []trace.Kernel{{GPU: 0, ComputeOps: 1, Col: trace.EncodeColumns(stores)}}}},
	}
	cfg := DefaultConfig()
	cfg.PageBytes = 4 << 10
	spans, err := New(KindGPS, prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lines, err := New(KindGPS, prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := engine.RunFused(prog, []engine.Model{spans, &lineSplitter{Model: lines}}, nil)
	if !reflect.DeepEqual(res[0], res[1]) {
		t.Errorf("span replay differs from one-line spans\nspans: %+v\nlines: %+v", res[0], res[1])
	}
	for i, r := range res {
		if got, want := r.Phases[0].Profiles[0].Push[1], uint64(64*lineBytes); got != want {
			t.Errorf("replay %d: GPU 0 pushed %d bytes to GPU 1, want %d", i, got, want)
		}
		if got, want := r.GPSTLBHitRate[0], 62.0/64; got != want {
			t.Errorf("replay %d: GPU 0 GPS-TLB hit rate %v, want %v (one miss per page)", i, got, want)
		}
	}
}

// TestGPSDrainRunsSettleBeforeRemap pins the settle rule of GPS drain
// runs: a run of drained lines of one page is translated before any manager
// call that can remap the page, so its lines replicate to the subscribers
// they drained under. Each case leaves GPU 0 with a pending run of page
// lines when the remap comes (a 4-entry write queue drains at 3), and
// lines of the same page still queued behind it: a sys-scoped collapse, a
// first-read subscription under unsubscribed-by-default profiling, and the
// profiling-end unsubscription sweep. The replay must match one-line spans
// and charge exactly the bytes the settle rule implies.
func TestGPSDrainRunsSettleBeforeRemap(t *testing.T) {
	base := uint64(1) << 33
	line := func(op trace.Op, scope trace.Scope, i int) trace.Access {
		return trace.Access{Op: op, Scope: scope, Pattern: trace.PatContiguous, Threads: 32, ElemBytes: 4, Addr: base + uint64(i)*lineBytes}
	}
	stores := func(n int) []trace.Access {
		var out []trace.Access
		for i := 0; i < n; i++ {
			out = append(out, line(trace.OpStore, trace.ScopeWeak, i))
		}
		return out
	}
	for _, c := range []struct {
		name       string
		kind       Kind
		gpu0, gpu1 []trace.Access
		push       uint64 // GPU 0's bytes pushed to GPU 1
	}{
		// Lines 0-1 drain while the page has both replicas; the collapse
		// leaves lines 2-3 nothing to replicate to.
		{"collapse", KindGPS, append(stores(4), line(trace.OpStore, trace.ScopeSys, 10)), nil, 2 * lineBytes},
		// Lines 0-1 drain while GPU 0 is the only subscriber; GPU 1's first
		// read subscribes it before lines 2-3 drain at the phase end.
		{"subscribe", KindGPSUnsubDefault, stores(4), []trace.Access{line(trace.OpLoad, trace.ScopeWeak, 20)}, 2 * lineBytes},
		// Line 0 drains at the watermark and lines 1-2 at the phase end,
		// all before the sweep unsubscribes GPU 1, which never touched the
		// page.
		{"profile", KindGPS, stores(3), nil, 3 * lineBytes},
	} {
		kernels := []trace.Kernel{{GPU: 0, ComputeOps: 1, Col: trace.EncodeColumns(c.gpu0)}}
		if c.gpu1 != nil {
			kernels = append(kernels, trace.Kernel{GPU: 1, ComputeOps: 1, Col: trace.EncodeColumns(c.gpu1)})
		}
		prog := &trace.Recorded{
			M: trace.Meta{Name: c.name, NumGPUs: 2, ProfilePhases: 1,
				Regions: []trace.Region{{Name: "s", Kind: trace.RegionShared, Base: base, Size: 1 << 20}}},
			Ph: []trace.Phase{{Index: 0, Kernels: kernels}},
		}
		cfg := DefaultConfig()
		cfg.WriteQueueEntries = 4
		spans, err := New(c.kind, prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		lines, err := New(c.kind, prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := engine.RunFused(prog, []engine.Model{spans, &lineSplitter{Model: lines}}, nil)
		if !reflect.DeepEqual(res[0], res[1]) {
			t.Errorf("%s: span replay differs from one-line spans\nspans: %+v\nlines: %+v", c.name, res[0], res[1])
		}
		if got := res[0].Phases[0].Profiles[0].Push[1]; got != c.push {
			t.Errorf("%s: GPU 0 pushed %d bytes to GPU 1, want %d", c.name, got, c.push)
		}
	}
}
