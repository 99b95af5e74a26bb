package paradigm

import (
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
