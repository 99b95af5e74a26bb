package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gps/internal/obs"
	"gps/internal/report"
	"gps/internal/service"
)

// adoptRecorder is a minimal Local that records Adopt calls; everything else
// is inert. It lets takeover tests run without a full service.Server.
type adoptRecorder struct {
	mu      sync.Mutex
	adopted []string // "origin/id"
}

func (a *adoptRecorder) Adopt(origin, id string, spec service.Spec, trace obs.TraceInfo) (service.AdoptOutcome, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.adopted = append(a.adopted, origin+"/"+id)
	return service.AdoptQueued, nil
}

func (a *adoptRecorder) calls() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]string(nil), a.adopted...)
}

func (a *adoptRecorder) SubmitTraced(service.Spec, obs.TraceContext) (service.Status, service.Outcome, error) {
	return service.Status{}, 0, fmt.Errorf("not implemented")
}
func (a *adoptRecorder) WaitResult(context.Context, string) (service.Status, *report.Report, error) {
	return service.Status{}, nil, fmt.Errorf("not implemented")
}
func (a *adoptRecorder) Metrics() service.Metrics                   { return service.Metrics{} }
func (a *adoptRecorder) JobsStolen() uint64                         { return 0 }
func (a *adoptRecorder) ResultByHash(string) (*report.Report, bool) { return nil, false }
func (a *adoptRecorder) Steal(string) (service.StolenJob, bool)     { return service.StolenJob{}, false }
func (a *adoptRecorder) CompleteStolen(string, *report.Report, string) error {
	return fmt.Errorf("not implemented")
}
func (a *adoptRecorder) DeclineStolen(string) error { return fmt.Errorf("not implemented") }
func (a *adoptRecorder) Cancel(string) (service.Status, error) {
	return service.Status{}, fmt.Errorf("not implemented")
}
func (a *adoptRecorder) PendingJobs() []service.PendingJob { return nil }

func submitRecord(id string, seed int64) ReplRecord {
	return ReplRecord{Op: service.OpSubmit, ID: id,
		Spec: &service.Spec{Type: "figure", Figure: 3, Seed: seed}}
}

func TestReplicaStoreApply(t *testing.T) {
	st := newReplicaStore()

	n := st.apply(ReplBatch{Origin: "b", Records: []ReplRecord{
		submitRecord("b-j-000001", 1),
		submitRecord("b-j-000002", 2),
		{Op: service.OpStart, ID: "b-j-000001"},
	}})
	if n != 3 || st.jobs() != 2 {
		t.Fatalf("apply = %d changed, %d live; want 3, 2", n, st.jobs())
	}

	// Duplicates and records for unknown IDs change nothing.
	n = st.apply(ReplBatch{Origin: "b", Records: []ReplRecord{
		submitRecord("b-j-000001", 1),
		{Op: service.OpStart, ID: "b-j-000001"},
		{Op: service.OpStart, ID: "b-j-000099"},
		{Op: service.OpDone, ID: "b-j-000099"},
		{Op: service.OpSubmit, ID: "b-j-000003"}, // submit without a spec: invalid
	}})
	if n != 0 || st.jobs() != 2 {
		t.Fatalf("idempotent re-apply = %d changed, %d live; want 0, 2", n, st.jobs())
	}

	// Terminal records prune; submit order is preserved for the survivors.
	st.apply(ReplBatch{Origin: "b", Records: []ReplRecord{
		submitRecord("b-j-000003", 3),
		{Op: service.OpDone, ID: "b-j-000001"},
		{Op: service.OpCancel, ID: "b-j-000002"},
	}})
	snap := st.snapshot("b")
	if len(snap) != 1 || snap[0].ID != "b-j-000003" || snap[0].Started {
		t.Fatalf("after prune: %+v", snap)
	}

	// Origins are independent.
	st.apply(ReplBatch{Origin: "c", Records: []ReplRecord{submitRecord("c-j-000001", 9)}})
	if len(st.snapshot("b")) != 1 || len(st.snapshot("c")) != 1 {
		t.Fatalf("origins bled together: b=%d c=%d", len(st.snapshot("b")), len(st.snapshot("c")))
	}

	// A Reset batch replaces the origin's state wholesale — stale entries
	// from lost terminal records are scrubbed.
	st.apply(ReplBatch{Origin: "b", Reset: true, Records: []ReplRecord{
		submitRecord("b-j-000007", 7),
	}})
	snap = st.snapshot("b")
	if len(snap) != 1 || snap[0].ID != "b-j-000007" {
		t.Fatalf("after reset: %+v", snap)
	}
	if len(st.snapshot("c")) != 1 {
		t.Fatal("reset for b touched c's replicas")
	}

	st.remove("b", "b-j-000007")
	if st.jobs() != 1 { // only c's entry left
		t.Fatalf("after remove: %d live, want 1", st.jobs())
	}
}

func TestRingSuccessorDeterministic(t *testing.T) {
	r := NewRing(0)
	ids := []string{"n0", "n1", "n2", "n3", "n4"}
	for _, id := range ids {
		r.Add(id)
	}
	for _, id := range ids {
		succ := r.Successor(id, nil)
		if succ == "" || succ == id {
			t.Fatalf("Successor(%s) = %q; must be another member", id, succ)
		}
		for i := 0; i < 10; i++ {
			if got := r.Successor(id, nil); got != succ {
				t.Fatalf("Successor(%s) flapped: %s then %s", id, succ, got)
			}
		}
		// Under a restricted liveness set the successor is still never the
		// node itself and still deterministic.
		alive := func(n string) bool { return n != "n1" && n != id }
		s2 := r.Successor(id, alive)
		if s2 == id || s2 == "n1" {
			t.Fatalf("Successor(%s, alive) = %q violates the predicate", id, s2)
		}
	}
	// An every-node-dead predicate answers "".
	if got := r.Successor("n0", func(string) bool { return false }); got != "" {
		t.Fatalf("Successor with no live nodes = %q, want \"\"", got)
	}
}

// TestOwnerAmongConcurrentLivenessFlips hammers OwnerAmong and Successor
// while other goroutines flip the liveness predicate, as happens when probe
// loops mark peers up and down during routing. Run under -race this proves
// the read path needs no locking beyond the predicate's own atomics; the
// result must always be a live-claimed-at-some-point member or "".
func TestOwnerAmongConcurrentLivenessFlips(t *testing.T) {
	r := NewRing(0)
	ids := []string{"n0", "n1", "n2", "n3", "n4"}
	member := map[string]bool{}
	var alive [5]atomic.Bool
	for i, id := range ids {
		r.Add(id)
		member[id] = true
		alive[i].Store(true)
	}
	idx := func(n string) int { return int(n[1] - '0') }
	ok := func(n string) bool { return alive[idx(n)].Load() }

	stop := make(chan struct{})
	var flippers, readers sync.WaitGroup
	for f := 0; f < 2; f++ {
		flippers.Add(1)
		go func(f int) {
			defer flippers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				slot := (i + f) % 4 // n4 stays alive so an owner always exists
				alive[slot].Store(i%2 == 0)
			}
		}(f)
	}
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; i < 2000; i++ {
				key := fmt.Sprintf("key-%d-%d", g, i)
				if got := r.OwnerAmong(key, ok); !member[got] {
					t.Errorf("OwnerAmong(%s) = %q, not a member", key, got)
					return
				}
				if got := r.Successor(ids[i%5], ok); got != "" && !member[got] {
					t.Errorf("Successor flip = %q, not a member", got)
					return
				}
			}
		}(g)
	}
	readers.Wait()
	close(stop)
	flippers.Wait()

	// With flips quiesced, routing is deterministic again and every node
	// agrees: repeated calls with a frozen liveness view match.
	frozen := func(n string) bool { return n != "n2" }
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("settle-%d", i)
		a, b := r.OwnerAmong(key, frozen), r.OwnerAmong(key, frozen)
		if a != b || a == "n2" {
			t.Fatalf("post-flip OwnerAmong(%s): %s vs %s", key, a, b)
		}
	}
}

func TestProbeScheduleJitter(t *testing.T) {
	const interval = 2 * time.Second
	offsets := map[time.Duration]bool{}
	for _, peer := range []string{"b", "c", "d", "e"} {
		off, period := probeSchedule("a", peer, interval)
		if off < 0 || off >= interval {
			t.Fatalf("offset(a->%s) = %v outside [0, %v)", peer, off, interval)
		}
		lo, hi := interval-interval/10, interval+interval/10
		if period < lo || period > hi {
			t.Fatalf("period(a->%s) = %v outside [%v, %v]", peer, period, lo, hi)
		}
		off2, period2 := probeSchedule("a", peer, interval)
		if off2 != off || period2 != period {
			t.Fatalf("schedule(a->%s) not deterministic", peer)
		}
		offsets[off] = true
	}
	if len(offsets) < 2 {
		t.Fatal("all peers share one probe offset; jitter is not per-peer")
	}
	// The pair is directional — a probing b lands elsewhere than b probing a.
	offAB, _ := probeSchedule("a", "b", interval)
	offBA, _ := probeSchedule("b", "a", interval)
	if offAB == offBA {
		t.Fatal("a->b and b->a share an offset; hash must cover direction")
	}
	// Sub-100ms intervals (tests) skip jitter entirely.
	off, period := probeSchedule("a", "b", 10*time.Millisecond)
	if off != 0 || period != 10*time.Millisecond {
		t.Fatalf("tight interval jittered: off=%v period=%v", off, period)
	}
}

// TestSuspicionThresholdFlakyProbe is the flap-resistance acceptance test:
// a single dropped probe must neither reroute the flaky peer's keys nor
// trigger a takeover of its replicated jobs; only SuspicionThreshold
// consecutive failures may.
func TestSuspicionThresholdFlakyProbe(t *testing.T) {
	var failNext atomic.Int32
	hz := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failNext.Load() > 0 {
			failNext.Add(-1)
			http.Error(w, "injected fault", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"status":"ok","node_id":"p"}`)
	}))
	defer hz.Close()

	local := &adoptRecorder{}
	c := New(Config{Self: "a"}) // default SuspicionThreshold 3
	c.Bind(local)
	c.AddPeer("p", hz.URL)
	c.ProbeOnce(context.Background())
	p, _ := c.Peer("p")
	if !p.Alive() {
		t.Fatal("peer not alive after clean probe")
	}

	// Replicate one of p's jobs here, so a takeover would be observable.
	if err := c.ApplyReplicaBatch(ReplBatch{Origin: "p", Records: []ReplRecord{
		submitRecord("p-j-000001", 42),
	}}); err != nil {
		t.Fatal(err)
	}

	// A key owned by p while it is healthy.
	var key string
	for i := 0; ; i++ {
		key = fmt.Sprintf("key-%d", i)
		if c.Owner(key) == "p" {
			break
		}
	}

	// One dropped probe: suspicion, not death. Routing and replicas hold.
	failNext.Store(1)
	c.ProbeOnce(context.Background())
	if !p.Alive() || p.Fails() != 1 {
		t.Fatalf("after one dropped probe: alive=%v fails=%d, want alive with 1", p.Alive(), p.Fails())
	}
	if got := c.Owner(key); got != "p" {
		t.Fatalf("single dropped probe rerouted %s to %s", key, got)
	}
	if calls := local.calls(); len(calls) != 0 {
		t.Fatalf("single dropped probe triggered takeover: %v", calls)
	}

	// One success wipes the streak.
	c.ProbeOnce(context.Background())
	if !p.Alive() || p.Fails() != 0 {
		t.Fatalf("clean probe did not reset: alive=%v fails=%d", p.Alive(), p.Fails())
	}

	// Threshold consecutive failures: death, reroute, takeover.
	failNext.Store(3)
	for i := 0; i < 3; i++ {
		c.ProbeOnce(context.Background())
	}
	if p.Alive() {
		t.Fatal("peer alive after threshold consecutive failures")
	}
	if got := c.Owner(key); got != "a" {
		t.Fatalf("dead peer's key routes to %s, want a", got)
	}
	if calls := local.calls(); len(calls) != 1 || calls[0] != "p/p-j-000001" {
		t.Fatalf("takeover adoptions = %v, want [p/p-j-000001]", calls)
	}
	if st := c.Stats(); st.Takeovers != 1 || st.TakeoverJobs != 1 {
		t.Fatalf("stats after takeover: %+v", st)
	}

	// Resurrection: the next clean probe revives the peer and routing
	// snaps back.
	c.ProbeOnce(context.Background())
	if !p.Alive() || c.Owner(key) != "p" {
		t.Fatalf("revive failed: alive=%v owner=%s", p.Alive(), c.Owner(key))
	}
}

// TestRegistryServesOneCluster: a second Cluster on a registry another
// Cluster fills would share its counters, so New refuses it.
func TestRegistryServesOneCluster(t *testing.T) {
	reg := obs.NewRegistry()
	New(Config{Self: "a", StealInterval: -1, Registry: reg})
	defer func() {
		if recover() == nil {
			t.Fatal("second Cluster on one registry did not panic")
		}
	}()
	New(Config{Self: "b", StealInterval: -1, Registry: reg})
}
