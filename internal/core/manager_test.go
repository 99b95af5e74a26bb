package core

import (
	"errors"
	"testing"

	"gps/internal/memsys"
)

func newTestManager(t *testing.T, gpus int) *Manager {
	t.Helper()
	m, err := NewManager(testGeom(), gpus, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

const page = 64 << 10

// wantMapping fails unless gpu maps vpn to owner with the given GPS bit.
func wantMapping(t *testing.T, m *Manager, gpu int, vpn memsys.VPN, owner int, gps bool) {
	t.Helper()
	got, ok := m.Translate(gpu, vpn)
	if want := (Mapping{Owner: uint8(owner), GPS: gps}); !ok || got != want {
		t.Fatalf("GPU %d mapping of page %d = %+v (allocated %v), want %+v", gpu, vpn, got, ok, want)
	}
}

func TestAllocGPSCreatesReplicasEverywhere(t *testing.T) {
	m := newTestManager(t, 4)
	if err := m.AllocGPS(0, 2*page, memsys.AllGPUs(4), false); err != nil {
		t.Fatal(err)
	}
	for vpn := memsys.VPN(0); vpn < 2; vpn++ {
		if got := m.Subscribers(vpn); got != memsys.AllGPUs(4) {
			t.Fatalf("page %d subscribers = %v", vpn, got)
		}
		for g := 0; g < 4; g++ {
			wantMapping(t, m, g, vpn, g, true)
		}
	}
	for g, used := range m.used {
		if used != 2 {
			t.Fatalf("GPU %d holds %d pages, want 2", g, used)
		}
	}
	if _, ok := m.Translate(0, 2); ok {
		t.Fatal("page past the allocation translates")
	}
}

func TestAllocGPSPartialSubscribers(t *testing.T) {
	m := newTestManager(t, 4)
	if err := m.AllocGPS(0, page, memsys.SetOf(1, 2), false); err != nil {
		t.Fatal(err)
	}
	// Non-subscribers map remotely to the first subscriber.
	wantMapping(t, m, 0, 0, 1, true)
	wantMapping(t, m, 3, 0, 1, true)
	wantMapping(t, m, 2, 0, 2, true)
	if m.used[0] != 0 || m.used[3] != 0 {
		t.Fatal("non-subscribers must not hold replicas")
	}
}

func TestAllocPinned(t *testing.T) {
	m := newTestManager(t, 2)
	if err := m.AllocPinned(0, page, 1); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 2; g++ {
		wantMapping(t, m, g, 0, 1, false)
	}
	if got := m.Subscribers(0); got != memsys.SetOf(1) {
		t.Fatalf("pinned page subscribers = %v, want its owner", got)
	}
	if _, ok := m.gpsSubscribers(0); ok {
		t.Fatal("pinned page must not be GPS")
	}
}

func TestDoubleAllocFails(t *testing.T) {
	m := newTestManager(t, 2)
	if err := m.AllocGPS(0, page, memsys.AllGPUs(2), false); err != nil {
		t.Fatal(err)
	}
	if err := m.AllocGPS(0, page, memsys.AllGPUs(2), false); err == nil {
		t.Fatal("double alloc accepted")
	}
	if err := m.AllocPinned(0, page, 0); err == nil {
		t.Fatal("pinned over GPS accepted")
	}
}

func TestUnsubscribeFreesAndRemapsRemote(t *testing.T) {
	m := newTestManager(t, 4)
	if err := m.AllocGPS(0, page, memsys.AllGPUs(4), false); err != nil {
		t.Fatal(err)
	}
	if err := m.Unsubscribe(3, 0, page); err != nil {
		t.Fatal(err)
	}
	if got := m.Subscribers(0); got != memsys.SetOf(0, 1, 2) {
		t.Fatalf("subscribers = %v", got)
	}
	if m.used[3] != 0 {
		t.Fatal("unsubscribed replica not freed")
	}
	// The leaver maps the first subscriber, GPS bit kept.
	wantMapping(t, m, 3, 0, 0, true)
	if err := m.Unsubscribe(3, 0, page); err == nil {
		t.Fatal("unsubscribing a non-subscriber accepted")
	}
}

func TestUnsubscribeLastFails(t *testing.T) {
	m := newTestManager(t, 2)
	if err := m.AllocGPS(0, page, memsys.SetOf(0, 1), false); err != nil {
		t.Fatal(err)
	}
	if err := m.Unsubscribe(0, 0, page); err != nil {
		t.Fatal(err)
	}
	// Page downgraded to conventional on GPU1; unsubscribing it now fails.
	if err := m.Unsubscribe(1, 0, page); err == nil {
		t.Fatal("unsubscribing the last copy should fail")
	}
	// A GPS page allocated with one subscriber refuses to lose it.
	if err := m.AllocGPS(page, page, memsys.SetOf(1), false); err != nil {
		t.Fatal(err)
	}
	if err := m.Unsubscribe(1, page, page); !errors.Is(err, memsys.ErrLastSubscriber) {
		t.Fatalf("unsubscribing the only subscriber: %v, want ErrLastSubscriber", err)
	}
}

func TestDowngradeOnSingleSubscriber(t *testing.T) {
	m := newTestManager(t, 4)
	if err := m.AllocGPS(0, page, memsys.SetOf(0, 1), false); err != nil {
		t.Fatal(err)
	}
	if err := m.Unsubscribe(0, 0, page); err != nil {
		t.Fatal(err)
	}
	// One subscriber left: the page must be downgraded to conventional.
	if _, ok := m.gpsSubscribers(0); ok {
		t.Fatal("downgraded page still replicated")
	}
	for g := 0; g < 4; g++ {
		wantMapping(t, m, g, 0, 1, false)
	}
	if got := m.Subscribers(0); got != memsys.SetOf(1) {
		t.Fatalf("post-downgrade subscribers = %v", got)
	}
}

// TestSubscribeRefusesDowngradedPage: a page downgraded to one copy
// translates GPS=false on every GPU and stays conventional; subscribing to
// it fails and changes nothing.
func TestSubscribeRefusesDowngradedPage(t *testing.T) {
	m := newTestManager(t, 4)
	if err := m.AllocGPS(0, page, memsys.SetOf(0, 1), false); err != nil {
		t.Fatal(err)
	}
	if err := m.Unsubscribe(0, 0, page); err != nil {
		t.Fatal(err)
	}
	if err := m.Subscribe(2, 0, page); err == nil {
		t.Fatal("subscribing to a downgraded page accepted")
	}
	if got := m.Subscribers(0); got != memsys.SetOf(1) {
		t.Fatalf("subscribers = %v, want {1}", got)
	}
	if m.used[2] != 0 {
		t.Fatal("refused subscription took a page")
	}
	for g := 0; g < 4; g++ {
		wantMapping(t, m, g, 0, 1, false)
	}
}

func TestSubscribeIsIdempotent(t *testing.T) {
	m := newTestManager(t, 2)
	if err := m.AllocGPS(0, page, memsys.AllGPUs(2), false); err != nil {
		t.Fatal(err)
	}
	before := m.used[0]
	if err := m.Subscribe(0, 0, page); err != nil {
		t.Fatal(err)
	}
	if m.used[0] != before {
		t.Fatal("re-subscribing allocated a second replica")
	}
}

func TestApplyProfileUnsubscribesUntouched(t *testing.T) {
	m := newTestManager(t, 4)
	if err := m.AllocGPS(0, 3*page, memsys.AllGPUs(4), false); err != nil {
		t.Fatal(err)
	}
	// Page 3 has manual subscriptions: profiling never prunes it.
	if err := m.AllocGPS(3*page, page, memsys.SetOf(1, 2), true); err != nil {
		t.Fatal(err)
	}
	tr := NewAccessTracker(testGeom(), 0, 4*page, 4)
	tr.Start()
	// Page 0: touched by 0,1. Page 1: touched by all. Page 2: untouched.
	tr.RecordTLBMiss(0, 0)
	tr.RecordTLBMiss(1, 0)
	for g := 0; g < 4; g++ {
		tr.RecordTLBMiss(g, 1)
	}
	tr.Stop()

	if cuts := m.ApplyProfile(tr); cuts != 5 {
		t.Fatalf("ApplyProfile made %d cuts, want 5", cuts)
	}
	if got := m.Subscribers(0); got != memsys.SetOf(0, 1) {
		t.Fatalf("page 0 subscribers = %v, want {0,1}", got)
	}
	if got := m.Subscribers(1); got != memsys.AllGPUs(4) {
		t.Fatalf("page 1 subscribers = %v, want all", got)
	}
	// Untouched page keeps exactly one subscriber (downgraded).
	if got := m.Subscribers(2); got.Count() != 1 {
		t.Fatalf("page 2 subscribers = %v, want one", got)
	}
	if got := m.Subscribers(3); got != memsys.SetOf(1, 2) || !m.Manual(3) {
		t.Fatalf("manual page 3 subscribers = %v (manual %v), want {1,2}", got, m.Manual(3))
	}
}

func TestCollapseSysScoped(t *testing.T) {
	m := newTestManager(t, 4)
	if err := m.AllocGPS(0, page, memsys.AllGPUs(4), false); err != nil {
		t.Fatal(err)
	}
	if err := m.CollapseSysScoped(2, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.gpsSubscribers(0); ok {
		t.Fatal("collapsed page still replicated")
	}
	for g := 0; g < 4; g++ {
		wantMapping(t, m, g, 0, 2, false)
	}
	// Only the writer's replica remains.
	for g := 0; g < 4; g++ {
		want := uint64(0)
		if g == 2 {
			want = 1
		}
		if m.used[g] != want {
			t.Fatalf("GPU %d holds %d pages, want %d", g, m.used[g], want)
		}
	}
	// Idempotent on an already-collapsed page.
	if err := m.CollapseSysScoped(1, 0); err != nil {
		t.Fatal(err)
	}
	wantMapping(t, m, 1, 0, 2, false)
}

func TestSubscriberHistogram(t *testing.T) {
	m := newTestManager(t, 4)
	if err := m.AllocGPS(0, page, memsys.AllGPUs(4), false); err != nil {
		t.Fatal(err)
	}
	if err := m.AllocGPS(page, page, memsys.SetOf(0, 1), false); err != nil {
		t.Fatal(err)
	}
	if err := m.AllocGPS(2*page, page, memsys.SetOf(0, 1, 2), false); err != nil {
		t.Fatal(err)
	}
	if err := m.AllocGPS(3*page, page, memsys.SetOf(0, 1, 2), false); err != nil {
		t.Fatal(err)
	}
	if err := m.CollapseSysScoped(0, 3); err != nil {
		t.Fatal(err)
	}
	if err := m.AllocPinned(4*page, page, 0); err != nil {
		t.Fatal(err)
	}
	h := m.SubscriberHistogram()
	if len(h) != 4 || h[4] != 1 || h[2] != 1 || h[3] != 1 || h[1] != 1 {
		t.Fatalf("histogram = %v, want one page each with 4, 3, 2 and 1 subscribers", h)
	}
}

func TestManagerErrors(t *testing.T) {
	m := newTestManager(t, 2)
	if err := m.AllocGPS(0, page, 0, false); err == nil {
		t.Error("empty subscriber set accepted")
	}
	if err := m.AllocGPS(0, page, memsys.SetOf(5), false); err == nil {
		t.Error("out-of-range subscriber accepted")
	}
	if err := m.AllocPinned(0, page, 9); err == nil {
		t.Error("out-of-range GPU accepted")
	}
	if err := m.Subscribe(0, 1<<40, page); err == nil {
		t.Error("subscribing unallocated page accepted")
	}
	if err := m.Unsubscribe(0, 1<<40, page); err == nil {
		t.Error("unsubscribing unallocated page accepted")
	}
	if err := m.CollapseSysScoped(0, 1<<30); err == nil {
		t.Error("collapsing unallocated page accepted")
	}
	if err := m.AllocPinned(0, page, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Subscribe(1, 0, page); err == nil {
		t.Error("subscribing to a pinned page accepted")
	}
	if err := m.CollapseSysScoped(0, 0); err == nil {
		t.Error("collapsing a pinned page accepted")
	}
	if _, err := NewManager(testGeom(), 0, 1<<30); err == nil {
		t.Error("zero GPUs accepted")
	}
	if _, err := NewManager(testGeom(), 2, page-1); err == nil {
		t.Error("capacity below one page accepted")
	}
}

// TestAllocGPSOutOfMemory holds ErrOutOfMemory exact: a GPU holds exactly
// its capacity in pages, and an unsubscription, a collapse and a profile
// cut each give pages back, so a subscription refused for lack of room
// succeeds after.
func TestAllocGPSOutOfMemory(t *testing.T) {
	m, err := NewManager(testGeom(), 3, 3*page+page/2) // three pages per GPU
	if err != nil {
		t.Fatal(err)
	}
	step := func(what string, err error, wantOOM bool) {
		t.Helper()
		if wantOOM && !errors.Is(err, memsys.ErrOutOfMemory) || !wantOOM && err != nil {
			t.Fatalf("%s: %v, want out of memory %v", what, err, wantOOM)
		}
	}
	// Pages A=0 on all GPUs, B=1 and D=2 on GPUs 1 and 2, C=3 and E=4
	// pinned on GPU 0: every GPU holds exactly three pages.
	step("alloc A", m.AllocGPS(0, page, memsys.AllGPUs(3), false), false)
	step("alloc B, D", m.AllocGPS(page, 2*page, memsys.SetOf(1, 2), false), false)
	step("alloc C, E", m.AllocPinned(3*page, 2*page, 0), false)
	step("GPS page at capacity+1", m.AllocGPS(5*page, page, memsys.SetOf(2), false), true)
	step("pinned page at capacity+1", m.AllocPinned(5*page, page, 0), true)
	step("subscribe GPU 0 to B", m.Subscribe(0, page, page), true)
	if _, ok := m.Translate(0, 5); ok {
		t.Fatal("a failed allocation left its page allocated")
	}

	// An unsubscription returns its page.
	step("unsubscribe GPU 0 from A", m.Unsubscribe(0, 0, page), false)
	step("subscribe GPU 0 to B after", m.Subscribe(0, page, page), false)
	step("subscribe GPU 0 to D", m.Subscribe(0, 2*page, page), true)

	// A collapse returns every other replica's page.
	step("collapse B to GPU 1", m.CollapseSysScoped(1, 1), false)
	step("subscribe GPU 0 to D after", m.Subscribe(0, 2*page, page), false)
	step("subscribe GPU 0 to A", m.Subscribe(0, 0, page), true)

	// A profile cut returns its page: only GPU 1 touched D.
	tr := NewAccessTracker(testGeom(), 0, 5*page, 3)
	tr.Start()
	tr.RecordTLBMiss(1, 0)
	tr.RecordTLBMiss(2, 0)
	tr.RecordTLBMiss(1, 2)
	tr.Stop()
	if cuts := m.ApplyProfile(tr); cuts != 2 {
		t.Fatalf("profile cuts = %d, want 2 (GPUs 0 and 2 from D)", cuts)
	}
	step("subscribe GPU 0 to A after", m.Subscribe(0, 0, page), false)
	if want := []uint64{3, 3, 1}; m.used[0] != want[0] || m.used[1] != want[1] || m.used[2] != want[2] {
		t.Fatalf("used = %v, want %v", m.used, want)
	}
}

func TestRemapHookFires(t *testing.T) {
	m := newTestManager(t, 2)
	var remaps []memsys.VPN
	m.SetRemapHook(func(vpn memsys.VPN) { remaps = append(remaps, vpn) })
	if err := m.AllocGPS(0, page, memsys.AllGPUs(2), false); err != nil {
		t.Fatal(err)
	}
	if err := m.Unsubscribe(0, 0, page); err != nil {
		t.Fatal(err)
	}
	if len(remaps) == 0 {
		t.Fatal("remap hook never fired for unsubscribe/downgrade")
	}
}

func TestEvictSubscriberOnOversubscription(t *testing.T) {
	// Section 5.3: "If the GPU driver swaps out a page from a subscriber due
	// to oversubscription, that GPU will be unsubscribed and will access
	// that page remotely." The driver's eviction is an unsubscription.
	m := newTestManager(t, 4)
	if err := m.AllocGPS(0, page, memsys.AllGPUs(4), false); err != nil {
		t.Fatal(err)
	}
	if err := m.Unsubscribe(2, 0, page); err != nil {
		t.Fatal(err)
	}
	if got := m.Subscribers(0); got != memsys.SetOf(0, 1, 3) {
		t.Fatalf("subscribers after eviction = %v", got)
	}
	if m.used[2] != 0 {
		t.Fatal("evicted replica not freed")
	}
	// The evicted GPU now maps the page remotely with the GPS bit intact.
	wantMapping(t, m, 2, 0, 0, true)
	// Evicting down to the last copy is refused.
	if err := m.Unsubscribe(0, 0, page); err != nil {
		t.Fatal(err)
	}
	if err := m.Unsubscribe(1, 0, page); err != nil {
		t.Fatal(err)
	}
	// One subscriber remains (page downgraded); eviction must refuse.
	if err := m.Unsubscribe(3, 0, page); err == nil {
		t.Fatal("evicted the final copy")
	}
}
