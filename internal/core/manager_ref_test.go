package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"gps/internal/memsys"
)

// refManager is a reference for Manager built the way the per-GPU page
// tables were: one (owner, GPS bit) entry per (GPU, page), rewritten
// exactly where those tables were rewritten, plus each page's driver state.
// A failed page takes nothing, as in Manager.
type refManager struct {
	n, capacity int
	used        []int
	pages       map[memsys.VPN]*refPage
	pte         map[refKey]Mapping
}

type refKey struct {
	gpu int
	vpn memsys.VPN
}

type refPage struct {
	gpsRegion, downgraded, manual bool
	owner                         int // pinned or downgraded pages
	subs                          memsys.SubscriberSet
}

var errRef = errors.New("refused")

func newRefManager(n, capacity int) *refManager {
	return &refManager{n: n, capacity: capacity, used: make([]int, n),
		pages: map[memsys.VPN]*refPage{}, pte: map[refKey]Mapping{}}
}

func (r *refManager) mapAll(vpn memsys.VPN, owner int, gps bool) {
	for g := 0; g < r.n; g++ {
		r.pte[refKey{g, vpn}] = Mapping{Owner: uint8(owner), GPS: gps}
	}
}

func (r *refManager) full(g int) bool { return r.used[g] >= r.capacity }

func (r *refManager) allocGPS(vpns []memsys.VPN, subs memsys.SubscriberSet, manual bool) error {
	if subs.Empty() || subs != subs.Intersect(memsys.AllGPUs(r.n)) {
		return errRef
	}
	for _, vpn := range vpns {
		if r.pages[vpn] != nil {
			return errRef
		}
		for _, g := range subs.GPUs() {
			if r.full(g) {
				return memsys.ErrOutOfMemory
			}
		}
		for _, g := range subs.GPUs() {
			r.used[g]++
		}
		r.mapAll(vpn, subs.First(), true)
		for _, g := range subs.GPUs() {
			r.pte[refKey{g, vpn}] = Mapping{Owner: uint8(g), GPS: true}
		}
		r.pages[vpn] = &refPage{gpsRegion: true, manual: manual, subs: subs}
	}
	return nil
}

func (r *refManager) allocPinned(vpns []memsys.VPN, gpu int) error {
	if gpu >= r.n {
		return errRef
	}
	for _, vpn := range vpns {
		if r.pages[vpn] != nil {
			return errRef
		}
		if r.full(gpu) {
			return memsys.ErrOutOfMemory
		}
		r.used[gpu]++
		r.mapAll(vpn, gpu, false)
		r.pages[vpn] = &refPage{owner: gpu}
	}
	return nil
}

func (r *refManager) subscribe(gpu int, vpns []memsys.VPN) error {
	for _, vpn := range vpns {
		p := r.pages[vpn]
		if p == nil || !p.gpsRegion || p.downgraded {
			return errRef
		}
		if p.subs.Has(gpu) {
			continue
		}
		if r.full(gpu) {
			return memsys.ErrOutOfMemory
		}
		r.used[gpu]++
		p.subs = p.subs.Add(gpu)
		r.pte[refKey{gpu, vpn}] = Mapping{Owner: uint8(gpu), GPS: true}
	}
	return nil
}

func (r *refManager) unsubscribe(gpu int, vpns []memsys.VPN) error {
	for _, vpn := range vpns {
		if err := r.unsubscribePage(gpu, vpn); err != nil {
			return err
		}
	}
	return nil
}

func (r *refManager) unsubscribePage(gpu int, vpn memsys.VPN) error {
	p := r.pages[vpn]
	if p == nil || !p.gpsRegion || p.downgraded || !p.subs.Has(gpu) {
		return errRef
	}
	if p.subs.Count() == 1 {
		return memsys.ErrLastSubscriber
	}
	r.used[gpu]--
	p.subs = p.subs.Remove(gpu)
	r.pte[refKey{gpu, vpn}] = Mapping{Owner: uint8(p.subs.First()), GPS: true}
	if p.subs.Count() == 1 {
		p.downgraded, p.owner = true, p.subs.First()
		r.mapAll(vpn, p.owner, false)
	}
	return nil
}

// applyProfile computes every cut first, as the parent's sweep did, then
// applies them in ascending page, then GPU, order.
func (r *refManager) applyProfile(t *AccessTracker, pages int) int {
	var cuts []refKey
	for vpn := memsys.VPN(0); vpn < memsys.VPN(pages); vpn++ {
		p := r.pages[vpn]
		if p == nil || !p.gpsRegion || p.downgraded || p.manual {
			continue
		}
		touched := t.TouchedBy(vpn).Intersect(p.subs)
		for _, g := range p.subs.GPUs() {
			if !touched.Has(g) && !(touched.Empty() && g == p.subs.First()) {
				cuts = append(cuts, refKey{g, vpn})
			}
		}
	}
	for _, c := range cuts {
		if err := r.unsubscribePage(c.gpu, c.vpn); err != nil {
			panic(err)
		}
	}
	return len(cuts)
}

func (r *refManager) collapse(writer int, vpn memsys.VPN) error {
	p := r.pages[vpn]
	if p == nil || !p.gpsRegion {
		return errRef
	}
	if p.downgraded {
		return nil
	}
	host := writer
	if !p.subs.Has(writer) {
		host = p.subs.First()
	}
	for _, g := range p.subs.Remove(host).GPUs() {
		r.used[g]--
	}
	p.downgraded, p.owner, p.subs = true, host, memsys.SetOf(host)
	r.mapAll(vpn, host, false)
	return nil
}

func (r *refManager) subscribers(vpn memsys.VPN) memsys.SubscriberSet {
	switch p := r.pages[vpn]; {
	case p == nil:
		return 0
	case p.gpsRegion && !p.downgraded:
		return p.subs
	default:
		return memsys.SetOf(p.owner)
	}
}

// managerState is everything a translation reads from one manager page:
// each GPU's mapping and the GPS-TLB's subscriber set.
func managerState(m *Manager, gpus int, vpn memsys.VPN) string {
	s := ""
	for g := 0; g < gpus; g++ {
		mp, ok := m.Translate(g, vpn)
		s += fmt.Sprintf("%v:%+v ", ok, mp)
	}
	subs, ok := m.gpsSubscribers(vpn)
	return s + fmt.Sprintf("gps %v %v", ok, subs)
}

// runManagerOps decodes data into a sequence of manager calls, applies it
// to a Manager and a refManager, and after every call compares the error
// class, every (GPU, page) mapping, the subscriber sets, the manual flags
// and the used-page counts. It also checks that every page whose
// translation changed (other than by its allocation) fired the remap hook
// that the TLBs depend on.
func runManagerOps(t *testing.T, data []byte) {
	const pages = 8
	if len(data) < 2 {
		return
	}
	gpus, capacity := 2+int(data[0])%4, 2+int(data[1])%5
	data = data[2:]
	geom := testGeom()
	m, err := NewManager(geom, gpus, uint64(capacity)*geom.PageBytes)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefManager(gpus, capacity)
	remapped := map[memsys.VPN]bool{}
	m.SetRemapHook(func(vpn memsys.VPN) { remapped[vpn] = true })

	for step := 0; len(data) >= 4; step++ {
		op, a, b, c := data[0]%6, data[1], data[2], data[3]
		data = data[4:]
		first := int(a) % pages
		count := min(1+int(a>>4)%2, pages-first)
		va, size := memsys.VAddr(first)*page, uint64(count)*page
		var vpns []memsys.VPN
		for v := first; v < first+count; v++ {
			vpns = append(vpns, memsys.VPN(v))
		}
		gpu := int(b) % gpus
		before := make([]string, pages)
		wasAllocated := make([]bool, pages)
		for v := range before {
			before[v] = managerState(m, gpus, memsys.VPN(v))
			_, wasAllocated[v] = m.Translate(0, memsys.VPN(v))
		}
		clear(remapped)

		var got, want error
		var desc string
		switch op {
		case 0:
			subs := memsys.SubscriberSet(c) & memsys.AllGPUs(gpus)
			manual := b&1 == 1
			desc = fmt.Sprintf("AllocGPS(pages %d+%d, %v, manual %v)", first, count, subs, manual)
			got, want = m.AllocGPS(va, size, subs, manual), ref.allocGPS(vpns, subs, manual)
		case 1:
			gpu = int(b) % (gpus + 1) // one past the last GPU is refused
			desc = fmt.Sprintf("AllocPinned(pages %d+%d, GPU %d)", first, count, gpu)
			got, want = m.AllocPinned(va, size, gpu), ref.allocPinned(vpns, gpu)
		case 2:
			desc = fmt.Sprintf("Subscribe(GPU %d, pages %d+%d)", gpu, first, count)
			got, want = m.Subscribe(gpu, va, size), ref.subscribe(gpu, vpns)
		case 3:
			desc = fmt.Sprintf("Unsubscribe(GPU %d, pages %d+%d)", gpu, first, count)
			got, want = m.Unsubscribe(gpu, va, size), ref.unsubscribe(gpu, vpns)
		case 4:
			tr := NewAccessTracker(geom, 0, pages*page, gpus)
			tr.Start()
			bits := uint64(a) | uint64(b)<<8 | uint64(c)<<16
			for v := memsys.VPN(0); v < pages; v++ {
				for g := 0; g < gpus; g++ {
					if bits>>((int(v)*3+g)%24)&1 == 1 {
						tr.RecordTLBMiss(g, v)
					}
				}
			}
			tr.Stop()
			desc = fmt.Sprintf("ApplyProfile(%#x)", bits)
			if gotCuts, wantCuts := m.ApplyProfile(tr), ref.applyProfile(tr, pages); gotCuts != wantCuts {
				t.Fatalf("step %d %s: %d cuts, reference %d", step, desc, gotCuts, wantCuts)
			}
		case 5:
			desc = fmt.Sprintf("CollapseSysScoped(GPU %d, page %d)", gpu, first)
			got, want = m.CollapseSysScoped(gpu, memsys.VPN(first)), ref.collapse(gpu, memsys.VPN(first))
		}

		for _, sentinel := range []error{memsys.ErrOutOfMemory, memsys.ErrLastSubscriber} {
			if errors.Is(got, sentinel) != errors.Is(want, sentinel) {
				t.Fatalf("step %d %s: error %v, reference %v", step, desc, got, want)
			}
		}
		if (got == nil) != (want == nil) {
			t.Fatalf("step %d %s: error %v, reference %v", step, desc, got, want)
		}
		for v := memsys.VPN(0); v < pages; v++ {
			p := ref.pages[v]
			for g := 0; g < gpus; g++ {
				gotM, gotOK := m.Translate(g, v)
				wantM, wantOK := ref.pte[refKey{g, v}]
				if gotOK != wantOK || gotM != wantM {
					t.Fatalf("step %d %s: GPU %d page %d maps %+v (%v), reference %+v (%v)",
						step, desc, g, v, gotM, gotOK, wantM, wantOK)
				}
			}
			if got, want := m.Subscribers(v), ref.subscribers(v); got != want {
				t.Fatalf("step %d %s: page %d subscribers %v, reference %v", step, desc, v, got, want)
			}
			subs, gps := m.gpsSubscribers(v)
			if wantGPS := p != nil && p.gpsRegion && !p.downgraded; gps != wantGPS || gps && subs != p.subs {
				t.Fatalf("step %d %s: page %d GPS-TLB source (%v, %v), reference GPS %v", step, desc, v, subs, gps, wantGPS)
			}
			if got, want := m.Manual(v), p != nil && p.manual; got != want {
				t.Fatalf("step %d %s: page %d manual %v, reference %v", step, desc, v, got, want)
			}
			if after := managerState(m, gpus, v); wasAllocated[v] && after != before[v] && !remapped[v] {
				t.Fatalf("step %d %s: page %d changed without a remap:\n%s\n%s", step, desc, v, before[v], after)
			}
		}
		for g := 0; g < gpus; g++ {
			if int(m.used[g]) != ref.used[g] {
				t.Fatalf("step %d %s: GPU %d holds %d pages, reference %d", step, desc, g, m.used[g], ref.used[g])
			}
		}
	}
	want := map[int]int{}
	for _, p := range ref.pages {
		if p.gpsRegion {
			want[p.subs.Count()]++
		}
	}
	if got := m.SubscriberHistogram(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("subscriber histogram %v, reference %v", got, want)
	}
}

// TestManagerMatchesPerGPUReference holds the one page-state table to a
// reference built like per-GPU page tables, first on the case where the
// two could most easily part: a non-subscriber keeps mapping the GPU it was
// pointed at, even after that GPU leaves, so its host is history and not a
// function of the current subscribers. Then on seeded random call streams.
func TestManagerMatchesPerGPUReference(t *testing.T) {
	t.Run("stale host", func(t *testing.T) {
		m := newTestManager(t, 4)
		if err := m.AllocGPS(0, page, memsys.AllGPUs(4), false); err != nil {
			t.Fatal(err)
		}
		tr := NewAccessTracker(testGeom(), 0, page, 4)
		tr.Start()
		tr.RecordTLBMiss(2, 0)
		tr.RecordTLBMiss(3, 0)
		tr.Stop()
		if cuts := m.ApplyProfile(tr); cuts != 2 {
			t.Fatalf("cuts = %d, want 2", cuts)
		}
		if got := m.Subscribers(0); got != memsys.SetOf(2, 3) {
			t.Fatalf("subscribers = %v, want {2,3}", got)
		}
		// GPU 0 left first, to GPU 1; GPU 1 left next, to GPU 2.
		wantMapping(t, m, 0, 0, 1, true)
		wantMapping(t, m, 1, 0, 2, true)
		wantMapping(t, m, 2, 0, 2, true)
		wantMapping(t, m, 3, 0, 3, true)

		// The same case as a call stream through the reference: 4 GPUs,
		// AllocGPS(page 0, all), ApplyProfile with GPUs 2 and 3 touching
		// page 0 (bits 2 and 3 of the profile word).
		runManagerOps(t, []byte{2, 5, 0, 0, 0, 0x0f, 4, 0x0c, 0, 0})
	})
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 2+4*120)
		rng.Read(data)
		runManagerOps(t, data)
		if t.Failed() {
			t.Fatalf("seed %d", seed)
		}
	}
}

// FuzzManager drives the reference comparison of
// TestManagerMatchesPerGPUReference with arbitrary call streams.
func FuzzManager(f *testing.F) {
	f.Add([]byte{2, 5, 0, 0, 0, 0x0f, 4, 0x0c, 0, 0})
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 2+4*40)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runManagerOps(t, data) })
}
