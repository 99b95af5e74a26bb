package core

import (
	"errors"
	"fmt"

	"gps/internal/memsys"
)

// pageKind is an allocated page's kind; the zero value marks an absent page.
type pageKind uint8

const (
	pageAbsent    pageKind = iota
	pagePinned             // conventional page allocated by AllocPinned
	pageGPS                // replicated GPS page: the GPS bit is set on every GPU
	pageCollapsed          // GPS page downgraded or collapsed to a single copy
)

// pageEntry is the manager's whole state for one page. subs is the
// subscriber set (the single owner once the page is pinned or collapsed).
// host[g] is the GPU that GPU g's accesses go to: g itself for a
// subscriber, and for a non-subscriber the first subscriber at the moment
// its mapping was last written (at allocation, or when it left). It is
// history, not a function of subs: a GPU that left keeps mapping the host
// it left to, even after that host leaves too.
type pageEntry struct {
	kind   pageKind
	manual bool // manual subscriptions: profiling never prunes the page
	subs   memsys.SubscriberSet
	host   [memsys.MaxGPUs]uint8
}

// Mapping is one GPU's translation of a page: the GPU its accesses go to
// and the GPS bit (stores to the page fork to the GPS unit, Section 5.2).
type Mapping struct {
	Owner uint8
	GPS   bool
}

// Manager is the GPS driver's memory manager. It keeps one table of page
// state, from which every GPU's translation and the GPS address
// translation units' subscriber sets are read, and a used-page count per
// GPU against its memory capacity. It implements allocation, manual and
// automatic subscription, profiling-driven unsubscription, downgrade of
// single-subscriber pages, and sys-scope collapse.
type Manager struct {
	geom     memsys.Geometry
	numGPUs  int
	pages    *memsys.PageMap[pageEntry]
	used     []uint64 // pages held per GPU
	capacity uint64   // pages each GPU can hold

	// onRemap, when set, is invoked for every page whose translation
	// changed, so the engine can shoot down conventional and GPS TLBs.
	onRemap func(vpn memsys.VPN)
}

// NewManager builds a manager for numGPUs GPUs each with memPerGPU bytes of
// physical memory.
func NewManager(geom memsys.Geometry, numGPUs int, memPerGPU uint64) (*Manager, error) {
	if numGPUs < 1 || numGPUs > memsys.MaxGPUs {
		return nil, fmt.Errorf("core: GPU count %d out of range", numGPUs)
	}
	if memPerGPU < geom.PageBytes {
		return nil, fmt.Errorf("core: capacity %d below one page", memPerGPU)
	}
	return &Manager{
		geom:     geom,
		numGPUs:  numGPUs,
		pages:    memsys.NewPageMap[pageEntry](geom.PageBytes),
		used:     make([]uint64, numGPUs),
		capacity: memPerGPU / geom.PageBytes,
	}, nil
}

// SetRemapHook installs a callback fired for every page whose translation
// changes (for TLB shootdown modeling).
func (m *Manager) SetRemapHook(fn func(vpn memsys.VPN)) { m.onRemap = fn }

func (m *Manager) remapped(vpn memsys.VPN) {
	if m.onRemap != nil {
		m.onRemap(vpn)
	}
}

// entry returns vpn's page entry, or nil if the page is not allocated.
func (m *Manager) entry(vpn memsys.VPN) *pageEntry {
	if e := m.pages.Peek(uint64(vpn)); e != nil && e.kind != pageAbsent {
		return e
	}
	return nil
}

// Translate returns gpu's mapping of vpn, or false if the page is not
// allocated.
func (m *Manager) Translate(gpu int, vpn memsys.VPN) (Mapping, bool) {
	e := m.entry(vpn)
	if e == nil {
		return Mapping{}, false
	}
	return Mapping{Owner: e.host[gpu], GPS: e.kind == pageGPS}, true
}

// gpsSubscribers returns vpn's subscriber set, or false if vpn is not a
// replicated GPS page.
func (m *Manager) gpsSubscribers(vpn memsys.VPN) (memsys.SubscriberSet, bool) {
	if e := m.entry(vpn); e != nil && e.kind == pageGPS {
		return e.subs, true
	}
	return 0, false
}

// Subscribers returns the current subscriber set of a page: the replicas
// of a GPS page, or the single owner of a pinned or collapsed page.
func (m *Manager) Subscribers(vpn memsys.VPN) memsys.SubscriberSet {
	if e := m.entry(vpn); e != nil {
		return e.subs
	}
	return 0
}

// Manual reports whether vpn was allocated with manual subscriptions.
func (m *Manager) Manual(vpn memsys.VPN) bool {
	e := m.entry(vpn)
	return e != nil && e.manual
}

// room fails with memsys.ErrOutOfMemory if gpu's memory is full.
func (m *Manager) room(gpu int) error {
	if m.used[gpu] >= m.capacity {
		return fmt.Errorf("%w: GPU %d (%d pages)", memsys.ErrOutOfMemory, gpu, m.capacity)
	}
	return nil
}

// fresh returns vpn's entry for a new allocation, failing if the page is
// already allocated.
func (m *Manager) fresh(vpn memsys.VPN) (*pageEntry, error) {
	e := m.pages.At(uint64(vpn))
	if e.kind != pageAbsent {
		return nil, fmt.Errorf("core: page %#x already allocated", uint64(vpn))
	}
	return e, nil
}

// single makes e a one-copy page of the given kind on owner, mapped there
// by every GPU.
func (m *Manager) single(e *pageEntry, kind pageKind, owner int) {
	e.kind = kind
	e.subs = memsys.SetOf(owner)
	for g := 0; g < m.numGPUs; g++ {
		e.host[g] = uint8(owner)
	}
}

// AllocPinned allocates [base, base+size) as conventional pages resident on
// gpu (cudaMalloc semantics with peer mappings on every GPU).
func (m *Manager) AllocPinned(base memsys.VAddr, size uint64, gpu int) error {
	if gpu < 0 || gpu >= m.numGPUs {
		return fmt.Errorf("core: GPU %d out of range", gpu)
	}
	m.reserve(base, size)
	for _, vpn := range m.geom.PagesIn(base, size) {
		e, err := m.fresh(vpn)
		if err != nil {
			return err
		}
		if err := m.room(gpu); err != nil {
			return err
		}
		m.used[gpu]++
		m.single(e, pagePinned, gpu)
	}
	return nil
}

// AllocGPS allocates [base, base+size) in the GPS address space with the
// given initial subscribers (cudaMallocGPS; automatic mode starts with all
// GPUs subscribed). Every subscriber receives a local replica; GPUs outside
// the set map the first subscriber. Manual pages keep their subscriptions
// through ApplyProfile.
func (m *Manager) AllocGPS(base memsys.VAddr, size uint64, subs memsys.SubscriberSet, manual bool) error {
	if subs.Empty() {
		return errors.New("core: GPS allocation needs at least one subscriber")
	}
	if subs.First() >= m.numGPUs || subs != subs.Intersect(memsys.AllGPUs(m.numGPUs)) {
		return fmt.Errorf("core: subscriber set %v exceeds %d GPUs", subs, m.numGPUs)
	}
	host := uint8(subs.First())
	m.reserve(base, size)
	for _, vpn := range m.geom.PagesIn(base, size) {
		e, err := m.fresh(vpn)
		if err != nil {
			return err
		}
		// Check every subscriber's room first, so a failed page takes none.
		for g := 0; g < m.numGPUs; g++ {
			if subs.Has(g) {
				if err := m.room(g); err != nil {
					return err
				}
			}
		}
		e.kind, e.manual, e.subs = pageGPS, manual, subs
		for g := 0; g < m.numGPUs; g++ {
			e.host[g] = host
			if subs.Has(g) {
				e.host[g] = uint8(g)
				m.used[g]++
			}
		}
	}
	return nil
}

// reserve sizes the page table for [base, base+size) in one step, so an
// allocation does not grow a slab page by page.
func (m *Manager) reserve(base memsys.VAddr, size uint64) {
	if size == 0 {
		return
	}
	first := m.geom.VPNOf(base)
	last := m.geom.VPNOf(base + memsys.VAddr(size-1))
	m.pages.Reserve(uint64(first), uint64(last-first)+1)
}

// Subscribe adds gpu as a subscriber to every page of [base, base+size),
// allocating local replicas (CU_MEM_ADVISE_GPS_SUBSCRIBE). A page that was
// downgraded or collapsed to one copy stays conventional: subscribing to it
// fails.
func (m *Manager) Subscribe(gpu int, base memsys.VAddr, size uint64) error {
	if gpu < 0 || gpu >= m.numGPUs {
		return fmt.Errorf("core: GPU %d out of range", gpu)
	}
	for _, vpn := range m.geom.PagesIn(base, size) {
		e := m.entry(vpn)
		if e == nil || e.kind != pageGPS {
			return fmt.Errorf("core: page %#x is not a replicated GPS page", uint64(vpn))
		}
		if e.subs.Has(gpu) {
			continue
		}
		if err := m.room(gpu); err != nil {
			return err
		}
		m.used[gpu]++
		e.subs = e.subs.Add(gpu)
		e.host[gpu] = uint8(gpu)
		m.remapped(vpn)
	}
	return nil
}

// Unsubscribe removes gpu from every page of [base, base+size), freeing its
// replicas (CU_MEM_ADVISE_GPS_UNSUBSCRIBE). Removing the last subscriber
// fails with memsys.ErrLastSubscriber and leaves the allocation in place.
// Pages that end up with a single subscriber are downgraded to conventional
// pages (Section 5.2: duplication of writes is wasted effort with one
// subscriber).
func (m *Manager) Unsubscribe(gpu int, base memsys.VAddr, size uint64) error {
	for _, vpn := range m.geom.PagesIn(base, size) {
		if err := m.unsubscribePage(gpu, vpn); err != nil {
			return err
		}
	}
	return nil
}

func (m *Manager) unsubscribePage(gpu int, vpn memsys.VPN) error {
	e := m.entry(vpn)
	if e == nil || e.kind != pageGPS {
		return fmt.Errorf("core: page %#x is not a replicated GPS page", uint64(vpn))
	}
	if !e.subs.Has(gpu) {
		return fmt.Errorf("core: GPU %d is not subscribed to page %#x", gpu, uint64(vpn))
	}
	if e.subs.Count() == 1 {
		return memsys.ErrLastSubscriber
	}
	m.used[gpu]--
	e.subs = e.subs.Remove(gpu)
	// The leaver now maps the page remotely; the GPS bit stays set so its
	// (unexpected) stores still replicate to real subscribers.
	e.host[gpu] = uint8(e.subs.First())
	if e.subs.Count() == 1 {
		m.single(e, pageCollapsed, e.subs.First())
	}
	m.remapped(vpn)
	return nil
}

// ApplyProfile performs the cuGPSTrackingStop() unsubscription sweep: every
// replicated GPS page without manual subscriptions loses the subscribers
// that did not touch it during profiling. A page nobody touched keeps its
// first subscriber (at least one replica must remain). Pages are cut in
// ascending page order and each page's leavers in ascending GPU order,
// which decides the host each leaver maps. It returns the number of
// unsubscriptions performed.
func (m *Manager) ApplyProfile(t *AccessTracker) int {
	cuts := 0
	m.pages.ForEach(func(v uint64, e *pageEntry) {
		if e.kind != pageGPS || e.manual {
			return
		}
		vpn := memsys.VPN(v)
		subs := e.subs
		touched := t.TouchedBy(vpn).Intersect(subs)
		keepOne := touched.Empty()
		subs.ForEach(func(g int) {
			if touched.Has(g) || keepOne && g == subs.First() {
				return
			}
			// The guard above keeps one subscriber, so this cannot fail.
			if err := m.unsubscribePage(g, vpn); err != nil {
				panic(fmt.Sprintf("core: profile unsubscribe: %v", err))
			}
			cuts++
		})
	})
	return cuts
}

// CollapseSysScoped handles a sys-scoped store to a GPS page (Section 5.3):
// the page collapses to a single copy on the writing GPU, is demoted to a
// conventional page, and all other replicas are freed.
func (m *Manager) CollapseSysScoped(writer int, vpn memsys.VPN) error {
	e := m.entry(vpn)
	if e == nil || e.kind == pagePinned {
		return fmt.Errorf("core: page %#x is not a GPS page", uint64(vpn))
	}
	if e.kind == pageCollapsed {
		return nil // already a single copy
	}
	host := writer
	if !e.subs.Has(writer) {
		// The writer holds no replica: collapse to the first subscriber.
		host = e.subs.First()
	}
	e.subs.Remove(host).ForEach(func(g int) { m.used[g]-- })
	m.single(e, pageCollapsed, host)
	m.remapped(vpn)
	return nil
}

// SubscriberHistogram returns, for GPS-region pages, how many pages have
// each subscriber count — the data behind Figure 9. Downgraded and
// collapsed pages count as single-subscriber pages.
func (m *Manager) SubscriberHistogram() map[int]int {
	h := map[int]int{}
	m.pages.ForEach(func(_ uint64, e *pageEntry) {
		if e.kind == pageGPS || e.kind == pageCollapsed {
			h[e.subs.Count()]++
		}
	})
	return h
}
