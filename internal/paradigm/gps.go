package paradigm

import (
	"fmt"

	"gps/internal/core"
	"gps/internal/engine"
	"gps/internal/memsys"
	"gps/internal/trace"
)

// gpsMode selects the subscription management strategy (Section 3.2).
type gpsMode int

const (
	// gpsSubscribedByDefault: all GPUs tentatively subscribe at allocation;
	// profiling unsubscribes non-consumers (the paper's implementation).
	gpsSubscribedByDefault gpsMode = iota
	// gpsNoSubscription: all-to-all replication forever (Figure 11 ablation).
	gpsNoSubscription
	// gpsUnsubscribedByDefault: pages start with a single subscriber; a GPU
	// subscribes on its first read during profiling, paying a page
	// population stall (the Section 3.2 alternative the paper rejects as
	// "more expensive").
	gpsUnsubscribedByDefault
)

// gpsModel is the paper's proposal wired together end to end: shared
// regions are allocated in the GPS address space with every GPU initially
// subscribed (subscribed-by-default profiling, Section 5.2); conventional
// TLB misses during the profiling iteration feed the access tracking unit;
// cuGPSTrackingStop unsubscribes untouched pages and downgrades
// single-subscriber pages; thereafter weak stores coalesce in the remote
// write queue and fan out through the GPS address translation unit to every
// remote subscriber's replica.
type gpsModel struct {
	base
	mgr     *core.Manager
	convTLB []*memsys.TLB[core.Mapping]
	wq      []*core.WriteQueue
	xu      []*core.TranslationUnit
	runs    []drainRun // per GPU: drained lines awaiting translation
	tracker *core.AccessTracker

	mode      gpsMode
	profiling bool
	subHist   map[int]int
	forwarded uint64 // loads served from the write queue
}

// drainRun is n consecutive drained lines of page vpn from one GPU's write
// queue, translated together when the run ends (settle).
type drainRun struct {
	vpn memsys.VPN
	n   uint64
}

func newGPS(meta trace.Meta, cfg Config, mode gpsMode) (*gpsModel, error) {
	name := "GPS"
	switch mode {
	case gpsNoSubscription:
		name = "GPS-nosub"
	case gpsUnsubscribedByDefault:
		name = "GPS-unsub-default"
	}
	m := &gpsModel{
		base: newBase(name, meta, cfg),
		mode: mode,
	}
	mgr, err := core.NewManager(m.geom, m.n, cfg.Machine.GPU.GlobalMemory)
	if err != nil {
		return nil, err
	}
	m.mgr = mgr

	// Allocate every region: shared regions join the GPS address space with
	// all GPUs subscribed; private regions are pinned on their owner.
	for _, r := range meta.Regions {
		switch r.Kind {
		case trace.RegionShared:
			subs := memsys.AllGPUs(m.n)
			if mode == gpsUnsubscribedByDefault {
				subs = memsys.SetOf(privateOwner(&r, 0))
			}
			if r.ManualSubscribers != nil {
				subs = memsys.SetOf(r.ManualSubscribers...)
			}
			if err := mgr.AllocGPS(memsys.VAddr(r.Base), r.Size, subs, r.ManualSubscribers != nil); err != nil {
				return nil, fmt.Errorf("paradigm: GPS alloc %q: %w", r.Name, err)
			}
		case trace.RegionPrivate:
			owner := privateOwner(&r, 0)
			if err := mgr.AllocPinned(memsys.VAddr(r.Base), r.Size, owner); err != nil {
				return nil, fmt.Errorf("paradigm: pinned alloc %q: %w", r.Name, err)
			}
		}
	}

	// Access tracking unit over the span of all shared regions. A trace
	// without a profiling window (ProfilePhases == 0) never unsubscribes:
	// the program did not call cuGPSTrackingStart.
	lo, hi := sharedSpan(meta.Regions)
	if hi > lo && meta.ProfilePhases > 0 {
		m.tracker = core.NewAccessTracker(m.geom, memsys.VAddr(lo), hi-lo, m.n)
		m.tracker.Start() // cuGPSTrackingStart() before the first kernel
		m.profiling = true
	}

	gpu := cfg.Machine.GPU
	m.runs = make([]drainRun, m.n)
	for g := 0; g < m.n; g++ {
		g := g
		m.convTLB = append(m.convTLB, memsys.NewTLB[core.Mapping](gpu.TLBEntries, gpu.TLBWays))
		m.xu = append(m.xu, core.NewTranslationUnit(g, cfg.GPSTLBEntries, cfg.GPSTLBWays, mgr))
		m.wq = append(m.wq, core.NewWriteQueue(m.geom, cfg.WriteQueueEntries, cfg.WriteQueueWatermark,
			func(line memsys.VAddr, n uint64) { m.drained(g, line, n) }))
	}

	// Translation changes (unsubscription, downgrade, collapse) shoot down
	// every TLB's stale entries. The model settles every drain run before
	// it asks the manager for one, so no run can straddle the change.
	mgr.SetRemapHook(func(vpn memsys.VPN) {
		for g := 0; g < m.n; g++ {
			if m.runs[g].n != 0 {
				panic(fmt.Sprintf("paradigm: GPS page %#x remapped under GPU %d's unsettled drain run", uint64(vpn), g))
			}
			m.convTLB[g].Invalidate(vpn)
			m.xu[g].InvalidateTLB(vpn)
		}
	})
	return m, nil
}

func sharedSpan(regions []trace.Region) (lo, hi uint64) {
	lo, hi = ^uint64(0), 0
	for _, r := range regions {
		if r.Kind != trace.RegionShared {
			continue
		}
		if r.Base < lo {
			lo = r.Base
		}
		if end := r.Base + r.Size; end > hi {
			hi = end
		}
	}
	if hi <= lo {
		return 0, 0
	}
	return lo, hi
}

// drained extends gpu's drain run by n consecutive lines from line leaving
// its write queue, settling the run first at each line on another page. A
// queue run stays in one 64-line group, which can span two small pages.
func (m *gpsModel) drained(gpu int, line memsys.VAddr, n uint64) {
	r := &m.runs[gpu]
	for n > 0 {
		k := min(n, (m.geom.PageBytes-m.geom.PageOffset(line))/lineBytes)
		if vpn := m.geom.VPNOf(line); vpn != r.vpn || r.n == 0 {
			m.settle(gpu)
			r.vpn = vpn
		}
		r.n += k
		line += memsys.VAddr(k * lineBytes)
		n -= k
	}
}

// settle translates gpu's drain run with one translation-unit call and
// charges its lines to every remote subscriber of the page.
func (m *gpsModel) settle(gpu int) {
	r := &m.runs[gpu]
	if r.n == 0 {
		return
	}
	push := m.profiles[gpu].Push
	bytes := r.n * lineBytes
	m.xu[gpu].Process(r.vpn, r.n).ForEach(func(dst int) { push[dst] += bytes })
	r.n = 0
}

// settleAll settles every GPU's drain run. It runs before each manager call
// that can change a page's translation and at the end of every phase, so a
// run is translated against the page table its lines drained under and
// charged to the phase they drained in.
func (m *gpsModel) settleAll() {
	for g := range m.runs {
		m.settle(g)
	}
}

// translate resolves one line of vpn in gpu's conventional TLB, reading
// the manager's page table on a miss and feeding the access tracking unit
// for GPS pages while profiling. It returns the GPU the access goes to and
// the GPS bit. Access calls it for the first line of each page piece only:
// the piece's other lines probe the entry it found or filled.
func (m *gpsModel) translate(gpu int, vpn uint64) (owner int, gps bool) {
	v := memsys.VPN(vpn)
	mp, ok := m.convTLB[gpu].Lookup(v)
	if !ok {
		if mp, ok = m.mgr.Translate(gpu, v); !ok {
			// Access outside any allocation: treat as local scratch.
			return gpu, false
		}
		m.convTLB[gpu].Fill(v, mp)
		if mp.GPS && m.tracker != nil {
			m.tracker.RecordTLBMiss(gpu, v)
		}
	}
	return int(mp.Owner), mp.GPS
}

// Access takes each span as one page piece (the engine cuts spans at page
// ends): it translates the piece's first line, charges the piece's bytes at
// once wherever every line takes the same decision, and pushes a piece of
// weak stores to the write queue in one call. Only write-queue forwarding
// and atomics, which never coalesce, stay per line. A line that remaps the
// page (a sys-scoped collapse, an unsubscribed-by-default subscription)
// shoots down the TLB entry, so it ends its piece and the rest is
// translated again; such a line always starts its piece. The k-1 lines
// after the first then hit (or, for lines outside every allocation, miss)
// exactly as k-1 Lookups would, which LookupN counts in one probe.
func (m *gpsModel) Access(gpu int, b *engine.Batch) {
	prof := &m.profiles[gpu]
	wq := m.wq[gpu]
	for _, s := range b.Spans {
		if s.Op == trace.OpFence {
			if s.Scope == trace.ScopeSys {
				wq.Flush()
			}
			continue
		}
		for line, n := s.Line, s.N; n > 0; {
			k := n
			vpn := m.vpn(line)
			owner, gps := m.translate(gpu, vpn)
			bytes := uint64(k) * lineBytes
			switch {
			case s.Op == trace.OpLoad && owner == gpu:
				prof.LocalBytes += bytes
			case s.Op == trace.OpLoad && !gps:
				prof.RemoteRead[owner] += bytes
				prof.RemoteReadLines += uint64(k)
			case s.Op == trace.OpLoad:
				k = m.loadRemoteGPS(gpu, owner, line, k)
			case !gps:
				// Conventional page: local or plain remote store.
				if owner == gpu {
					prof.LocalBytes += bytes
				} else {
					prof.Push[owner] += bytes
				}
			case s.Scope == trace.ScopeSys:
				// Sys-scoped store to a GPS page: collapse to a single copy
				// (Section 5.3). The collapse remaps the page to GPS=false on
				// every GPU, so it ends the piece after its line and the rest
				// is translated again as a conventional store.
				m.settleAll()
				if err := m.mgr.CollapseSysScoped(gpu, memsys.VPN(vpn)); err != nil {
					panic(fmt.Sprintf("paradigm: sys-scoped collapse: %v", err))
				}
				prof.Shootdowns++
				prof.LocalBytes += lineBytes
				k = 1
			default:
				if owner == gpu {
					// Local replica updated on the store path (W3 in Figure 7).
					prof.LocalBytes += bytes
				}
				if s.Op == trace.OpAtomic {
					for i := uint64(0); i < uint64(k); i++ {
						wq.PushAtomic(memsys.VAddr(line + i*lineBytes))
					}
				} else {
					wq.PushStores(memsys.VAddr(line), uint64(k))
				}
			}
			if k > 1 {
				m.convTLB[gpu].LookupN(memsys.VPN(vpn), uint64(k-1))
			}
			line, n = line+uint64(k)*lineBytes, n-k
		}
	}
}

// loadRemoteGPS serves loads of the first k lines of a piece of a GPS page
// that gpu does not hold a replica of, and returns how many it served
// before a subscription ended the piece.
func (m *gpsModel) loadRemoteGPS(gpu, owner int, line uint64, k uint32) uint32 {
	prof := &m.profiles[gpu]
	wq := m.wq[gpu]
	subscribing := m.mode == gpsUnsubscribedByDefault && m.profiling && !m.mgr.Manual(memsys.VPN(m.vpn(line)))
	for i := uint32(0); i < k; i++ {
		va := memsys.VAddr(line + uint64(i)*lineBytes)
		if wq.Contains(va) {
			// The pending block in the local write queue forwards its value
			// (Section 5.1): no interconnect crossing.
			m.forwarded++
			prof.LocalBytes += lineBytes
			continue
		}
		if subscribing {
			if i > 0 {
				return i // the subscribing line starts the next piece
			}
			// Unsubscribed-by-default profiling: the first read subscribes
			// this GPU, populating a local replica from an existing
			// subscriber — a whole-page stall, the cost the paper cites for
			// rejecting this mode.
			m.settleAll()
			if err := m.mgr.Subscribe(gpu, m.geom.PageBase(va), m.geom.PageBytes); err == nil {
				prof.RemoteRead[owner] += m.geom.PageBytes
				prof.Faults++
				prof.LocalBytes += lineBytes
				return 1
			}
		}
		// Not a subscriber: the load issues remotely to one of the
		// subscribers (Section 3.2) — a penalty, never a fault.
		prof.RemoteRead[owner] += lineBytes
		prof.RemoteReadLines++
	}
	return k
}

func (m *gpsModel) EndPhase(index int) {
	// The implicit sys-scoped release at the end of every grid flushes the
	// remote write queues (Section 3.3).
	for _, q := range m.wq {
		q.Flush()
	}
	m.settleAll()
	if m.profiling && index == m.meta.ProfilePhases-1 {
		m.tracker.Stop() // cuGPSTrackingStop()
		if m.mode != gpsNoSubscription {
			// Either profiling mode feeds the captured sharer information
			// into the subscription tracking mechanism (Section 3.2): GPUs
			// that never touched a page are unsubscribed, including the
			// initial host of unsubscribed-by-default pages.
			m.mgr.ApplyProfile(m.tracker)
		}
		m.profiling = false
	}
	if !m.profiling && m.subHist == nil {
		m.subHist = m.mgr.SubscriberHistogram()
	}
}

func (m *gpsModel) Finish(res *engine.Result) {
	res.SubscriberHist = m.subHist
	res.ForwardedLoads = m.forwarded
	for g := 0; g < m.n; g++ {
		res.WriteQueueHitRate = append(res.WriteQueueHitRate, m.wq[g].Stats().HitRate())
		res.GPSTLBHitRate = append(res.GPSTLBHitRate, m.xu[g].Stats().HitRate())
		res.ConvTLBHitRate = append(res.ConvTLBHitRate, m.convTLB[g].HitRate())
	}
}
