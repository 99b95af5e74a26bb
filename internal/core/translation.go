package core

import (
	"gps/internal/memsys"
)

// TranslationStats counts GPS address translation unit activity. Every
// drained line counts once, whether it was translated alone or in a run.
type TranslationStats struct {
	Lookups   uint64
	TLBHits   uint64
	TLBMisses uint64
	Packets   uint64 // replicated line packets sent to remote subscribers
	Unmapped  uint64 // drained lines whose page is no longer GPS (raced collapse)
}

// HitRate returns the GPS-TLB hit rate (the §7.4 GPS-TLB metric).
func (s TranslationStats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.TLBHits) / float64(s.Lookups)
}

// TranslationUnit is the per-GPU GPS address translation unit (Section 5.2):
// drained write-queue blocks look up the page's subscriber set in a small
// GPS-TLB, falling back to the manager's page table, and fan out to every
// remote subscriber. The GPS-TLB caches the set by value: every subscriber
// change fires the manager's remap hook, which must invalidate it.
type TranslationUnit struct {
	gpu   int
	tlb   *memsys.TLB[memsys.SubscriberSet]
	mgr   *Manager
	stats TranslationStats
}

// NewTranslationUnit builds gpu's unit over the manager's page table.
func NewTranslationUnit(gpu, tlbEntries, tlbWays int, mgr *Manager) *TranslationUnit {
	return &TranslationUnit{
		gpu: gpu,
		tlb: memsys.NewTLB[memsys.SubscriberSet](tlbEntries, tlbWays),
		mgr: mgr,
	}
}

// Stats returns a snapshot of the unit's counters.
func (u *TranslationUnit) Stats() TranslationStats { return u.stats }

// InvalidateTLB removes a page's cached subscriber set, e.g. after a
// subscription change or a collapse.
func (u *TranslationUnit) InvalidateTLB(vpn memsys.VPN) { u.tlb.Invalidate(vpn) }

// Process translates a run of n >= 1 drained lines of page vpn, back to
// back, and returns the remote subscribers every line goes to. The source
// GPU's own replica was already updated on the store path (W3 in Figure 7),
// so it is not in the set. The run costs one lookup: the first line finds
// or fills the GPS-TLB entry and the other n-1 hit it, which TLB.LookupN
// charges exactly under true LRU. A page that is no longer GPS (collapsed
// or unsubscribed while the lines sat in the queue) is never filled, so
// each line misses, and nothing is replicated. The page table must not
// change between the lines of one run.
func (u *TranslationUnit) Process(vpn memsys.VPN, n uint64) memsys.SubscriberSet {
	u.stats.Lookups += n
	subs, hit := u.tlb.Lookup(vpn)
	if hit {
		u.stats.TLBHits++
	} else {
		var ok bool
		subs, ok = u.mgr.gpsSubscribers(vpn)
		if !ok {
			u.stats.TLBMisses += n
			u.stats.Unmapped += n
			if n > 1 {
				u.tlb.LookupN(vpn, n-1)
			}
			return 0
		}
		u.stats.TLBMisses++
		u.tlb.Fill(vpn, subs)
	}
	if n > 1 {
		u.tlb.LookupN(vpn, n-1)
		u.stats.TLBHits += n - 1
	}
	remote := subs.Remove(u.gpu)
	u.stats.Packets += n * uint64(remote.Count())
	return remote
}
