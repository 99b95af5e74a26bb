package memsys

import "fmt"

// TLB is a set-associative translation lookaside buffer with true-LRU
// replacement within each set. The payload type is generic so the same
// structure backs both the conventional last-level TLB (payload: the GPU a
// page's accesses go to and the GPS bit) and the GPS-TLB (payload: the
// page's subscriber set).
type TLB[T any] struct {
	sets    [][]tlbEntry[T]
	setMask uint64 // len(sets)-1 when a power of two (the common case)
	pow2    bool
	ways    int
	clock   uint64
	hits    uint64
	misses  uint64
}

type tlbEntry[T any] struct {
	vpn     VPN
	lastUse uint64
	payload T
	valid   bool
}

// NewTLB builds a TLB with the given total entry count and associativity.
func NewTLB[T any](entries, ways int) *TLB[T] {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic(fmt.Sprintf("memsys: invalid TLB geometry %d entries / %d ways", entries, ways))
	}
	numSets := entries / ways
	sets := make([][]tlbEntry[T], numSets)
	for i := range sets {
		sets[i] = make([]tlbEntry[T], ways)
	}
	return &TLB[T]{
		sets:    sets,
		setMask: uint64(numSets - 1),
		pow2:    numSets&(numSets-1) == 0,
		ways:    ways,
	}
}

func (t *TLB[T]) setOf(vpn VPN) []tlbEntry[T] {
	// Same set mapping either way; the mask just avoids a hardware divide
	// on the per-line lookup path.
	if t.pow2 {
		return t.sets[uint64(vpn)&t.setMask]
	}
	return t.sets[uint64(vpn)%uint64(len(t.sets))]
}

// Lookup probes the TLB. On a hit it refreshes the entry's recency and
// returns the payload.
func (t *TLB[T]) Lookup(vpn VPN) (T, bool) { return t.LookupN(vpn, 1) }

// LookupN stands for n >= 1 back-to-back Lookups of vpn in one probe. With
// true LRU on a global clock, the n Lookups touch only the one entry they
// find (or none), so the state they leave is arithmetic: the clock advances
// by n and the entry's recency is the last of them, with n hits counted,
// or n misses when vpn is absent.
func (t *TLB[T]) LookupN(vpn VPN, n uint64) (T, bool) {
	t.clock += n
	set := t.setOf(vpn)
	for i := range set {
		if set[i].valid && set[i].vpn == vpn {
			set[i].lastUse = t.clock
			t.hits += n
			return set[i].payload, true
		}
	}
	t.misses += n
	var zero T
	return zero, false
}

// Fill installs a translation, evicting the LRU way of the set if needed.
func (t *TLB[T]) Fill(vpn VPN, payload T) {
	t.clock++
	set := t.setOf(vpn)
	victim := -1
	for i := range set {
		if set[i].valid && set[i].vpn == vpn {
			set[i].payload = payload
			set[i].lastUse = t.clock
			return
		}
	}
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if victim < 0 || set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	set[victim] = tlbEntry[T]{vpn: vpn, lastUse: t.clock, payload: payload, valid: true}
}

// Invalidate removes the translation for vpn (a single-page shootdown); it
// reports whether an entry was present.
func (t *TLB[T]) Invalidate(vpn VPN) bool {
	set := t.setOf(vpn)
	for i := range set {
		if set[i].valid && set[i].vpn == vpn {
			set[i].valid = false
			return true
		}
	}
	return false
}

// HitRate returns hits / lookups, or 0 if no lookups occurred.
func (t *TLB[T]) HitRate() float64 {
	total := t.hits + t.misses
	if total == 0 {
		return 0
	}
	return float64(t.hits) / float64(total)
}
