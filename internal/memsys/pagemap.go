package memsys

import (
	"fmt"
	"math/bits"
)

// RegionSlotShift is log2 of the 8 GB granularity the workload generators
// align every region to (each region starts at a distinct multiple of 8 GB
// and never spans an 8 GB boundary). The same invariant the engine's
// RegionTable exploits for O(1) address-to-region resolution makes dense
// per-page state cheap: a virtual page number splits into a small slot index
// and a bounded offset within the slot.
const RegionSlotShift = 33

// PageMap is dense per-page storage indexed by virtual page number: a slab
// of T per 8 GB region slot, allocated lazily and sized to the highest page
// actually touched (regions fill their slot from the base, so a slab never
// outgrows its region's page count). It replaces map[VPN]T on the
// simulator's per-access hot path with two array indexings.
//
// The zero value of T must mean "absent": ForEach visits every backed entry,
// including ones only ever read through At, and callers distinguish real
// entries by their own presence encoding (a non-zero kind, a non-zero
// owner+1).
//
// Pointers returned by At and Peek stay valid until a later At touches a
// higher page of the same slot and grows the slab. Callers that cache
// entry pointers across accesses must either re-fetch when the page number
// changes (the caching pattern the paradigm models use) or Reserve the full
// range up front so slabs never grow.
type PageMap[T any] struct {
	slotShift uint   // log2 of pages per slot
	offMask   uint64 // pages per slot - 1
	slabs     [][]T
}

// NewPageMap builds an empty map for pages of pageBytes (a power of two no
// larger than the 8 GB slot granularity).
func NewPageMap[T any](pageBytes uint64) *PageMap[T] {
	if pageBytes == 0 || pageBytes&(pageBytes-1) != 0 {
		panic(fmt.Sprintf("memsys: page size %d is not a power of two", pageBytes))
	}
	pageShift := uint(bits.TrailingZeros64(pageBytes))
	if pageShift > RegionSlotShift {
		panic(fmt.Sprintf("memsys: page size %d exceeds the 8 GB region slot", pageBytes))
	}
	slotShift := RegionSlotShift - pageShift
	return &PageMap[T]{slotShift: slotShift, offMask: 1<<slotShift - 1}
}

// At returns the entry for vpn, allocating or growing the backing slab as
// needed. The pointer is writable and stays valid until the slab grows (see
// the type comment).
func (m *PageMap[T]) At(vpn uint64) *T {
	slot := vpn >> m.slotShift
	off := vpn & m.offMask
	if slot < uint64(len(m.slabs)) {
		if s := m.slabs[slot]; off < uint64(len(s)) {
			return &s[off]
		}
	}
	return &m.grow(slot, off)[off]
}

// Peek returns the entry for vpn if its slab already covers it, or nil. It
// never allocates.
func (m *PageMap[T]) Peek(vpn uint64) *T {
	slot := vpn >> m.slotShift
	if slot >= uint64(len(m.slabs)) {
		return nil
	}
	s := m.slabs[slot]
	off := vpn & m.offMask
	if off >= uint64(len(s)) {
		return nil
	}
	return &s[off]
}

// Reserve pre-sizes the backing slabs to cover every page of [first,
// first+count), so later At calls in that range never grow a slab (and
// entry pointers into it stay stable).
func (m *PageMap[T]) Reserve(first, count uint64) {
	if count == 0 {
		return
	}
	last := first + count - 1
	for slot := first >> m.slotShift; slot <= last>>m.slotShift; slot++ {
		hi := m.offMask
		if slot == last>>m.slotShift {
			hi = last & m.offMask
		}
		m.grow(slot, hi)
	}
}

// grow extends the slabs so that slabs[slot][off] exists and returns the
// slot's slab. Slab sizes double (from a small floor) up to the slot's page
// capacity, so repeated At calls over a region cost amortized O(1).
func (m *PageMap[T]) grow(slot, off uint64) []T {
	if slot >= uint64(len(m.slabs)) {
		slabs := make([][]T, slot+1)
		copy(slabs, m.slabs)
		m.slabs = slabs
	}
	old := m.slabs[slot]
	if off < uint64(len(old)) {
		return old
	}
	n := uint64(256)
	for n <= off {
		n *= 2
	}
	if max := m.offMask + 1; n > max {
		n = max
	}
	s := make([]T, n)
	copy(s, old)
	m.slabs[slot] = s
	return s
}

// ForEach visits every backed entry in ascending page order, including
// zero-valued ones; fn can mutate entries through the pointer. Callers
// filter absent entries via their own presence encoding.
func (m *PageMap[T]) ForEach(fn func(vpn uint64, v *T)) {
	for slot, s := range m.slabs {
		base := uint64(slot) << m.slotShift
		for off := range s {
			fn(base+uint64(off), &s[off])
		}
	}
}
