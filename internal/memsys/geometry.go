// Package memsys implements the GPU virtual-memory substrate GPS builds on:
// address geometry (with the paper's PTE sizing arithmetic), dense per-page
// storage (PageMap), subscriber sets, and set-associative TLBs. The page
// state itself (who maps what, the GPS bit, the subscribers) is one PageMap
// of entries kept by core.Manager.
package memsys

import (
	"fmt"
	"math/bits"
)

// VAddr is a virtual address in the shared multi-GPU address space.
type VAddr uint64

// VPN is a virtual page number.
type VPN uint64

// Geometry fixes the translation granularities of the simulated machine.
type Geometry struct {
	PageBytes uint64 // virtual memory page size
	LineBytes uint64 // cache block size
	VABits    int    // virtual address width
	PABits    int    // physical address width
}

// NewGeometry validates and returns a Geometry.
func NewGeometry(pageBytes, lineBytes uint64, vaBits, paBits int) (Geometry, error) {
	g := Geometry{PageBytes: pageBytes, LineBytes: lineBytes, VABits: vaBits, PABits: paBits}
	if pageBytes == 0 || pageBytes&(pageBytes-1) != 0 {
		return g, fmt.Errorf("memsys: page size %d is not a power of two", pageBytes)
	}
	if lineBytes == 0 || lineBytes&(lineBytes-1) != 0 {
		return g, fmt.Errorf("memsys: line size %d is not a power of two", lineBytes)
	}
	if lineBytes > pageBytes {
		return g, fmt.Errorf("memsys: line %d exceeds page %d", lineBytes, pageBytes)
	}
	if vaBits <= g.PageShift() || vaBits > 64 {
		return g, fmt.Errorf("memsys: VA width %d invalid for page shift %d", vaBits, g.PageShift())
	}
	if paBits <= g.PageShift() || paBits > 64 {
		return g, fmt.Errorf("memsys: PA width %d invalid for page shift %d", paBits, g.PageShift())
	}
	return g, nil
}

// MustGeometry is NewGeometry for known-good literals; it panics on error.
func MustGeometry(pageBytes, lineBytes uint64, vaBits, paBits int) Geometry {
	g, err := NewGeometry(pageBytes, lineBytes, vaBits, paBits)
	if err != nil {
		panic(err)
	}
	return g
}

// PageShift returns log2(PageBytes).
func (g Geometry) PageShift() int { return bits.TrailingZeros64(g.PageBytes) }

// LineShift returns log2(LineBytes).
func (g Geometry) LineShift() int { return bits.TrailingZeros64(g.LineBytes) }

// VPNBits returns the number of bits in a virtual page number.
func (g Geometry) VPNBits() int { return g.VABits - g.PageShift() }

// PPNBits returns the number of bits in a physical page number.
func (g Geometry) PPNBits() int { return g.PABits - g.PageShift() }

// VPNOf returns the virtual page number containing va.
func (g Geometry) VPNOf(va VAddr) VPN { return VPN(uint64(va) >> g.PageShift()) }

// LineOf returns the cache-line index (global, not per-page) containing va.
func (g Geometry) LineOf(va VAddr) uint64 { return uint64(va) >> g.LineShift() }

// PageBase returns the first address of the page containing va.
func (g Geometry) PageBase(va VAddr) VAddr {
	return VAddr(uint64(va) &^ (g.PageBytes - 1))
}

// LineBase returns the first address of the cache line containing va.
func (g Geometry) LineBase(va VAddr) VAddr {
	return VAddr(uint64(va) &^ (g.LineBytes - 1))
}

// PageOffset returns va's offset within its page.
func (g Geometry) PageOffset(va VAddr) uint64 { return uint64(va) & (g.PageBytes - 1) }

// LinesPerPage returns the number of cache lines in one page.
func (g Geometry) LinesPerPage() uint64 { return g.PageBytes / g.LineBytes }

// PagesIn returns the VPNs of all pages overlapping [base, base+size).
func (g Geometry) PagesIn(base VAddr, size uint64) []VPN {
	if size == 0 {
		return nil
	}
	first := g.VPNOf(base)
	last := g.VPNOf(base + VAddr(size-1))
	out := make([]VPN, 0, last-first+1)
	for v := first; v <= last; v++ {
		out = append(out, v)
	}
	return out
}

// GPSPTEBits returns the minimum size in bits of one GPS page-table entry
// for a system with numGPUs GPUs: the VPN tag plus one PPN slot per possible
// remote subscriber. With 64 KB pages (VPN 33 bits, PPN 31 bits) and 4 GPUs
// this is 126 bits, matching Section 5.2.
func (g Geometry) GPSPTEBits(numGPUs int) int {
	return g.VPNBits() + (numGPUs-1)*g.PPNBits()
}
