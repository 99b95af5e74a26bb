// Package funcsim is the functional (value-accurate) companion to the
// timing simulator: a multi-GPU memory with real data in it, implementing
// GPS semantics operationally — per-subscriber replicas, local loads,
// stores coalesced per cache line in each GPU's remote write queue,
// in-order delivery to every subscriber, and full drains at barriers (the
// implicit sys-scoped release at the end of every grid).
//
// The write queue is core.WriteQueue at the paper's size and watermark,
// the same queue whose statistics feed the figures: it decides coalescing,
// watermark drains and flush order, and funcsim only shadows the word
// values of each queued line until the queue's drain sink delivers them.
//
// Its purpose is end-to-end validation of the paper's correctness argument
// (Sections 3.2-3.3): a data-parallel program that synchronizes its
// cross-GPU sharing with barriers computes bit-identical results under GPS
// replication as it does on a single coherent memory — while between
// barriers, remote replicas are legitimately stale (the relaxed behavior
// GPS exploits for coalescing). The tests run a real Jacobi solver both
// ways and compare every word.
package funcsim

import (
	"fmt"
	"math/bits"
	"sort"

	"gps/internal/core"
	"gps/internal/gpuconf"
	"gps/internal/memsys"
)

// Word is the access granularity: 8-byte aligned float64 values.
const wordBytes = 8

// Machine is an n-GPU memory with GPS publish-subscribe semantics.
type Machine struct {
	n            int
	geom         memsys.Geometry
	wordsPerLine int

	replicas []map[uint64]float64      // per GPU: word address -> value
	queues   []*core.WriteQueue        // per GPU
	pending  []map[uint64]*pendingLine // per GPU: queued line -> its values
	subs     map[uint64]uint64         // page -> subscriber bitmask
	defSubs  uint64                    // default: all GPUs

	// Delivered counts lines delivered to remote replicas (traffic proxy).
	Delivered uint64
}

// pendingLine holds the values of one queued cache line: a dense
// word-value vector plus a bitmap of which words the GPU actually wrote.
type pendingLine struct {
	mask []uint64  // bitmap over word slots
	vals []float64 // indexed by word offset within the line
}

// NewMachine builds a machine with all GPUs subscribed to every page.
func NewMachine(n int, pageBytes, lineBytes uint64) (*Machine, error) {
	if n < 1 || n > 64 {
		return nil, fmt.Errorf("funcsim: %d GPUs out of range", n)
	}
	gpu := gpuconf.GV100()
	geom, err := memsys.NewGeometry(pageBytes, lineBytes, gpu.VirtualAddrBits, gpu.PhysicalAddrBits)
	if err != nil {
		return nil, fmt.Errorf("funcsim: %w", err)
	}
	m := &Machine{
		n:            n,
		geom:         geom,
		wordsPerLine: max(1, int(lineBytes/wordBytes)), // sub-word lines hold one word
		subs:         map[uint64]uint64{},
		defSubs:      allMask(n),
	}
	gps := gpuconf.DefaultGPS()
	for g := 0; g < n; g++ {
		m.replicas = append(m.replicas, map[uint64]float64{})
		m.pending = append(m.pending, map[uint64]*pendingLine{})
		m.queues = append(m.queues, core.NewWriteQueue(geom, gps.WriteQueueEntries, gps.HighWatermark,
			func(line memsys.VAddr, n uint64) {
				for i := uint64(0); i < n; i++ {
					m.deliver(g, uint64(line)+i*lineBytes)
				}
			}))
	}
	return m, nil
}

func allMask(n int) uint64 {
	if n == 64 {
		return ^uint64(0)
	}
	return 1<<n - 1
}

// SetSubscribers pins the subscriber set for every page overlapping
// [base, base+size). A GPU new to a page's set gets its replica of the page
// copied from an existing subscriber, as a GPS subscription does. It is an
// error while any GPU still queues a line of those pages: the line's
// delivery would split between the old set and the new one.
func (m *Machine) SetSubscribers(base, size uint64, gpus ...int) error {
	if len(gpus) == 0 {
		return fmt.Errorf("funcsim: empty subscriber set")
	}
	if size == 0 {
		return fmt.Errorf("funcsim: empty address range")
	}
	var mask uint64
	for _, g := range gpus {
		if g < 0 || g >= m.n {
			return fmt.Errorf("funcsim: GPU %d out of range", g)
		}
		mask |= 1 << g
	}
	first, last := base/m.geom.PageBytes, (base+size-1)/m.geom.PageBytes
	for g, lines := range m.pending {
		for line := range lines {
			if p := line / m.geom.PageBytes; p >= first && p <= last {
				return fmt.Errorf("funcsim: GPU %d still queues line %#x of page %d", g, line, p)
			}
		}
	}
	for p := first; p <= last; p++ {
		old := m.subscribers(p * m.geom.PageBytes)
		src := bits.TrailingZeros64(old)
		for added := mask &^ old; added != 0; added &= added - 1 {
			m.copyPage(bits.TrailingZeros64(added), src, p)
		}
		m.subs[p] = mask
	}
	return nil
}

// copyPage makes dst's replica of page p equal src's, absent words
// included.
func (m *Machine) copyPage(dst, src int, p uint64) {
	for off := uint64(0); off < m.geom.PageBytes; off += wordBytes {
		a := p*m.geom.PageBytes + off
		if v, ok := m.replicas[src][a]; ok {
			m.replicas[dst][a] = v
		} else {
			delete(m.replicas[dst], a)
		}
	}
}

func (m *Machine) subscribers(addr uint64) uint64 {
	if mask, ok := m.subs[addr/m.geom.PageBytes]; ok {
		return mask
	}
	return m.defSubs
}

func (m *Machine) subscribed(gpu int, addr uint64) bool {
	return m.subscribers(addr)&(1<<gpu) != 0
}

// locate checks that addr is word-aligned and splits it into its line
// address and its word's offset within that line.
func (m *Machine) locate(addr uint64) (line, w uint64) {
	if addr%wordBytes != 0 {
		panic(fmt.Sprintf("funcsim: unaligned word address %#x", addr))
	}
	line = uint64(m.geom.LineBase(memsys.VAddr(addr)))
	return line, (addr - line) / wordBytes
}

// Store performs a weak store by gpu: the local replica (if subscribed)
// updates immediately — a GPU always reads its own writes — and the line
// enters gpu's write queue for eventual replication to remote subscribers.
func (m *Machine) Store(gpu int, addr uint64, v float64) {
	line, w := m.locate(addr)
	if m.subscribed(gpu, addr) {
		m.replicas[gpu][addr] = v
	}
	p, queued := m.pending[gpu][line]
	if !queued {
		p = &pendingLine{
			mask: make([]uint64, (m.wordsPerLine+63)/64),
			vals: make([]float64, m.wordsPerLine),
		}
		m.pending[gpu][line] = p
	}
	p.mask[w>>6] |= 1 << (w & 63)
	p.vals[w] = v
	if m.queues[gpu].PushStore(memsys.VAddr(addr)) != queued {
		panic(fmt.Sprintf("funcsim: GPU %d line %#x: queue and values disagree on residency", gpu, line))
	}
}

// Load performs a load by gpu: from the local replica when subscribed.
// Otherwise a word pending in gpu's own write queue forwards from there
// (Section 5.1), and any other word is read remotely from the
// lowest-numbered subscriber (Section 3.2: a non-subscriber load does not
// fault, it issues remotely).
func (m *Machine) Load(gpu int, addr uint64) float64 {
	line, w := m.locate(addr)
	if m.subscribed(gpu, addr) {
		return m.replicas[gpu][addr]
	}
	if p := m.pending[gpu][line]; p != nil && p.mask[w>>6]&(1<<(w&63)) != 0 {
		return p.vals[w]
	}
	host := bits.TrailingZeros64(m.subscribers(addr))
	if host >= m.n {
		return 0
	}
	return m.replicas[host][addr]
}

// Drain delivers gpu's least recently added queued line to every remote
// subscriber (the watermark drain path). It reports whether anything
// drained.
func (m *Machine) Drain(gpu int) bool { return m.queues[gpu].Drain() }

// Flush drains gpu's entire queue in insertion order (a sys-scoped fence).
func (m *Machine) Flush(gpu int) { m.queues[gpu].Flush() }

// Barrier is the global synchronization ending a phase: every GPU's queue
// flushes and delivers (the implicit sys-scoped release at the end of every
// grid plus the inter-GPU barrier).
func (m *Machine) Barrier() {
	for g := 0; g < m.n; g++ {
		m.Flush(g)
	}
}

// deliver is src's write-queue drain sink: it writes the queued values of
// line into every remote subscriber's replica and forgets them.
func (m *Machine) deliver(src int, line uint64) {
	p := m.pending[src][line]
	delete(m.pending[src], line)
	mask := m.subscribers(line)
	for dst := 0; dst < m.n; dst++ {
		if dst == src || mask&(1<<dst) == 0 {
			continue
		}
		rep := m.replicas[dst]
		for mw, bitsLeft := range p.mask {
			for bitsLeft != 0 {
				w := mw*64 + bits.TrailingZeros64(bitsLeft)
				bitsLeft &= bitsLeft - 1
				rep[line+uint64(w)*wordBytes] = p.vals[w]
			}
		}
		m.Delivered++
	}
}

// PendingLines returns the number of lines still queued on gpu.
func (m *Machine) PendingLines(gpu int) int { return m.queues[gpu].Len() }

// ReplicasConsistent reports whether, for every address any GPU holds, all
// subscribers of that address agree on the value; a subscriber that holds
// no value for the address reads it as 0. Only meaningful at barriers
// (between them, staleness is allowed by the memory model).
func (m *Machine) ReplicasConsistent() error {
	addrs := map[uint64]bool{}
	for g := 0; g < m.n; g++ {
		for a := range m.replicas[g] {
			addrs[a] = true
		}
	}
	sorted := make([]uint64, 0, len(addrs))
	for a := range addrs {
		sorted = append(sorted, a)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, a := range sorted {
		mask := m.subscribers(a)
		ref := m.replicas[bits.TrailingZeros64(mask)][a]
		for g := 0; g < m.n; g++ {
			if mask&(1<<g) != 0 && m.replicas[g][a] != ref {
				return fmt.Errorf("funcsim: replicas diverge at %#x: GPU %d holds %v, GPU %d holds %v",
					a, bits.TrailingZeros64(mask), ref, g, m.replicas[g][a])
			}
		}
	}
	return nil
}
