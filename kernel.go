package gps

import (
	"fmt"

	"gps/internal/trace"
)

// lineBytes is the modeled cache block size (Table 1).
const lineBytes = 128

// KernelBuilder assembles one kernel launch's memory access stream,
// encoding it into compressed trace blocks as it goes. Methods chain; the
// kernel executes when passed to Launch. The first successful Launch seals
// the stream: launching the builder again runs the same kernel, and adding
// accesses after that records an error.
type KernelBuilder struct {
	sys    *System
	k      trace.Kernel
	enc    trace.ColumnEncoder
	sealed bool
	err    error
}

// NewKernel starts building a kernel for device.
func (s *System) NewKernel(device int, name string) *KernelBuilder {
	kb := &KernelBuilder{sys: s, k: trace.Kernel{GPU: device, Name: name}}
	if device < 0 || device >= s.cfg.GPUs {
		kb.err = fmt.Errorf("gps: kernel %q on device %d out of range", name, device)
	}
	return kb
}

// Compute declares the kernel's arithmetic work in floating point ops.
func (k *KernelBuilder) Compute(ops uint64) *KernelBuilder {
	k.k.ComputeOps += ops
	return k
}

// LocalStream declares GPU-local streaming traffic (temporaries,
// coefficient tables) the kernel performs beyond its recorded shared
// accesses.
func (k *KernelBuilder) LocalStream(bytes uint64) *KernelBuilder {
	k.k.LocalStreamBytes += bytes
	return k
}

// checkOpen reports whether accesses may still be added.
func (k *KernelBuilder) checkOpen() bool {
	if k.err == nil && k.sealed {
		k.err = fmt.Errorf("gps: kernel %q adds accesses after its launch", k.k.Name)
	}
	return k.err == nil
}

func (k *KernelBuilder) checkRange(b *Buffer, off, bytes uint64) bool {
	if !k.checkOpen() {
		return false
	}
	if b == nil {
		k.err = fmt.Errorf("gps: kernel %q accesses nil buffer", k.k.Name)
		return false
	}
	if off+bytes > b.size {
		k.err = fmt.Errorf("gps: kernel %q accesses [%d,%d) beyond %q (%d bytes)",
			k.k.Name, off, off+bytes, b.name, b.size)
		return false
	}
	return true
}

// sweep appends lines full-warp contiguous ops, one per cache line from
// addr on.
func (k *KernelBuilder) sweep(op trace.Op, addr, lines uint64) {
	k.enc.AppendRun(trace.Access{
		Op: op, Pattern: trace.PatContiguous, Threads: 32, ElemBytes: 4, Addr: addr,
	}, int(lines), lineBytes)
}

// Load streams contiguous reads over b[off : off+bytes).
func (k *KernelBuilder) Load(b *Buffer, off, bytes uint64) *KernelBuilder {
	if k.checkRange(b, off, bytes) {
		k.sweep(trace.OpLoad, b.base+off, (bytes+lineBytes-1)/lineBytes)
	}
	return k
}

// Store streams contiguous writes over b[off : off+bytes).
func (k *KernelBuilder) Store(b *Buffer, off, bytes uint64) *KernelBuilder {
	if k.checkRange(b, off, bytes) {
		k.sweep(trace.OpStore, b.base+off, (bytes+lineBytes-1)/lineBytes)
	}
	return k
}

// StoreMultiPass writes b[off : off+bytes) in `passes` sweeps over tiles of
// blockLines cache lines — the revisit pattern the GPS write queue
// coalesces.
func (k *KernelBuilder) StoreMultiPass(b *Buffer, off, bytes uint64, passes, blockLines int) *KernelBuilder {
	if !k.checkRange(b, off, bytes) {
		return k
	}
	if passes < 1 || blockLines < 1 {
		k.err = fmt.Errorf("gps: kernel %q: invalid multipass geometry", k.k.Name)
		return k
	}
	lines := bytes / lineBytes
	for start := uint64(0); start < lines; start += uint64(blockLines) {
		end := start + uint64(blockLines)
		if end > lines {
			end = lines
		}
		for p := 0; p < passes; p++ {
			k.sweep(trace.OpStore, b.base+off+start*lineBytes, end-start)
		}
	}
	return k
}

// LoadScatter issues `warps` warp loads whose lanes hit pseudo-random cache
// lines within b[off : off+window).
func (k *KernelBuilder) LoadScatter(b *Buffer, off, window uint64, warps int, seed uint32) *KernelBuilder {
	return k.scatter(trace.OpLoad, b, off, window, warps, seed)
}

// AtomicScatter issues `warps` warp atomics within b[off : off+window).
// Atomics are never coalesced by the GPS write queue.
func (k *KernelBuilder) AtomicScatter(b *Buffer, off, window uint64, warps int, seed uint32) *KernelBuilder {
	return k.scatter(trace.OpAtomic, b, off, window, warps, seed)
}

func (k *KernelBuilder) scatter(op trace.Op, b *Buffer, off, window uint64, warps int, seed uint32) *KernelBuilder {
	if !k.checkRange(b, off, window) {
		return k
	}
	windowLines := window / lineBytes
	if windowLines == 0 {
		k.err = fmt.Errorf("gps: kernel %q: scatter window below one line", k.k.Name)
		return k
	}
	for i := 0; i < warps; i++ {
		k.enc.Append(trace.Access{
			Op: op, Pattern: trace.PatScattered,
			Threads: 32, ElemBytes: 4,
			Stride: uint32(windowLines),
			Seed:   seed + uint32(i)*2654435761,
			Addr:   b.base + off,
		})
	}
	return k
}

// FenceSys issues a sys-scoped memory fence: the GPS write queue flushes
// and all prior stores become visible system-wide.
func (k *KernelBuilder) FenceSys() *KernelBuilder {
	if k.checkOpen() {
		k.enc.Append(trace.Access{Op: trace.OpFence, Scope: trace.ScopeSys})
	}
	return k
}

// Launch records one phase: the given kernels run concurrently (at most one
// per device) and a global barrier (with its implicit sys-scoped release)
// ends the phase. A rejected Launch leaves every builder as it was.
func (s *System) Launch(kernels ...*KernelBuilder) error {
	if s.finished {
		return fmt.Errorf("gps: system already ran")
	}
	if len(kernels) == 0 {
		return fmt.Errorf("gps: empty launch")
	}
	seen := map[int]bool{}
	for _, kb := range kernels {
		if kb.err != nil {
			return kb.err
		}
		if seen[kb.k.GPU] {
			return fmt.Errorf("gps: two kernels on device %d in one phase", kb.k.GPU)
		}
		seen[kb.k.GPU] = true
		if kb.enc.Len() == 0 && kb.k.Col == nil && kb.k.ComputeOps == 0 {
			return fmt.Errorf("gps: kernel %q does nothing", kb.k.Name)
		}
	}
	ph := trace.Phase{Index: len(s.phases)}
	for _, kb := range kernels {
		if !kb.sealed {
			kb.k.Col, kb.sealed = kb.enc.Finish(), true
		}
		ph.Kernels = append(ph.Kernels, kb.k)
	}
	s.phases = append(s.phases, ph)
	return nil
}
