// Package paradigm implements the six multi-GPU memory management
// paradigms the paper evaluates (Section 6): fault-based Unified Memory,
// Unified Memory with expert hints, Remote Demand Loads, bulk-synchronous
// memcpy mirroring, GPS (with and without subscription tracking), and the
// infinite-bandwidth upper bound. Each paradigm is an engine.Model: it
// routes every cache-line access through its machinery and charges traffic
// to the per-phase profiles that the timing simulator later prices.
package paradigm

import (
	"fmt"
	"strings"

	"gps/internal/engine"
	"gps/internal/gpuconf"
	"gps/internal/memsys"
	"gps/internal/trace"
)

// Kind selects a paradigm.
type Kind int

// The paradigms of Section 6.
const (
	// KindUM is baseline Unified Memory: fault-based page migration to the
	// accessing GPU.
	KindUM Kind = iota
	// KindUMHints is Unified Memory with hand-tuned preferred-location,
	// accessed-by and prefetch hints.
	KindUMHints
	// KindRDL is Remote Demand Loads: stores local, loads issued to the GPU
	// that last wrote the page.
	KindRDL
	// KindMemcpy duplicates shared data on all GPUs and broadcasts it with
	// bulk copies at every synchronization barrier.
	KindMemcpy
	// KindGPS is the paper's proposal with automatic subscription tracking.
	KindGPS
	// KindGPSNoSub is GPS with subscription management disabled (all-to-all
	// replication), the Figure 11 ablation.
	KindGPSNoSub
	// KindInfinite elides all transfer costs: the strong-scaling upper
	// bound.
	KindInfinite
	// KindGPSUnsubDefault is GPS with unsubscribed-by-default profiling
	// (the Section 3.2 alternative): GPUs subscribe on first read, paying
	// population stalls during the profiling iteration.
	KindGPSUnsubDefault
	// KindMemcpyAsync is the expert pipelined cudaMemcpy variant (Section
	// 2.1): the same broadcasts as memcpy, double-buffered to overlap with
	// compute.
	KindMemcpyAsync
)

func (k Kind) String() string {
	switch k {
	case KindUM:
		return "UM"
	case KindUMHints:
		return "UM+hints"
	case KindRDL:
		return "RDL"
	case KindMemcpy:
		return "memcpy"
	case KindGPS:
		return "GPS"
	case KindGPSNoSub:
		return "GPS-nosub"
	case KindInfinite:
		return "infiniteBW"
	case KindGPSUnsubDefault:
		return "GPS-unsub-default"
	case KindMemcpyAsync:
		return "memcpy-async"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Figure8Kinds returns the paradigms compared in the headline figures, in
// the paper's bar order.
func Figure8Kinds() []Kind {
	return []Kind{KindUM, KindUMHints, KindRDL, KindMemcpy, KindGPS, KindInfinite}
}

// Kinds enumerates every paradigm, in declaration order.
func Kinds() []Kind {
	return []Kind{
		KindUM, KindUMHints, KindRDL, KindMemcpy, KindGPS,
		KindGPSNoSub, KindInfinite, KindGPSUnsubDefault, KindMemcpyAsync,
	}
}

// KindByName resolves a paradigm by its String() name, case-insensitively.
// The CLIs and the gpsd job specs share this parser.
func KindByName(name string) (Kind, error) {
	for _, k := range Kinds() {
		if strings.EqualFold(k.String(), name) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("paradigm: unknown paradigm %q (UM, UM+hints, RDL, memcpy, GPS, GPS-nosub, infiniteBW, GPS-unsub-default, memcpy-async)", name)
}

// Config carries the machine description plus the GPS structure overrides
// used by the sensitivity studies.
type Config struct {
	Machine gpuconf.Config
	// PageBytes overrides the translation granularity (Section 7.4 page
	// size study); 0 means the machine default.
	PageBytes uint64
	// WriteQueueEntries overrides the GPS remote write queue capacity
	// (Figure 14); 0 means the machine default. The watermark follows as
	// capacity-1 unless WriteQueueWatermark is set.
	WriteQueueEntries   int
	WriteQueueWatermark int
	// GPSTLBEntries/Ways override the GPS-TLB geometry (Section 7.4).
	GPSTLBEntries int
	GPSTLBWays    int
}

// DefaultConfig returns the Table 1 machine with no overrides.
func DefaultConfig() Config {
	return Config{Machine: gpuconf.Default()}
}

func (c Config) withDefaults() Config {
	if c.PageBytes == 0 {
		c.PageBytes = c.Machine.GPU.PageBytes
	}
	if c.WriteQueueEntries == 0 {
		c.WriteQueueEntries = c.Machine.GPS.WriteQueueEntries
	}
	if c.WriteQueueWatermark == 0 {
		c.WriteQueueWatermark = c.WriteQueueEntries - 1
		if c.WriteQueueWatermark < 1 {
			c.WriteQueueWatermark = 1
		}
	}
	if c.GPSTLBEntries == 0 {
		c.GPSTLBEntries = c.Machine.GPS.TLBEntries
	}
	if c.GPSTLBWays == 0 {
		c.GPSTLBWays = c.Machine.GPS.TLBWays
		if c.GPSTLBEntries < c.GPSTLBWays {
			c.GPSTLBWays = c.GPSTLBEntries
		}
	}
	return c
}

func (c Config) geometry() memsys.Geometry {
	return memsys.MustGeometry(c.PageBytes, uint64(c.Machine.GPU.CacheBlockBytes),
		c.Machine.GPU.VirtualAddrBits, c.Machine.GPU.PhysicalAddrBits)
}

// New builds the model for kind over prog's metadata. UM-with-hints scans
// the program's first iteration to derive the hints an expert programmer
// would write.
func New(kind Kind, prog trace.Program, cfg Config) (engine.Model, error) {
	cfg = cfg.withDefaults()
	meta := prog.Meta()
	if err := meta.Validate(); err != nil {
		return nil, err
	}
	switch kind {
	case KindUM:
		return newUM(meta, cfg), nil
	case KindUMHints:
		return newUMHints(meta, cfg, engine.ScanSharing(prog, meta.ProfilePhases, cfg.PageBytes)), nil
	case KindRDL:
		return newRDL(meta, cfg), nil
	case KindMemcpy:
		return newMemcpy(meta, cfg, false), nil
	case KindInfinite:
		return newMemcpy(meta, cfg, true), nil
	case KindGPS:
		return newGPS(meta, cfg, gpsSubscribedByDefault)
	case KindGPSNoSub:
		return newGPS(meta, cfg, gpsNoSubscription)
	case KindGPSUnsubDefault:
		return newGPS(meta, cfg, gpsUnsubscribedByDefault)
	case KindMemcpyAsync:
		return newMemcpyAsync(meta, cfg), nil
	}
	return nil, fmt.Errorf("paradigm: unknown kind %d", int(kind))
}

// base carries the state every model shares.
type base struct {
	name      string
	meta      trace.Meta
	geom      memsys.Geometry
	n         int
	regions   *engine.RegionTable
	pageBytes uint64
	vpnShift  uint

	phase    int
	profiles []engine.Profile
	scratch  engine.Batch // single-instruction batch backing Access
}

func newBase(name string, meta trace.Meta, cfg Config) base {
	geom := cfg.geometry()
	return base{
		name:      name,
		meta:      meta,
		geom:      geom,
		n:         meta.NumGPUs,
		regions:   engine.NewRegionTable(meta.Regions),
		pageBytes: cfg.PageBytes,
		vpnShift:  uint(geom.PageShift()),
	}
}

func (b *base) Name() string { return b.name }

func (b *base) BeginPhase(index int, profiles []engine.Profile) {
	b.phase = index
	b.profiles = profiles
}

func (b *base) vpn(line uint64) uint64 { return line >> b.vpnShift }

// singleBatch wraps one instruction as a Batch, so a model's Access can
// delegate to its AccessBatch and the per-line logic lives in one place.
func (b *base) singleBatch(a trace.Access, lines []uint64) *engine.Batch {
	b.scratch.Accs = append(b.scratch.Accs[:0], a)
	b.scratch.Offs = append(b.scratch.Offs[:0], 0, int32(len(lines)))
	b.scratch.Lines = lines
	return &b.scratch
}

// sharedRegion returns the shared region containing line, or nil for
// private or unknown addresses.
func (b *base) sharedRegion(line uint64) *trace.Region {
	r := b.regions.Lookup(line)
	if r == nil || r.Kind != trace.RegionShared {
		return nil
	}
	return r
}

// privateOwner returns the owning GPU for a private region access.
func privateOwner(r *trace.Region, fallback int) int {
	if r != nil && len(r.Writers) > 0 {
		return r.Writers[0]
	}
	return fallback
}

const lineBytes = engine.LineBytes
