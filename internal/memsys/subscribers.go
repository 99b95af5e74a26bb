package memsys

import (
	"errors"
	"fmt"
	"math/bits"
	"strings"
)

// SubscriberSet is a bitmask of GPU IDs subscribed to a page. The simulator
// supports up to 64 GPUs, far beyond the 16-GPU systems evaluated.
type SubscriberSet uint64

// MaxGPUs is the largest GPU ID representable in a SubscriberSet.
const MaxGPUs = 64

// ErrLastSubscriber is returned when unsubscribing would leave a GPS page
// with no physical copy; the paper requires at least one subscriber remain.
var ErrLastSubscriber = errors.New("memsys: cannot unsubscribe the last subscriber")

// ErrOutOfMemory is returned when a GPU's memory has no room for another
// page.
var ErrOutOfMemory = errors.New("memsys: out of physical memory")

// SetOf builds a set from explicit GPU IDs.
func SetOf(gpus ...int) SubscriberSet {
	var s SubscriberSet
	for _, g := range gpus {
		s = s.Add(g)
	}
	return s
}

// AllGPUs returns the set {0, ..., n-1}.
func AllGPUs(n int) SubscriberSet {
	if n < 0 || n > MaxGPUs {
		panic(fmt.Sprintf("memsys: GPU count %d out of range", n))
	}
	if n == MaxGPUs {
		return ^SubscriberSet(0)
	}
	return SubscriberSet(1)<<n - 1
}

// Add returns the set with gpu included.
func (s SubscriberSet) Add(gpu int) SubscriberSet {
	checkGPU(gpu)
	return s | 1<<gpu
}

// Remove returns the set with gpu excluded.
func (s SubscriberSet) Remove(gpu int) SubscriberSet {
	checkGPU(gpu)
	return s &^ (1 << gpu)
}

// Has reports whether gpu is in the set.
func (s SubscriberSet) Has(gpu int) bool {
	checkGPU(gpu)
	return s&(1<<gpu) != 0
}

// Count returns the number of subscribers.
func (s SubscriberSet) Count() int { return bits.OnesCount64(uint64(s)) }

// Empty reports whether the set has no subscribers.
func (s SubscriberSet) Empty() bool { return s == 0 }

// First returns the lowest-numbered subscriber, or -1 if empty. GPS uses
// this as the deterministic target for remote loads by non-subscribers.
func (s SubscriberSet) First() int {
	if s == 0 {
		return -1
	}
	return bits.TrailingZeros64(uint64(s))
}

// ForEach calls fn for every subscriber in ascending GPU order.
func (s SubscriberSet) ForEach(fn func(gpu int)) {
	for rem := uint64(s); rem != 0; {
		g := bits.TrailingZeros64(rem)
		fn(g)
		rem &^= 1 << g
	}
}

// GPUs returns the members in ascending order.
func (s SubscriberSet) GPUs() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(g int) { out = append(out, g) })
	return out
}

// Intersect returns the common subscribers of s and o.
func (s SubscriberSet) Intersect(o SubscriberSet) SubscriberSet { return s & o }

// Union returns the combined subscribers of s and o.
func (s SubscriberSet) Union(o SubscriberSet) SubscriberSet { return s | o }

func (s SubscriberSet) String() string {
	if s == 0 {
		return "{}"
	}
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(g int) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%d", g)
	})
	b.WriteByte('}')
	return b.String()
}

func checkGPU(gpu int) {
	if gpu < 0 || gpu >= MaxGPUs {
		panic(fmt.Sprintf("memsys: GPU %d out of range [0,%d)", gpu, MaxGPUs))
	}
}
