package consistency

import "testing"

var (
	data = Addr{Line: 0, Off: 0}
	flag = Addr{Line: 1, Off: 0}
	x    = Addr{Line: 0, Off: 0}
	y    = Addr{Line: 2, Off: 0}
)

// Message passing: the foundational pattern for GPS correctness. GPU0 writes
// data weakly, fences at sys scope, then raises a sys-scoped flag. If GPU1
// observes the flag, it must observe the data. The fence forces the write
// queue to flush and deliver, so the forbidden outcome (flag=1, data=0) must
// be unobservable.
func TestLitmusMessagePassing(t *testing.T) {
	outcomes := explore(t, 2, []Thread{
		{GPU: 0, Ops: []Op{
			{Kind: OpStoreWeak, Addr: data, Val: 1},
			{Kind: OpFenceSys},
			{Kind: OpStoreSys, Addr: flag, Val: 1},
		}},
		{GPU: 1, Ops: []Op{
			{Kind: OpLoad, Addr: flag},
			{Kind: OpLoad, Addr: data},
		}},
	})
	if len(outcomes) == 0 {
		t.Fatal("no outcomes explored")
	}
	if Contains(outcomes, func(l map[string]int) bool {
		return l["t1:r0"] == 1 && l["t1:r1"] == 0
	}) {
		t.Fatal("memory model violation: flag observed without data (MP)")
	}
	// The success path must be reachable.
	if !Contains(outcomes, func(l map[string]int) bool {
		return l["t1:r0"] == 1 && l["t1:r1"] == 1
	}) {
		t.Fatal("MP success outcome unreachable")
	}
	// Without synchronization having occurred yet, stale reads are allowed.
	if !Contains(outcomes, func(l map[string]int) bool {
		return l["t1:r0"] == 0
	}) {
		t.Fatal("early read of unset flag should be possible")
	}
}

// Coalescing reorders stores across cache lines: a later store that merges
// into an older resident queue entry drains before an intervening store to
// a different line. Section 3.3: "Stores need not be consecutive to be
// coalesced, as the GPU memory model allows store-store reordering as long
// as there is no synchronization or same-address relationship between the
// stores." GPU0 touches the flag line, writes data, then writes the flag;
// the flag write coalesces into the old entry and can overtake the data
// write, so a consumer may legally see flag=1 with data=0.
func TestLitmusWeakStoresMayReorder(t *testing.T) {
	flagSibling := Addr{Line: flag.Line, Off: 1}
	outcomes := explore(t, 2, []Thread{
		{GPU: 0, Ops: []Op{
			{Kind: OpStoreWeak, Addr: flagSibling, Val: 9}, // flag line becomes resident
			{Kind: OpStoreWeak, Addr: data, Val: 1},
			{Kind: OpStoreWeak, Addr: flag, Val: 1}, // coalesces ahead of data
		}},
		{GPU: 1, Ops: []Op{
			{Kind: OpLoad, Addr: flag},
			{Kind: OpLoad, Addr: data},
		}},
	})
	// flag=1, data=0 is allowed for unsynchronized weak stores: the paper
	// relies on this to coalesce and delay stores freely.
	if !Contains(outcomes, func(l map[string]int) bool {
		return l["t1:r0"] == 1 && l["t1:r1"] == 0
	}) {
		t.Fatal("relaxed outcome should be observable without a fence")
	}
	// And the in-order observation remains reachable too.
	if !Contains(outcomes, func(l map[string]int) bool {
		return l["t1:r0"] == 1 && l["t1:r1"] == 1
	}) {
		t.Fatal("in-order outcome should also be reachable")
	}
}

// Read-your-own-writes: a GPU's loads must observe its own prior stores
// immediately (the W3 local-replica update path in Figure 7), even though
// remote propagation is delayed.
func TestLitmusReadYourOwnWrites(t *testing.T) {
	outcomes := explore(t, 2, []Thread{
		{GPU: 0, Ops: []Op{
			{Kind: OpStoreWeak, Addr: x, Val: 7},
			{Kind: OpLoad, Addr: x},
		}},
	})
	if Contains(outcomes, func(l map[string]int) bool {
		return l["t0:r0"] != 7
	}) {
		t.Fatal("a GPU failed to observe its own store")
	}
}

// Coalescing must preserve same-address ordering per writer: GPU1 may see
// x=1 then x=2 or skip straight to 2 (coalesced), but never 2 then 1.
func TestLitmusCoalescingPreservesSameAddressOrder(t *testing.T) {
	outcomes := explore(t, 2, []Thread{
		{GPU: 0, Ops: []Op{
			{Kind: OpStoreWeak, Addr: x, Val: 1},
			{Kind: OpStoreWeak, Addr: x, Val: 2},
		}},
		{GPU: 1, Ops: []Op{
			{Kind: OpLoad, Addr: x},
			{Kind: OpLoad, Addr: x},
		}},
	})
	if Contains(outcomes, func(l map[string]int) bool {
		return l["t1:r0"] == 2 && l["t1:r1"] == 1
	}) {
		t.Fatal("same-address stores from one GPU observed out of order")
	}
	// Coalescing may legally hide the intermediate value.
	if !Contains(outcomes, func(l map[string]int) bool {
		return l["t1:r0"] == 0 && l["t1:r1"] == 2
	}) {
		t.Fatal("fully coalesced outcome should be reachable")
	}
}

// Same-line different-offset stores coalesce into one block; the consumer
// must never observe the second store without the first once both are
// coalesced into the same drained block... but partial observation is fine
// when they drain separately. Verify no "torn" impossible states: seeing
// off1's value requires it was actually written.
func TestLitmusCoalescedBlockDeliversBothWords(t *testing.T) {
	a0 := Addr{Line: 5, Off: 0}
	a1 := Addr{Line: 5, Off: 1}
	outcomes := explore(t, 2, []Thread{
		{GPU: 0, Ops: []Op{
			{Kind: OpStoreWeak, Addr: a0, Val: 3},
			{Kind: OpStoreWeak, Addr: a1, Val: 4},
			{Kind: OpFenceSys},
			{Kind: OpStoreSys, Addr: flag, Val: 1},
		}},
		{GPU: 1, Ops: []Op{
			{Kind: OpLoad, Addr: flag},
			{Kind: OpLoad, Addr: a0},
			{Kind: OpLoad, Addr: a1},
		}},
	})
	if Contains(outcomes, func(l map[string]int) bool {
		return l["t1:r0"] == 1 && (l["t1:r1"] != 3 || l["t1:r2"] != 4)
	}) {
		t.Fatal("fence+flag published before coalesced block delivered")
	}
}

// Racy weak stores from different GPUs to the same address, without
// synchronization, may be observed in different orders by different
// consumers (no inter-GPU store atomicity). The paper argues this is
// permitted: such programs are racy under the model.
func TestLitmusRacyStoresNeedNoGlobalOrder(t *testing.T) {
	outcomes := explore(t, 4, []Thread{
		{GPU: 0, Ops: []Op{{Kind: OpStoreWeak, Addr: x, Val: 1}}},
		{GPU: 1, Ops: []Op{{Kind: OpStoreWeak, Addr: x, Val: 2}}},
		{GPU: 2, Ops: []Op{{Kind: OpLoad, Addr: x}, {Kind: OpLoad, Addr: x}}},
		{GPU: 3, Ops: []Op{{Kind: OpLoad, Addr: x}, {Kind: OpLoad, Addr: x}}},
	})
	// GPU2 sees 1 then 2 while GPU3 sees 2 then 1: allowed divergence.
	if !Contains(outcomes, func(l map[string]int) bool {
		return l["t2:r0"] == 1 && l["t2:r1"] == 2 && l["t3:r0"] == 2 && l["t3:r1"] == 1
	}) {
		t.Fatal("divergent observation of racy stores should be reachable (relaxed model)")
	}
}

// Store buffering (Dekker): both GPUs store then load the other's variable.
// Under the relaxed model without fences, both may read 0.
func TestLitmusStoreBuffering(t *testing.T) {
	outcomes := explore(t, 2, []Thread{
		{GPU: 0, Ops: []Op{{Kind: OpStoreWeak, Addr: x, Val: 1}, {Kind: OpLoad, Addr: y}}},
		{GPU: 1, Ops: []Op{{Kind: OpStoreWeak, Addr: y, Val: 1}, {Kind: OpLoad, Addr: x}}},
	})
	if !Contains(outcomes, func(l map[string]int) bool {
		return l["t0:r0"] == 0 && l["t1:r0"] == 0
	}) {
		t.Fatal("SB relaxed outcome (0,0) should be reachable")
	}
}

// Sys-scoped stores are globally coherent: two sys stores to the same
// address must be observed in a single total order by all readers. With
// one writer, a reader can never see the newer value then the older one.
func TestLitmusSysStoresCoherent(t *testing.T) {
	outcomes := explore(t, 2, []Thread{
		{GPU: 0, Ops: []Op{
			{Kind: OpStoreSys, Addr: x, Val: 1},
			{Kind: OpStoreSys, Addr: x, Val: 2},
		}},
		{GPU: 1, Ops: []Op{{Kind: OpLoad, Addr: x}, {Kind: OpLoad, Addr: x}}},
	})
	if Contains(outcomes, func(l map[string]int) bool {
		return l["t1:r0"] == 2 && l["t1:r1"] == 1
	}) {
		t.Fatal("sys-scoped stores observed out of order")
	}
}

func TestExplorerPanicsOnBadGPU(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewExplorer(2, []Thread{{GPU: 5}})
}

// IRIW (independent reads of independent writes): without multi-copy
// atomicity, two readers may observe two independent writers' stores in
// opposite orders. The GPS replication fabric provides no multi-copy
// atomicity for weak stores, and the NVIDIA model does not require it
// without sys-scoped synchronization — so the relaxed outcome must be
// reachable.
func TestLitmusIRIW(t *testing.T) {
	outcomes := explore(t, 4, []Thread{
		{GPU: 0, Ops: []Op{{Kind: OpStoreWeak, Addr: x, Val: 1}}},
		{GPU: 1, Ops: []Op{{Kind: OpStoreWeak, Addr: y, Val: 1}}},
		{GPU: 2, Ops: []Op{{Kind: OpLoad, Addr: x}, {Kind: OpLoad, Addr: y}}},
		{GPU: 3, Ops: []Op{{Kind: OpLoad, Addr: y}, {Kind: OpLoad, Addr: x}}},
	})
	// Reader 2 sees x then not-yet y; reader 3 sees y then not-yet x.
	if !Contains(outcomes, func(l map[string]int) bool {
		return l["t2:r0"] == 1 && l["t2:r1"] == 0 && l["t3:r0"] == 1 && l["t3:r1"] == 0
	}) {
		t.Fatal("IRIW relaxed outcome should be reachable (no multi-copy atomicity)")
	}
}

// WRC (write-to-read causality) with sys-scoped synchronization restores
// causality: if T1 observes T0's data and then publishes a sys flag, T2
// observing that flag must also observe T0's data... in GPS, T1's sys
// store acts only on its own prior writes. Causality for T0's write is
// NOT implied — data must be republished or synchronized transitively.
// The test documents this relaxed (but model-legal) behavior.
func TestLitmusWRCWithoutTransitivity(t *testing.T) {
	outcomes := explore(t, 3, []Thread{
		{GPU: 0, Ops: []Op{{Kind: OpStoreWeak, Addr: data, Val: 1}}},
		{GPU: 1, Ops: []Op{
			{Kind: OpLoad, Addr: data},
			{Kind: OpFenceSys},
			{Kind: OpStoreSys, Addr: flag, Val: 1},
		}},
		{GPU: 2, Ops: []Op{
			{Kind: OpLoad, Addr: flag},
			{Kind: OpLoad, Addr: data},
		}},
	})
	// The causal chain t1 saw data=1, t2 saw flag=1, yet t2 reads data=0 is
	// observable: GPU1's fence drains GPU1's queue, not GPU0's.
	if !Contains(outcomes, func(l map[string]int) bool {
		return l["t1:r0"] == 1 && l["t2:r0"] == 1 && l["t2:r1"] == 0
	}) {
		t.Fatal("non-transitive WRC outcome should be reachable under per-GPU fences")
	}
}

// Weak atomics never coalesce: two atomics to the same line occupy distinct
// queue entries, so a consumer can observe the intermediate RMW value even
// after later atomics were issued — unlike coalesced weak stores.
func TestLitmusAtomicsDoNotCoalesce(t *testing.T) {
	outcomes := explore(t, 2, []Thread{
		{GPU: 0, Ops: []Op{
			{Kind: OpAtomicAdd, Addr: x, Val: 1},
			{Kind: OpAtomicAdd, Addr: x, Val: 1},
		}},
		{GPU: 1, Ops: []Op{{Kind: OpLoad, Addr: x}, {Kind: OpLoad, Addr: x}}},
	})
	// Intermediate value observable.
	if !Contains(outcomes, func(l map[string]int) bool {
		return l["t1:r0"] == 1 && l["t1:r1"] == 2
	}) {
		t.Fatal("intermediate atomic value should be deliverable")
	}
	// Same-address order preserved: never 2 then 1.
	if Contains(outcomes, func(l map[string]int) bool {
		return l["t1:r0"] == 2 && l["t1:r1"] == 1
	}) {
		t.Fatal("atomic deliveries observed out of order")
	}
	// Single-GPU accumulation is exact.
	if Contains(outcomes, func(l map[string]int) bool {
		return l["t1:r0"] > 2 || l["t1:r1"] > 2
	}) {
		t.Fatal("impossible value observed")
	}
}

// The racy cross-GPU atomic hazard: two GPUs each AtomicAdd(+1) the same
// address without sys-scoped synchronization. Each RMW acts on its local
// replica, so when the updates race, one overwrites the other in flight —
// a lost update. Each writer publishes a sys-scoped completion flag, so an
// observer that saw both flags knows both atomics finished and delivered;
// it may still read 1. This is why the model classifies concurrent weak
// writes to one address from different GPUs as racy (Section 3.3), and why
// cross-GPU accumulations need sys scope or per-GPU partials.
func TestLitmusCrossGPUAtomicsLoseUpdates(t *testing.T) {
	fA := Addr{Line: 3, Off: 0}
	fB := Addr{Line: 4, Off: 0}
	outcomes := explore(t, 3, []Thread{
		{GPU: 0, Ops: []Op{
			{Kind: OpAtomicAdd, Addr: x, Val: 1},
			{Kind: OpFenceSys},
			{Kind: OpStoreSys, Addr: fA, Val: 1},
		}},
		{GPU: 1, Ops: []Op{
			{Kind: OpAtomicAdd, Addr: x, Val: 1},
			{Kind: OpFenceSys},
			{Kind: OpStoreSys, Addr: fB, Val: 1},
		}},
		{GPU: 2, Ops: []Op{
			{Kind: OpLoad, Addr: fA},
			{Kind: OpLoad, Addr: fB},
			{Kind: OpLoad, Addr: x},
		}},
	})
	bothDone := func(l map[string]int) bool { return l["t2:r0"] == 1 && l["t2:r1"] == 1 }
	// Lost update: both atomics completed and delivered, yet x == 1.
	if !Contains(outcomes, func(l map[string]int) bool {
		return bothDone(l) && l["t2:r2"] == 1
	}) {
		t.Fatal("lost-update outcome should be reachable for racing weak atomics")
	}
	// The lucky serialization (one RMW observed the other's delivery) is
	// also reachable: racy programs get no guarantee either way.
	if !Contains(outcomes, func(l map[string]int) bool {
		return bothDone(l) && l["t2:r2"] == 2
	}) {
		t.Fatal("serialized outcome should also be reachable")
	}
	// But never more than 2.
	if Contains(outcomes, func(l map[string]int) bool { return l["t2:r2"] > 2 }) {
		t.Fatal("impossible accumulation observed")
	}
}

// Load buffering (LB): T0 loads y then stores x; T1 loads x then stores y.
// Both loads returning 1 would require value speculation; the operational
// GPS model never speculates, so the outcome is unreachable (the hardware
// is allowed to be stronger than the formal model requires).
func TestLitmusLoadBuffering(t *testing.T) {
	outcomes := explore(t, 2, []Thread{
		{GPU: 0, Ops: []Op{{Kind: OpLoad, Addr: y}, {Kind: OpStoreWeak, Addr: x, Val: 1}}},
		{GPU: 1, Ops: []Op{{Kind: OpLoad, Addr: x}, {Kind: OpStoreWeak, Addr: y, Val: 1}}},
	})
	if Contains(outcomes, func(l map[string]int) bool {
		return l["t0:r0"] == 1 && l["t1:r0"] == 1
	}) {
		t.Fatal("LB (1,1) requires speculation the GPS pipeline does not perform")
	}
	// The sequential outcomes are reachable.
	if !Contains(outcomes, func(l map[string]int) bool {
		return l["t0:r0"] == 0 && l["t1:r0"] == 0
	}) {
		t.Fatal("LB (0,0) should be reachable")
	}
}
