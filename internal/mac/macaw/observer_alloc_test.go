package macaw

import (
	"testing"

	"macaw/internal/frame"
	"macaw/internal/geom"
	"macaw/internal/mac"
	"macaw/internal/sim"
)

// TestDisabledObserverHooksAllocationFree pins the cost side of the
// passivity contract (DESIGN.md §12): with no observer attached, the note
// hooks must be a nil check and nothing else — zero allocations — so
// instrumentation support cannot tax a bare run.
func TestDisabledObserverHooksAllocationFree(t *testing.T) {
	w := newWorld(1)
	st := w.add(1, geom.V(0, 0, 6), DefaultOptions())
	if n := testing.AllocsPerRun(100, func() {
		st.m.noteQueue("push", 2)
		st.m.noteRetry(2)
		st.m.noteDrop(2, mac.DropRetries)
	}); n != 0 {
		t.Fatalf("disabled observer hooks allocated %.1f times per call set, want 0", n)
	}
}

// TestStateTimerAllocationFree pins the closure-free timer convention: the
// state timer is armed through AtPriorityCall with the package-level
// timerCall and a timer kind, so arming and firing it allocates nothing once
// the simulator's record pool is warm. The CTS timeout is a no-op outside WFCTS, so the cycle measures the timer alone.
func TestStateTimerAllocationFree(t *testing.T) {
	w := newWorld(1)
	st := w.add(1, geom.V(0, 0, 6), DefaultOptions())
	if n := testing.AllocsPerRun(100, func() {
		st.m.setTimer(sim.Nanosecond, tCTSTimeout)
		if !w.s.Step() {
			t.Fatal("armed timer did not fire")
		}
	}); n != 0 {
		t.Fatalf("arming and firing the state timer allocated %.1f times per cycle, want 0", n)
	}
}

// TestExchangeAllocationFree pins the allocation-free transmit path: every
// outgoing frame is built in the engine's outbox and copied into a pooled
// phy transmission record, so once the simulator's and the medium's pools
// are warm one complete RTS-CTS-DS-DATA-ACK exchange over a real medium
// allocates nothing. The packets are queued before the measured region.
func TestExchangeAllocationFree(t *testing.T) {
	const runs = 50
	w := newWorld(1)
	a := w.add(1, geom.V(0, 0, 6), DefaultOptions())
	b := w.add(2, geom.V(6, 0, 6), DefaultOptions())
	for i := 0; i < runs+2; i++ {
		a.m.Enqueue(pkt(2))
	}
	b.delivered = make([]frame.NodeID, 0, runs+2)
	b.payloads = make([][]byte, 0, runs+2)
	exchange := func() {
		for sent := a.sent; a.sent == sent; {
			if !w.s.Step() {
				t.Fatal("simulation ran dry mid-exchange")
			}
		}
	}
	exchange() // warms the pools; AllocsPerRun runs one more unmeasured
	if n := testing.AllocsPerRun(runs, exchange); n != 0 {
		t.Fatalf("one RTS-CTS-DS-DATA-ACK exchange allocated %.2f times, want 0", n)
	}
	as, bs := a.m.Stats(), b.m.Stats()
	if len(b.delivered) != runs+2 || bs.CTSSent != runs+2 || as.DSSent != runs+2 || bs.ACKSent != runs+2 {
		t.Fatalf("receiver delivered %d, CTS=%d DS=%d ACK=%d, want %d each", len(b.delivered), bs.CTSSent, as.DSSent, bs.ACKSent, runs+2)
	}
}
