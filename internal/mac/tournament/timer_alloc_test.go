package tournament

import (
	"testing"

	"macaw/internal/geom"
	"macaw/internal/sim"
)

// TestStateTimerAllocationFree pins the closure-free timer convention: the
// state timer is armed through AtPriorityCall with the package-level
// timerCall and a timer kind, so arming and firing it allocates nothing once
// the simulator's record pool is warm. With an empty queue the boundary timer only returns the engine to Idle, so the cycle measures the timer alone.
func TestStateTimerAllocationFree(t *testing.T) {
	w := newWorld(1)
	st := w.add(1, geom.V(0, 0, 6), Options{})
	if n := testing.AllocsPerRun(100, func() {
		st.m.setTimer(sim.Nanosecond, tBoundary)
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
// are warm one complete SIG-rounds+DATA+ACK exchange over a real medium
// allocates nothing. The packets are queued before the measured region.
func TestExchangeAllocationFree(t *testing.T) {
	const runs = 50
	w := newWorld(1)
	a := w.add(1, geom.V(0, 0, 6), Options{})
	b := w.add(2, geom.V(6, 0, 6), Options{})
	for i := 0; i < runs+2; i++ {
		a.m.Enqueue(pkt(2))
	}
	exchange := func() {
		for sent := a.sent; a.sent == sent; {
			if !w.s.Step() {
				t.Fatal("simulation ran dry mid-exchange")
			}
		}
	}
	exchange() // warms the pools; AllocsPerRun runs one more unmeasured
	if n := testing.AllocsPerRun(runs, exchange); n != 0 {
		t.Fatalf("one SIG-rounds+DATA+ACK exchange allocated %.2f times, want 0", n)
	}
	if b.delivered != runs+2 || b.m.Stats().ACKSent != runs+2 || a.m.Sigs() == 0 {
		t.Fatalf("receiver delivered %d and acked %d of %d packets; sender radiated %d SIGs", b.delivered, b.m.Stats().ACKSent, runs+2, a.m.Sigs())
	}
}
