package token

import (
	"testing"

	"macaw/internal/sim"
)

// TestTimersAllocationFree pins the closure-free timer convention for both
// of the token engine's events. The silence watchdog, re-armed on every
// reception, re-arms itself when it fires while the station holds the
// token; the state timer is armed and cancelled. Once the simulator's record
// pool is warm neither cycle allocates.
func TestTimersAllocationFree(t *testing.T) {
	w := newRing(1, 2, Options{})
	// Halting the bootstrap station cancels its watchdog and turns its
	// pending ring acquire into a no-op; fire that, and station 2's
	// watchdog is the only live event left.
	w.nodes[0].m.Halt()
	w.s.Step()
	m := w.nodes[1].m
	m.st = Holding
	if n := testing.AllocsPerRun(100, func() {
		if !w.s.Step() || m.watchdog.IsZero() {
			t.Fatal("watchdog did not fire and re-arm")
		}
	}); n != 0 {
		t.Fatalf("firing and re-arming the watchdog allocated %.1f times per cycle, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		m.setTimer(sim.Nanosecond, tHoldPause)
		m.clearTimer()
		w.s.Step()
	}); n != 0 {
		t.Fatalf("arming and cancelling the state timer allocated %.1f times per cycle, want 0", n)
	}
}

// TestExchangeAllocationFree pins the allocation-free transmit path: every
// outgoing frame is built in the engine's outbox and copied into a pooled
// phy transmission record, so once the simulator's and the medium's pools
// are warm one complete TOKEN+DATA exchange over a real medium allocates
// nothing. The packets are queued before the measured region.
func TestExchangeAllocationFree(t *testing.T) {
	const runs = 50
	w := newRing(1, 2, Options{})
	a, b := w.nodes[0], w.nodes[1]
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
		t.Fatalf("one TOKEN+DATA exchange allocated %.2f times, want 0", n)
	}
	if b.delivered != runs+2 {
		t.Fatalf("receiver delivered %d of %d packets", b.delivered, runs+2)
	}
}
