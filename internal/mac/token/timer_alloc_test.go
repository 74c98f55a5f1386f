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
