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
