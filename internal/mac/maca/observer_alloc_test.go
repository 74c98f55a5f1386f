package maca

import (
	"testing"

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
	st := w.addStation(1, geom.V(0, 0, 6))
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
	st := w.addStation(1, geom.V(0, 0, 6))
	if n := testing.AllocsPerRun(100, func() {
		st.m.setTimer(sim.Nanosecond, tCTSTimeout)
		if !w.s.Step() {
			t.Fatal("armed timer did not fire")
		}
	}); n != 0 {
		t.Fatalf("arming and firing the state timer allocated %.1f times per cycle, want 0", n)
	}
}
