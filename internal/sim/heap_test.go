package sim

import (
	"math/rand"
	"sort"
	"testing"
)

func nopCall(a, b any) {}

// TestSteadyStateSchedulingAllocationFree pins the event loop's cost
// contract: once the record pool is warm, a schedule + cancel + step cycle
// over a loaded queue allocates nothing.
func TestSteadyStateSchedulingAllocationFree(t *testing.T) {
	s := New(1)
	for i := 0; i < 64; i++ {
		s.AtPriorityCall(Second+Time(i), 0, nopCall, nil, nil)
	}
	var timer Event
	if n := testing.AllocsPerRun(1000, func() {
		timer.Cancel()
		timer = s.AtPriorityCall(s.Now()+2, 0, nopCall, s, nil)
		s.AtPriorityCall(s.Now()+1, -1, nopCall, s, nil)
		if !s.Step() {
			t.Fatal("queue drained")
		}
	}); n != 0 {
		t.Fatalf("schedule/cancel/step allocated %.1f times per cycle, want 0", n)
	}
}

// TestRandomChurnFiresInTotalOrder drives the heap with random times,
// priorities and cancellations — enough to trigger compaction — and checks
// that the surviving events fire exactly in (when, prio, seq) order.
func TestRandomChurnFiresInTotalOrder(t *testing.T) {
	type key struct {
		when Time
		prio int
		seq  int
	}
	r := rand.New(rand.NewSource(7))
	s := New(1)
	var want, got []key
	var handles []Event
	var keys []key
	for i := 0; i < 2000; i++ {
		k := key{Time(r.Intn(500)), r.Intn(5) - 2, i}
		keys = append(keys, k)
		handles = append(handles, s.AtPriority(k.when, k.prio, func() { got = append(got, k) }))
	}
	cancelled := make([]bool, len(handles))
	for i := range handles {
		if r.Intn(3) != 0 {
			handles[i].Cancel()
			cancelled[i] = true
		}
	}
	for i, k := range keys {
		if !cancelled[i] {
			want = append(want, k)
		}
	}
	sort.Slice(want, func(i, j int) bool {
		a, b := want[i], want[j]
		if a.when != b.when {
			return a.when < b.when
		}
		if a.prio != b.prio {
			return a.prio < b.prio
		}
		return a.seq < b.seq
	})
	s.RunAll()
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d fired as %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestPriorityOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on a priority beyond int32")
		}
	}()
	New(1).AtPriority(0, 1<<40, func() {})
}

// churn models the queue the paper tables drive: every station has one
// state timer, and a fired timer re-arms itself and, half the time, resets
// a neighbour's timer (cancel + re-arm, as a reception does), while the
// medium queues a same-instant delivery at a negative priority. With frames
// set, each delivery carries a freshly allocated 64-byte frame, as the
// medium's do, so the garbage collector runs during the benchmark and the
// queue's pointer stores pay for its write barrier.
type churn struct {
	s      *Simulator
	r      *rand.Rand
	timers []Event
	frames bool
}

func churnTimer(a, b any) {
	c := a.(*churn)
	i := b.(int)
	c.arm(i)
	if c.r.Intn(2) == 0 {
		c.arm(c.r.Intn(len(c.timers)))
		var f any
		if c.frames {
			f = new([64]byte)
		}
		c.s.AtPriorityCall(c.s.Now(), -1, nopCall, c, f)
	}
}

func (c *churn) arm(i int) {
	c.timers[i].Cancel()
	c.timers[i] = c.s.AtPriorityCall(c.s.Now()+1+Time(c.r.Int63n(int64(20*Millisecond))), 0, churnTimer, c, i)
}

// BenchmarkQueueChurn measures the event queue alone at the paper tables'
// density (their traced run peaks at 74 queued events, tombstones
// included): 40 stations' state timers with the cancel mix above. One op is
// one fired event.
func BenchmarkQueueChurn(b *testing.B) {
	for _, frames := range []bool{false, true} {
		name := "timers"
		if frames {
			name = "timers+frames"
		}
		b.Run(name, func(b *testing.B) {
			c := &churn{s: New(1), r: rand.New(rand.NewSource(1)), timers: make([]Event, 40), frames: frames}
			for i := range c.timers {
				c.arm(i)
			}
			for i := 0; i < 10000; i++ {
				c.s.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.s.Step()
			}
			b.StopTimer()
			b.ReportMetric(float64(c.s.MaxQueued()), "max_queued")
		})
	}
}
