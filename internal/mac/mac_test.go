package mac

import (
	"testing"

	"macaw/internal/frame"
	"macaw/internal/sim"
)

func TestConfigTimes(t *testing.T) {
	c := DefaultConfig()
	if c.Slot() != 937500*sim.Nanosecond {
		t.Fatalf("slot = %v, want 937.5us", c.Slot())
	}
	if c.CtrlTime() != c.Slot() {
		t.Fatal("ctrl time != slot")
	}
	if c.DataTime(512) != 16*sim.Millisecond {
		t.Fatalf("data time = %v, want 16ms", c.DataTime(512))
	}
	if c.MaxRetries <= 0 {
		t.Fatal("MaxRetries must be positive")
	}
}

func TestQueueFIFO(t *testing.T) {
	var q Queue
	if q.Peek() != nil || q.Pop() != nil || q.Len() != 0 {
		t.Fatal("empty queue misbehaves")
	}
	a, b := &Packet{Dst: 1}, &Packet{Dst: 2}
	q.Push(a)
	q.Push(b)
	if q.Len() != 2 || q.Peek() != a {
		t.Fatal("push/peek broken")
	}
	if q.Pop() != a || q.Pop() != b || q.Pop() != nil {
		t.Fatal("pop order broken")
	}
}

// TestQueueRingSteadyStateAllocationFree: a queue that never drains, at a
// constant depth, reuses its ring: capacity stays bounded and steady
// push/pop allocates nothing.
func TestQueueRingSteadyStateAllocationFree(t *testing.T) {
	var q Queue
	ps := make([]*Packet, 8)
	for i := range ps {
		ps[i] = &Packet{Dst: frame.NodeID(i + 1)}
	}
	for _, p := range ps[:5] {
		q.Push(p)
	}
	next := 5
	cycle := func() {
		want := q.Peek()
		if got := q.Pop(); got != want {
			t.Fatal("pop returned a packet other than the head")
		}
		q.Push(ps[next%len(ps)])
		next++
	}
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Fatalf("steady push/pop allocated %.1f times per cycle, want 0", n)
	}
	if q.Len() != 5 || len(q.buf) != 8 {
		t.Fatalf("len %d, ring %d slots; want 5 in 8", q.Len(), len(q.buf))
	}
}

// TestQueuePushFrontAfterPop checks that a reinstated head keeps FIFO order
// across ring wrap-around and growth.
func TestQueuePushFrontAfterPop(t *testing.T) {
	var q Queue
	ps := make([]*Packet, 12)
	for i := range ps {
		ps[i] = &Packet{Dst: frame.NodeID(i + 1)}
	}
	q.Push(ps[1])
	q.Push(ps[2])
	q.PushFront(ps[0]) // the head index wraps below zero
	head := q.Pop()
	q.PushFront(head)
	for _, p := range ps[3:] {
		q.Push(p) // grows the ring twice, the first time while wrapped
	}
	head = q.Pop()
	q.PushFront(head)
	for i, want := range ps {
		if got := q.Pop(); got != want {
			t.Fatalf("pop %d = %v, want %v", i, got, want)
		}
	}
	if q.Pop() != nil || q.Len() != 0 {
		t.Fatal("queue not empty after draining")
	}
}

// TestQueueAdoptAndDump: a forked queue holds the same packets in the same
// order, and the inventory dump lists them head first.
func TestQueueAdoptAndDump(t *testing.T) {
	var w, f Queue
	for i := 1; i <= 6; i++ {
		w.Push(&Packet{Dst: frame.NodeID(i), Size: 10 * i})
	}
	w.Pop()
	w.Pop()
	w.Push(&Packet{Dst: 9, Size: 90})
	f.Push(&Packet{Dst: 99})
	f.AdoptFrom(&w)
	want := "queue n=5 {dst=3 size=30 seq=0 enq=0 pay=0} {dst=4 size=40 seq=0 enq=0 pay=0} " +
		"{dst=5 size=50 seq=0 enq=0 pay=0} {dst=6 size=60 seq=0 enq=0 pay=0} {dst=9 size=90 seq=0 enq=0 pay=0}\n"
	if got := string(w.AppendState(nil)); got != want {
		t.Fatalf("dump = %q, want %q", got, want)
	}
	if got := string(f.AppendState(nil)); got != want {
		t.Fatalf("adopted dump = %q, want %q", got, want)
	}
}

// TestStreamQueuesNonEmptyReusesSlice: NonEmpty is called on every
// contention round, so it must not allocate once warm.
func TestStreamQueuesNonEmptyReusesSlice(t *testing.T) {
	s := NewStreamQueues()
	s.Push(&Packet{Dst: 5})
	s.Push(&Packet{Dst: 3})
	if n := testing.AllocsPerRun(100, func() { s.NonEmpty() }); n != 0 {
		t.Fatalf("NonEmpty allocated %.1f times per call, want 0", n)
	}
}

func TestStreamQueues(t *testing.T) {
	s := NewStreamQueues()
	s.Push(&Packet{Dst: 5})
	s.Push(&Packet{Dst: 3})
	s.Push(&Packet{Dst: 5})
	if s.TotalLen() != 3 {
		t.Fatalf("TotalLen = %d", s.TotalLen())
	}
	if got := s.Destinations(); len(got) != 2 || got[0] != 5 || got[1] != 3 {
		t.Fatalf("Destinations = %v (want first-seen order)", got)
	}
	if s.Queue(5).Len() != 2 || s.Queue(3).Len() != 1 {
		t.Fatal("per-stream lengths wrong")
	}
	if s.Queue(9) != nil {
		t.Fatal("unknown destination returned a queue")
	}
	s.Queue(3).Pop()
	if got := s.NonEmpty(); len(got) != 1 || got[0] != 5 {
		t.Fatalf("NonEmpty = %v", got)
	}
	// An emptied stream remains a known destination.
	if got := s.Destinations(); len(got) != 2 {
		t.Fatalf("Destinations after drain = %v", got)
	}
}

func TestPacketSeq(t *testing.T) {
	p := &Packet{Dst: 1}
	p.SetSeq(42)
	if p.Seq() != 42 {
		t.Fatal("seq round-trip failed")
	}
}

func TestCallbacksNilSafe(t *testing.T) {
	var c Callbacks
	c.NotifyDeliver(1, nil)
	c.NotifySent(nil)
	c.NotifyDropped(nil, DropRetries)

	var delivered frame.NodeID
	var sentP, droppedP *Packet
	c = Callbacks{
		Deliver: func(src frame.NodeID, _ []byte) { delivered = src },
		Sent:    func(p *Packet) { sentP = p },
		Dropped: func(p *Packet, _ DropReason) { droppedP = p },
	}
	pkt := &Packet{Dst: 2}
	c.NotifyDeliver(7, nil)
	c.NotifySent(pkt)
	c.NotifyDropped(pkt, DropRetries)
	if delivered != 7 || sentP != pkt || droppedP != pkt {
		t.Fatal("callbacks not invoked")
	}
}
