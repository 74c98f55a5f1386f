package phy

import (
	"reflect"
	"testing"

	"macaw/internal/frame"
	"macaw/internal/geom"
)

// replier answers every RTS addressed to it with a CTS, transmitted
// synchronously from inside RadioReceive and built in one reused outbox —
// the way the MAC engines answer.
type replier struct {
	recorder
	r   *Radio
	out frame.Frame
}

func (h *replier) RadioReceive(f *frame.Frame) {
	h.recorder.RadioReceive(f)
	if f.Type != frame.RTS || f.Dst != h.r.ID() {
		return
	}
	h.out = frame.Frame{Type: frame.CTS, Src: h.r.ID(), Dst: f.Src, DataBytes: f.DataBytes, Seq: f.Seq + 100}
	h.r.Transmit(&h.out)
}

// TestReplyFromReceiveKeepsPendingDeliveries pins the transmission record's
// ownership of its frame. B is notified of A's RTS before C (attach order)
// and transmits its CTS from inside the callback. Were A's record recycled
// at the end of its airtime, B's CTS would take it over and C — still
// pending — would be handed the CTS in place of the RTS. The free list must
// also settle: every record is home at quiescence, at the same count on
// every round.
func TestReplyFromReceiveKeepsPendingDeliveries(t *testing.T) {
	s, m := newTestMedium(t)
	a := m.Attach(1, geom.V(0, 0, 6), nil)
	bh := &replier{}
	bh.r = m.Attach(2, geom.V(4, 0, 6), bh)
	ch := &recorder{}
	m.Attach(3, geom.V(2, 3, 6), ch)
	out := frame.Frame{}
	free := -1
	for round := 0; round < 5; round++ {
		ch.received = ch.received[:0]
		out = frame.Frame{Type: frame.RTS, Src: 1, Dst: 2, DataBytes: frame.DefaultDataBytes, Seq: uint32(round)}
		rts := out
		a.Transmit(&out)
		out = frame.Frame{} // the sender's buffer is free once Transmit returns
		s.RunAll()
		cts := frame.Frame{Type: frame.CTS, Src: 2, Dst: 1, DataBytes: frame.DefaultDataBytes, Seq: uint32(round) + 100}
		if len(ch.received) != 2 || !reflect.DeepEqual(*ch.received[0], rts) || !reflect.DeepEqual(*ch.received[1], cts) {
			t.Fatalf("round %d: overhearer got %v, want [%v %v]", round, ch.received, &rts, &cts)
		}
		if len(m.active) != 0 {
			t.Fatalf("round %d: %d transmissions still active at quiescence", round, len(m.active))
		}
		if free < 0 {
			free = len(m.txFree)
		} else if len(m.txFree) != free {
			t.Fatalf("round %d: txfree=%d at quiescence, was %d after round 0", round, len(m.txFree), free)
		}
		for _, tx := range m.txFree {
			if tx.pending != 0 || !reflect.DeepEqual(tx.f, frame.Frame{}) {
				t.Fatalf("round %d: free record holds pending=%d frame %v", round, tx.pending, &tx.f)
			}
		}
	}
}

// TestForkInFlightFrameIndependentOfTwin pins that a fork copies the frames
// in flight instead of sharing them. The fork adopts the twin while A's DATA
// is on the air; the twin then finishes it (recycling and zeroing its
// record) and sends a different frame from the same sender buffer. The
// fork's copy must not move, and the fork must still deliver the original.
func TestForkInFlightFrameIndependentOfTwin(t *testing.T) {
	build := func() (*recorder, *Radio, *Medium, func()) {
		s, m := newTestMedium(t)
		a := m.Attach(1, geom.V(0, 0, 6), nil)
		bh := &recorder{}
		m.Attach(2, geom.V(6, 0, 6), bh)
		return bh, a, m, s.RunAll
	}
	_, wa, wm, runWarm := build()
	fh, _, fm, runFork := build()

	out := frame.Frame{Type: frame.DATA, Src: 1, Dst: 2, DataBytes: frame.DefaultDataBytes, Seq: 7, Payload: []byte("first")}
	want := *out.Clone()
	wa.Transmit(&out)
	if err := fm.AdoptFrom(wm); err != nil {
		t.Fatal(err)
	}

	runWarm()
	out = frame.Frame{Type: frame.DATA, Src: 1, Dst: 2, DataBytes: 100, Seq: 8, Payload: []byte("second")}
	wa.Transmit(&out)
	if len(fm.active) != 1 || !reflect.DeepEqual(fm.active[0].f, want) {
		t.Fatalf("fork's in-flight frame moved with the twin: %v, want %v", fm.active, &want)
	}
	runFork()
	if len(fh.received) != 1 || !reflect.DeepEqual(*fh.received[0], want) {
		t.Fatalf("fork delivered %v, want %v", fh.received, &want)
	}
}
