package phy

import (
	"reflect"
	"testing"

	"macaw/internal/frame"
	"macaw/internal/geom"
)

// replier answers every RTS addressed to it with a CTS, and every DATA with
// a DATA echoing its payload, transmitted synchronously from inside
// RadioReceive and built in one reused outbox — the way the MAC engines
// answer. The echo's payload buffer is reused too: it is scribbled over as
// soon as Transmit returns.
type replier struct {
	recorder
	r   *Radio
	out frame.Frame
	pay []byte
}

func (h *replier) RadioReceive(f *frame.Frame) {
	h.recorder.RadioReceive(f)
	if f.Dst != h.r.ID() {
		return
	}
	switch f.Type {
	case frame.RTS:
		h.out = frame.Frame{Type: frame.CTS, Src: h.r.ID(), Dst: f.Src, DataBytes: f.DataBytes, Seq: f.Seq + 100}
		h.r.Transmit(&h.out)
	case frame.DATA:
		h.pay = append(h.pay[:0], f.Payload...)
		h.out = frame.Frame{Type: frame.DATA, Src: h.r.ID(), Dst: f.Src, DataBytes: f.DataBytes, Seq: f.Seq + 100, Payload: h.pay}
		h.r.Transmit(&h.out)
		scribble(h.pay)
	}
}

// scribble overwrites b in place, as a sender recycling its packet would.
func scribble(b []byte) {
	for i := range b {
		b[i] = 'X'
	}
}

// payloadsOf lists the payloads of fs, for failure messages.
func payloadsOf(fs []*frame.Frame) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = string(f.Payload)
	}
	return out
}

// TestTransmitPayloadOwnedByMedium pins that the medium owns the payload
// bytes on the air, not just the frame header: the sender scribbles over its
// payload storage right after Transmit — as a host does once the MAC reports
// the packet sent and the pool hands it to the next segment — yet every
// receiver decodes the original bytes. B echoes the payload from inside
// RadioReceive and scribbles over its own buffer in turn; C, notified after
// B, still gets A's bytes and then B's.
func TestTransmitPayloadOwnedByMedium(t *testing.T) {
	s, m := newTestMedium(t)
	a := m.Attach(1, geom.V(0, 0, 6), nil)
	bh := &replier{}
	bh.r = m.Attach(2, geom.V(4, 0, 6), bh)
	ch := &recorder{}
	m.Attach(3, geom.V(2, 3, 6), ch)
	for round := 0; round < 3; round++ {
		bh.received, ch.received = bh.received[:0], ch.received[:0]
		pay := []byte("original payload")
		out := frame.Frame{Type: frame.DATA, Src: 1, Dst: 2, DataBytes: frame.DefaultDataBytes, Seq: uint32(round), Payload: pay}
		data := *out.Clone()
		echo := frame.Frame{Type: frame.DATA, Src: 2, Dst: 1, DataBytes: frame.DefaultDataBytes, Seq: uint32(round) + 100, Payload: []byte("original payload")}
		a.Transmit(&out)
		scribble(pay)
		s.RunAll()
		if len(bh.received) != 1 || !reflect.DeepEqual(*bh.received[0], data) {
			t.Fatalf("round %d: addressee got %v %q, want [%v] [%q]", round, bh.received, payloadsOf(bh.received), &data, data.Payload)
		}
		if len(ch.received) != 2 || !reflect.DeepEqual(*ch.received[0], data) || !reflect.DeepEqual(*ch.received[1], echo) {
			t.Fatalf("round %d: overhearer got %v %q, want [%v %v] [%q %q]", round, ch.received, payloadsOf(ch.received), &data, &echo, data.Payload, echo.Payload)
		}
	}
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
// in flight, payload bytes included, instead of sharing them. The fork
// adopts the twin while A's DATA is on the air; the twin then finishes it
// (recycling and zeroing its record) and sends a different frame from the
// same outbox, which takes over the same record and its payload buffer. The
// sender scribbles over its payload bytes right after Transmit. The fork's
// copy must not move, and the fork must still deliver the original.
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

	pay := []byte("first")
	out := frame.Frame{Type: frame.DATA, Src: 1, Dst: 2, DataBytes: frame.DefaultDataBytes, Seq: 7, Payload: pay}
	want := *out.Clone()
	wa.Transmit(&out)
	scribble(pay)
	if err := fm.AdoptFrom(wm); err != nil {
		t.Fatal(err)
	}

	runWarm()
	out = frame.Frame{Type: frame.DATA, Src: 1, Dst: 2, DataBytes: 100, Seq: 8, Payload: []byte("second")}
	wa.Transmit(&out)
	if len(fm.active) != 1 {
		t.Fatalf("fork has %d transmissions in flight, want 1", len(fm.active))
	}
	if got := fm.active[0].f; !reflect.DeepEqual(got, want) {
		t.Fatalf("fork's in-flight frame moved with the twin: %v %q, want %v %q", &got, got.Payload, &want, want.Payload)
	}
	runFork()
	if len(fh.received) != 1 || !reflect.DeepEqual(*fh.received[0], want) {
		t.Fatalf("fork delivered %v %q, want %v %q", fh.received, payloadsOf(fh.received), &want, want.Payload)
	}
}
