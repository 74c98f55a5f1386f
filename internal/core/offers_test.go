package core

import (
	"strings"
	"testing"

	"macaw/internal/frame"
	"macaw/internal/geom"
	"macaw/internal/mac/macaw"
	"macaw/internal/sim"
	"macaw/internal/transport"
)

// TestOfferLogTakesEachSeqOnce checks the bookkeeping a delay measurement
// relies on: every offered seq is taken exactly once, in any order, and
// never-offered seqs are not found.
func TestOfferLogTakesEachSeqOnce(t *testing.T) {
	var l offerLog
	for seq := uint32(1); seq <= 8; seq++ {
		l.add(seq, sim.Time(seq)*10)
	}
	for _, seq := range []uint32{2, 1, 4, 5, 7, 8} {
		if at, ok := l.take(seq); !ok || at != sim.Time(seq)*10 {
			t.Fatalf("take(%d) = %d, %t", seq, at, ok)
		}
	}
	for _, seq := range []uint32{0, 2, 9} {
		if _, ok := l.take(seq); ok {
			t.Fatalf("take(%d) found a seq that is not pending", seq)
		}
	}
	if got, want := string(l.appendState(nil)), "offeredAt n=2 3@30 6@60\n"; got != want {
		t.Fatalf("state = %q, want %q", got, want)
	}
}

// TestOfferLogRetiresLostSeqs drives a long stream with a few lost packets:
// the window stays short, the lost seqs stay pending (in seq order in the
// dump) and can still be taken by a late delivery, and steady traffic does
// not allocate.
func TestOfferLogRetiresLostSeqs(t *testing.T) {
	var l offerLog
	lost := map[uint32]bool{3: true, 100: true, 4000: true}
	seq := uint32(0)
	step := func() {
		seq++
		l.add(seq, sim.Time(seq))
		if seq > 2 && !lost[seq-2] {
			l.take(seq - 2) // two packets in flight
		}
	}
	for seq < 10000 {
		step()
	}
	if len(l.window) > 16 {
		t.Fatalf("window holds %d slots with 2 packets in flight", len(l.window))
	}
	state := string(l.appendState(nil))
	if !strings.HasPrefix(state, "offeredAt n=5 3@3 100@100 4000@4000 9999@9999 10000@10000\n") {
		t.Fatalf("state = %q", state)
	}
	if at, ok := l.take(100); !ok || at != 100 {
		t.Fatalf("late delivery of a retired seq: %d, %t", at, ok)
	}
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Fatalf("steady offer/deliver allocated %.1f times per packet, want 0", n)
	}
}

// TestOfferLogDumpBytes pins the strconv rendering of the offer log byte
// for byte with both halves populated: undelivered seqs retired from the
// window (in old) followed by pending window slots. Rendering into a buffer
// with room allocates nothing.
func TestOfferLogDumpBytes(t *testing.T) {
	var l offerLog
	for seq := uint32(1); seq <= 9; seq++ {
		l.add(seq, sim.Time(seq)*1000000007)
		if seq != 2 && seq < 8 {
			l.take(seq)
		}
	}
	if len(l.old) != 1 || l.base == 0 {
		t.Fatalf("old=%v base=%d; the test wants a retired half", l.old, l.base)
	}
	want := "offeredAt n=3 2@2000000014 8@8000000056 9@9000000063\n"
	if got := string(l.appendState(nil)); got != want {
		t.Fatalf("state = %q, want %q", got, want)
	}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() { l.appendState(buf) }); n != 0 {
		t.Fatalf("rendering the offer log allocated %.1f times, want 0", n)
	}
}

// TestOfferLogCopy checks the fork copy: same pending set, independent
// storage.
func TestOfferLogCopy(t *testing.T) {
	var w, f offerLog
	for seq := uint32(1); seq <= 40; seq++ {
		w.add(seq, sim.Time(seq))
		if seq%7 != 0 {
			w.take(seq)
		}
	}
	f.copyFrom(&w)
	if a, b := string(w.appendState(nil)), string(f.appendState(nil)); a != b {
		t.Fatalf("copy dumps %q, original %q", b, a)
	}
	f.take(7)
	f.take(35)
	if _, ok := w.take(35); !ok {
		t.Fatal("taking from the copy changed the original")
	}
}

// TestOfferLogRejectsSparseSeqs: the slice indexing is only sound for
// dense seqs, so a gap fails loudly.
func TestOfferLogRejectsSparseSeqs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on a skipped seq")
		}
	}()
	var l offerLog
	l.add(1, 0)
	l.add(3, 0)
}

// TestSendSegmentAllocatesOnce: with no released packet to reuse (the cold
// path), the MAC packet and its segment header share one allocation.
func TestSendSegmentAllocatesOnce(t *testing.T) {
	n := NewNetwork(1)
	a := n.AddStation("A", geom.V(0, 0, 6), MACAWFactory(macaw.DefaultOptions()))
	b := n.AddStation("B", geom.V(0, 0, 12), MACAWFactory(macaw.DefaultOptions()))
	seg := transport.Segment{Proto: transport.ProtoUDP, Stream: 1, Kind: transport.KindData, Seq: 1}
	if got := testing.AllocsPerRun(100, func() { a.SendSegment(b.ID(), seg, transport.DataBytes) }); got != 1 {
		t.Fatalf("SendSegment allocated %.0f times per packet, want 1", got)
	}
}

// TestSendSegmentRecyclesReleasedPackets: a packet's terminal upcall releases
// it to the network's pool, and the next offered segment reuses it. Once the
// pools are warm, one UDP offer plus its complete RTS-CTS-DS-DATA-ACK
// exchange, delivery to the receiving agent included, allocates nothing — a
// segment that did not find the released packet would cost one allocation.
func TestSendSegmentRecyclesReleasedPackets(t *testing.T) {
	const runs = 50
	n := NewNetwork(1)
	a := n.AddStation("A", geom.V(0, 0, 6), MACAWFactory(macaw.DefaultOptions()))
	b := n.AddStation("B", geom.V(6, 0, 6), MACAWFactory(macaw.DefaultOptions()))
	s := n.AddStream(a, b, UDP, 1) // never started: the test offers by hand
	delivered := 0
	b.Handle(func(frame.NodeID, transport.Segment) { delivered++ })
	offer := func() {
		sent := a.MAC().Stats().DataSent
		s.udpSender.Offer()
		for a.MAC().Stats().DataSent == sent {
			if !n.Sim.Step() {
				t.Fatal("simulation ran dry mid-exchange")
			}
		}
	}
	offer() // warms the pools; AllocsPerRun runs one more unmeasured
	if got := testing.AllocsPerRun(runs, offer); got != 0 {
		t.Fatalf("one offer and its exchange allocated %.2f times, want 0", got)
	}
	if delivered != runs+2 || a.MAC().Stats().Drops != 0 {
		t.Fatalf("delivered %d segments, %d drops, want %d and 0", delivered, a.MAC().Stats().Drops, runs+2)
	}
}
