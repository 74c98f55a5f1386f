package mac

import (
	"reflect"
	"testing"
)

// ownedPacket builds a packet owned by pp whose payload points into storage
// of its own, the way a host's segment packets are built.
func ownedPacket(pp *PacketPool) (*Packet, *[12]byte) {
	var hdr [12]byte
	p := &Packet{Dst: 2, Size: 512, Payload: hdr[:], Enqueued: 40}
	p.SetSeq(9)
	pp.Own(p)
	return p, &hdr
}

// TestPacketPoolReusesZeroedPacket: a released packet comes back from Get
// zeroed, with its payload storage kept (length 0, same backing array).
func TestPacketPoolReusesZeroedPacket(t *testing.T) {
	var pp PacketPool
	if p := pp.Get(); p != nil {
		t.Fatalf("empty pool returned %+v", p)
	}
	p, hdr := ownedPacket(&pp)
	pp.Put(p)
	got := pp.Get()
	if got != p {
		t.Fatalf("Get returned %p, want the released %p", got, p)
	}
	if got.Dst != 0 || got.Size != 0 || got.Enqueued != 0 || got.Seq() != 0 || len(got.Payload) != 0 {
		t.Fatalf("reused packet not zeroed: %+v", got)
	}
	if cap(got.Payload) != len(hdr) || &got.Payload[:1][0] != &hdr[0] {
		t.Fatalf("reused packet lost its payload storage: cap %d", cap(got.Payload))
	}
	if pp.Get() != nil {
		t.Fatal("pool handed out one released packet twice")
	}
	// A reused packet can be released again.
	pp.Put(got)
	if pp.Get() != got {
		t.Fatal("second release of a reused packet was not recycled")
	}
}

// TestPacketPoolIgnoresForeignPackets: Put leaves packets of another pool —
// a warm twin's, shared with its forks — and packets of no pool untouched.
func TestPacketPoolIgnoresForeignPackets(t *testing.T) {
	var mine, twin PacketPool
	shared, _ := ownedPacket(&twin)
	loose := &Packet{Dst: 3, Size: 30, Payload: []byte("raw")}
	for _, p := range []*Packet{shared, loose} {
		before := *p
		mine.Put(p)
		if !reflect.DeepEqual(*p, before) {
			t.Fatalf("Put changed a foreign packet: %+v, was %+v", *p, before)
		}
	}
	if p := mine.Get(); p != nil {
		t.Fatalf("pool recycled a foreign packet %+v", p)
	}
	// The owner still can: foreign releases left its packet intact.
	twin.Put(shared)
	if twin.Get() != shared {
		t.Fatal("owner could not recycle its packet")
	}
}

// TestPacketPoolDoublePutPanics: two terminal upcalls for one packet are a
// MAC bug, and the second release must not put it on the free list twice.
func TestPacketPoolDoublePutPanics(t *testing.T) {
	var pp PacketPool
	p, _ := ownedPacket(&pp)
	pp.Put(p)
	defer func() {
		if recover() == nil {
			t.Fatal("second Put of the same packet did not panic")
		}
		if len(pp.free) != 1 {
			t.Fatalf("free list holds %d packets, want 1", len(pp.free))
		}
	}()
	pp.Put(p)
}
