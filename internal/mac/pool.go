package mac

// PacketPool recycles the packets one network hands to its MACs. A packet's
// life in a MAC ends in at most one terminal upcall — Callbacks.Sent or
// Callbacks.Dropped — after which the MAC holds no reference to it, so the
// host releases the packet from that upcall and the next offered segment
// reuses it (DESIGN.md §8). A packet that never gets one is left to the
// garbage collector.
//
// Each packet records the pool that owns it, and Put ignores every other
// packet: the packets a warm-started fork shares with its twin (§15) belong
// to the twin's pool, so the fork never recycles what the twin and its other
// forks may still be reading. Packets built outside a pool (&Packet{…}) have
// no owner and are never recycled. A pool is single-threaded, like the
// simulator that drives it.
type PacketPool struct {
	free []*Packet
}

// Get returns a released packet, zeroed except for its payload storage
// (length 0, capacity kept), or nil when none is free.
func (pp *PacketPool) Get() *Packet {
	n := len(pp.free)
	if n == 0 {
		return nil
	}
	p := pp.free[n-1]
	pp.free[n-1] = nil
	pp.free = pp.free[:n-1]
	p.released = false
	return p
}

// Own makes pp the owner of p, a packet the caller has just built, so that
// Put recycles it once it is released.
func (pp *PacketPool) Own(p *Packet) { p.pool = pp }

// Put releases p to the free list if pp owns it, zeroing everything but its
// payload storage; packets of another pool, or of none, are left untouched.
// Releasing a packet twice panics: it means two terminal upcalls for one
// packet, and a packet on the free list may already carry another segment.
func (pp *PacketPool) Put(p *Packet) {
	if p.pool == nil || p.pool != pp {
		return
	}
	if p.released {
		panic("mac: packet released twice")
	}
	*p = Packet{Payload: p.Payload[:0], pool: pp, released: true}
	pp.free = append(pp.free, p)
}
