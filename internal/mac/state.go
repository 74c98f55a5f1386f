package mac

import (
	"fmt"
	"strconv"
)

// This file provides the queue dumps shared by every protocol engine's
// snapshot state inventory (DESIGN.md §14). Packet identity is (dst, size,
// seq, enqueue time, payload length) — payload bytes are transport segments
// already pinned by the transport dump, so their length suffices here.
// The per-packet lines are the bulk of a capture, so they are rendered with
// strconv rather than fmt.

// AppendState appends the queue's packets in FIFO order.
func (q *Queue) AppendState(b []byte) []byte {
	b = append(b, "queue n="...)
	b = strconv.AppendInt(b, int64(q.n), 10)
	for i := 0; i < q.n; i++ {
		b = appendPacket(append(b, ' '), q.at(i))
	}
	return append(b, '\n')
}

// appendPacket appends {dst=.. size=.. seq=.. enq=.. pay=..}.
func appendPacket(b []byte, p *Packet) []byte {
	b = strconv.AppendUint(append(b, "{dst="...), uint64(p.Dst), 10)
	b = strconv.AppendInt(append(b, " size="...), int64(p.Size), 10)
	b = strconv.AppendUint(append(b, " seq="...), uint64(p.seq), 10)
	b = strconv.AppendInt(append(b, " enq="...), int64(p.Enqueued), 10)
	b = strconv.AppendInt(append(b, " pay="...), int64(len(p.Payload)), 10)
	return append(b, '}')
}

// AppendState appends every per-destination queue in first-seen order —
// the same deterministic order the protocols themselves iterate in.
func (s *StreamQueues) AppendState(b []byte) []byte {
	b = fmt.Appendf(b, "streamqueues dests=%d\n", len(s.order))
	for _, d := range s.order {
		b = fmt.Appendf(b, "  dst=%d ", d)
		b = s.qs[d].AppendState(b)
	}
	return b
}

// AppendPacketRef appends a named reference to an in-flight packet (or nil)
// using the same identity fields as the queue dump — the engines' sending /
// txHead continuation fields are inventory: a fork that lost track of the
// packet its pending air-time timer completes must diverge visibly here.
func AppendPacketRef(b []byte, name string, p *Packet) []byte {
	b = append(append(append(b, ' '), name...), '=')
	if p == nil {
		return append(b, "nil"...)
	}
	return appendPacket(b, p)
}

// AppendState appends the MAC counters (part of each engine's dump).
func (st Stats) AppendState(b []byte) []byte {
	return fmt.Appendf(b, "macstats data=%d rx=%d rts=%d retries=%d drops=%d cts=%d ds=%d ack=%d rrts=%d\n",
		st.DataSent, st.DataReceived, st.RTSSent, st.Retries, st.Drops,
		st.CTSSent, st.DSSent, st.ACKSent, st.RRTSSent)
}
