package macaw

import (
	"fmt"

	"macaw/internal/backoff"
	"macaw/internal/frame"
	"macaw/internal/mac"
)

// AdoptFrom implements mac.Engine: it copies the warm twin's mutable protocol
// state into m, which must be a freshly built twin bound to an identically
// built environment (DESIGN.md §15). Queued and pending packets are shared — a
// mac.Packet is immutable while any network holds it, and only its owning pool
// recycles it, after its terminal upcall (mac.PacketPool) — and sharing
// preserves the pointer identity the piggyback path compares (queue head vs
// pending entry). The pending state timer is re-armed at its exact (when, prio,
// seq) ordering key from the copied timer kind. It fails closed on anything
// this fork path cannot reproduce: a halted instance, mismatched options, a
// mismatched backoff policy, or a live timer with no kind.
func (m *MACAW) AdoptFrom(peer mac.Engine) error {
	w, ok := peer.(*MACAW)
	if !ok {
		return fmt.Errorf("macaw: adopt: engine is %T here vs %T in warm twin", m, peer)
	}
	if w.halted || m.halted {
		return fmt.Errorf("macaw: adopt: halted instance (warm=%t fork=%t)", w.halted, m.halted)
	}
	mo, wo := m.opt, w.opt
	mo.Policy, wo.Policy = nil, nil
	if mo != wo {
		return fmt.Errorf("macaw: adopt: options differ (%+v here vs %+v in warm twin)", mo, wo)
	}
	if err := backoff.Adopt(m.pol, w.pol); err != nil {
		return err
	}
	m.st = w.st
	m.deferUntil = w.deferUntil
	m.carrierClearAt = w.carrierClearAt
	if m.opt.PerStream {
		m.streams.AdoptFrom(w.streams)
	} else {
		m.fifo.AdoptFrom(&w.fifo)
	}
	m.attempts = copyMap(w.attempts)
	m.seq = w.seq
	m.cur = w.cur
	m.curDst = w.curDst
	m.expectSrc = w.expectSrc
	m.txHead, m.txWantAck = w.txHead, w.txWantAck
	m.rrtsFor, m.rrtsLen, m.hasRRTS, m.rrtsSeen = w.rrtsFor, w.rrtsLen, w.hasRRTS, w.rrtsSeen
	m.lastAcked = copyMap(w.lastAcked)
	m.everAcked = copyMap(w.everAcked)
	m.seenESN = copyMap(w.seenESN)
	m.pending = copyMap(w.pending)
	m.pendingRetries = copyMap(w.pendingRetries)
	m.stats = w.stats

	m.tk = w.tk
	if w.tk == tNone && w.timer.Live() {
		return fmt.Errorf("macaw: adopt: live timer in state %s with no timer kind", w.st)
	}
	m.timer = m.env.Sim.ReadoptCall(w.timer, timerCall, m, w.tk)
	return nil
}

func copyMap[K frame.NodeID, V int | uint32 | bool | *mac.Packet](src map[K]V) map[K]V {
	dst := make(map[K]V, len(src))
	for k, v := range src {
		dst[k] = v
	}
	return dst
}

// BackoffPolicy exposes the live policy for barrier-time retuning (sweep
// deltas).
func (m *MACAW) BackoffPolicy() backoff.Policy { return m.pol }

// SetMaxRetries rewrites the per-packet retry limit, effective from the next
// failed attempt.
func (m *MACAW) SetMaxRetries(n int) { m.env.Cfg.MaxRetries = n }
