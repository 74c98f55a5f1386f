package maca

import (
	"fmt"

	"macaw/internal/backoff"
	"macaw/internal/mac"
)

// AdoptFrom implements mac.Engine: it copies the warm twin's mutable protocol
// state into m, which must be a freshly built twin bound to an identically
// built environment (DESIGN.md §15). Queued packets are shared — a mac.Packet
// is immutable while any network holds it, and only its owning pool recycles
// it, after its terminal upcall (mac.PacketPool) — and the pending state timer
// is re-armed at its exact (when, prio, seq) ordering key from the copied timer
// kind. It fails closed on anything this fork path cannot reproduce: a halted
// instance, a mismatched backoff policy, or a live timer with no kind.
func (m *MACA) AdoptFrom(peer mac.Engine) error {
	w, ok := peer.(*MACA)
	if !ok {
		return fmt.Errorf("maca: adopt: engine is %T here vs %T in warm twin", m, peer)
	}
	if w.halted || m.halted {
		return fmt.Errorf("maca: adopt: halted instance (warm=%t fork=%t)", w.halted, m.halted)
	}
	if err := backoff.Adopt(m.pol, w.pol); err != nil {
		return err
	}
	m.st = w.st
	m.q.AdoptFrom(&w.q)
	m.retries = w.retries
	m.deferUntil = w.deferUntil
	m.curDst = w.curDst
	m.expectFrom = w.expectFrom
	m.sending = w.sending
	m.seq = w.seq
	m.stats = w.stats

	m.tk = w.tk
	if w.tk == tNone && w.timer.Live() {
		return fmt.Errorf("maca: adopt: live timer in state %s with no timer kind", w.st)
	}
	m.timer = m.env.Sim.ReadoptCall(w.timer, timerCall, m, w.tk)
	return nil
}

// BackoffPolicy exposes the live policy for barrier-time retuning (sweep
// deltas).
func (m *MACA) BackoffPolicy() backoff.Policy { return m.pol }

// SetMaxRetries rewrites the per-packet retry limit, effective from the next
// failed attempt.
func (m *MACA) SetMaxRetries(n int) { m.env.Cfg.MaxRetries = n }
