package phy

import (
	"fmt"

	"macaw/internal/sim"
)

// This file is the radio medium's side of warm-started forking (DESIGN.md
// §15). A freshly built medium adopts the authoritative state of a warmed
// twin — active transmissions and their receptions, counters, per-radio
// flags, noise-source switches, pool sizes — and re-arms each pending
// end-of-transmission event at its exact ordering key. Derived caches
// (gains, noise sums, carrier folds, audible lists) are rebuilt locally;
// the carrier refold reproduces the warmed values bit-identically because
// incremental fold extension and refolding sum the same terms in the same
// order.

// AdoptFrom copies w's mutable state into m, which must have been built
// identically (same topology, same attach order, same parameters). Frames in
// flight are copied by value along with the transmission and reception
// records, so the twins never alias each other's frames or bookkeeping. It
// fails closed when the two media are observably different shapes or when w
// carries state this fork path does not reproduce (a stateful noise model).
func (m *Medium) AdoptFrom(w *Medium) error {
	if len(m.radios) != len(w.radios) {
		return fmt.Errorf("phy: adopt: %d radios here vs %d in warm medium", len(m.radios), len(w.radios))
	}
	if _, ok := m.noise.(NoNoise); !ok {
		return fmt.Errorf("phy: adopt: stateful noise model %T not supported", m.noise)
	}
	if _, ok := w.noise.(NoNoise); !ok {
		return fmt.Errorf("phy: adopt: stateful noise model %T not supported", w.noise)
	}
	if len(m.sources) != len(w.sources) {
		return fmt.Errorf("phy: adopt: %d noise sources here vs %d in warm medium", len(m.sources), len(w.sources))
	}
	if len(m.active) != 0 {
		return fmt.Errorf("phy: adopt: medium already has %d active transmissions", len(m.active))
	}
	for i, r := range m.radios {
		wr := w.radios[i]
		if r.id != wr.id || r.pos != wr.pos {
			return fmt.Errorf("phy: adopt: radio %d is (%v,%v) here vs (%v,%v) in warm medium",
				i, r.id, r.pos, wr.id, wr.pos)
		}
	}

	// Per-radio flags. Receptions are re-linked below from the cloned
	// transmissions, so each radio's recs list starts empty.
	for i, r := range m.radios {
		wr := w.radios[i]
		r.enabled = wr.enabled
		r.carrierBusy = wr.carrierBusy
		r.tx = nil
		r.recs = r.recs[:0]
	}
	for i, ns := range m.sources {
		ns.on = w.sources[i].on
	}

	// Clone the active transmissions in active-list (summation) order,
	// copying their frames and re-arming each completion event at
	// its exact (when, prio, seq) key.
	m.active = m.active[:0]
	for _, wt := range w.active {
		t := m.allocTx()
		t.radio = m.radios[wt.radio.idx]
		t.f = wt.f
		t.end, t.idx, t.seq = wt.end, wt.idx, wt.seq
		t.radio.tx = t
		m.active = append(m.active, t)
		for _, wrec := range wt.rx {
			q := m.radios[wrec.radio.idx]
			rec := m.allocRec(q, wrec.power)
			rec.corrupted = wrec.corrupted
			rec.tx = t
			rec.pos = len(q.recs)
			q.recs = append(q.recs, rec)
			t.rx = append(t.rx, rec)
		}
		t.endEv = m.s.ReadoptCall(wt.endEv, endTxCall, m, t)
		if t.endEv.IsZero() {
			return fmt.Errorf("phy: adopt: transmission seq=%d from %v has no live end event", wt.seq, wt.radio.id)
		}
	}
	m.txSeq = w.txSeq
	m.counters = w.counters

	// Pool sizes are logical state (the inventory dumps them as lengths);
	// fresh records carry no other state.
	m.txFree = m.txFree[:0]
	for i := 0; i < len(w.txFree); i++ {
		m.txFree = append(m.txFree, &transmission{m: m})
	}
	m.recFree = m.recFree[:0]
	for i := 0; i < len(w.recFree); i++ {
		m.recFree = append(m.recFree, &reception{})
	}

	// Rebuild derived state: audible lists from the adopted active set,
	// noise sums from the adopted source switches, and the carrier folds
	// from scratch — bit-identical to the warmed incremental folds.
	if m.indexed {
		for _, r := range m.radios {
			m.rebuildAudible(r)
		}
	}
	m.invalidateNoise()
	m.recomputeCarrier()
	return nil
}

// EndEventFor is a test hook reporting the scheduled completion handle of
// the radio's in-flight transmission (zero when idle).
func (r *Radio) EndEventFor() sim.Event {
	if r.tx == nil {
		return sim.Event{}
	}
	return r.tx.endEv
}
