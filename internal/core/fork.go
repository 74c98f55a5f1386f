package core

import (
	"errors"
	"fmt"
	"strings"

	"macaw/internal/traffic"
)

// This file implements warm-started forking at the network level (DESIGN.md
// §15): one network warmed to a barrier becomes the template for many
// parameter variants, each of which adopts the warm state in memory instead
// of replaying the warmup window. The contract is the same as checkpoint
// restore's, enforced the same way: the fork must be built identically (same
// layout, same factories, same seed — so the build-time RNG stream creation
// and draws reproduce the warm twin's), the adoption copies every piece of
// mutable state the snapshot inventory pins, and the adopted state is
// byte-verified against the warm twin's capture before a single post-barrier
// event fires. Adoption only reads the warm network, so many forks can adopt
// the same immobile twin concurrently.

// ErrAdopt marks a failed warm-fork adoption: the fork and the warm twin are
// observably different shapes, or the warm twin carries state this path does
// not reproduce (a halted or fault-injected station, TCP transport, a
// non-CBR generator). Callers fall back to a cold run.
var ErrAdopt = errors.New("core: warm-fork adoption failed")

// ErrForkDiverged means the adopted state inventory is not byte-identical to
// the warm twin's — the fork must not continue.
var ErrForkDiverged = errors.New("core: forked state diverged from warm twin")

// AdoptFrom turns n — a freshly built, never-run twin of w — into a running
// copy of w at w's current virtual time. On return n is armed exactly as w
// is: same run window, same pending events at the same (when, prio, seq)
// keys, same RNG cursors, same protocol and transport state, and a
// byte-identical state inventory (verified; ErrForkDiverged names the first
// differing line otherwise). The warm twin must be quiescent between events
// — in practice, parked at a barrier by RunTo — and must have a compacted
// event queue (ForceCompactEvents) so both heaps hold exactly the same
// records.
func (n *Network) AdoptFrom(w *Network) error { return n.AdoptFromState(w, w.AppendState(nil)) }

// AdoptFromState is AdoptFrom verified against want, a capture of w's state
// inventory (w.AppendState) taken at its current barrier. A caller forking
// many variants from one parked twin renders that capture once instead of
// once per fork. A want that no longer matches w fails the verification
// exactly as a diverged fork does.
func (n *Network) AdoptFromState(w *Network, want []byte) error {
	// Build-time events (token's ring bootstrap and watchdogs) may already
	// be pending — DropAllEvents clears them below — but no event may have
	// fired: a fork that has run has consumed RNG draws and mutated state
	// the adoption cannot rewind.
	if _, fired, _, _ := n.Sim.SchedCounters(); n.Sim.Now() != 0 || fired != 0 {
		return fmt.Errorf("%w: fork has already run (now=%d, %d events fired)", ErrAdopt, n.Sim.Now(), fired)
	}
	if len(n.stations) != len(w.stations) {
		return fmt.Errorf("%w: %d stations here vs %d in warm twin", ErrAdopt, len(n.stations), len(w.stations))
	}
	if len(n.streams) != len(w.streams) {
		return fmt.Errorf("%w: %d streams here vs %d in warm twin", ErrAdopt, len(n.streams), len(w.streams))
	}
	if _, _, cancelled, _ := w.Sim.SchedCounters(); cancelled != 0 {
		return fmt.Errorf("%w: warm twin holds %d cancelled events; ForceCompactEvents it at the barrier first", ErrAdopt, cancelled)
	}

	// Arm the same run window the warm twin is in. Start draws no
	// randomness (CBR phases were drawn at build) and runs no events; it
	// creates the measurement windows and the initial generator ticks,
	// which the re-arm below replaces with the warm twin's.
	n.Start(w.runTotal, w.warmup)
	if n.runStart != w.runStart {
		return fmt.Errorf("%w: run started at %d here vs %d in warm twin", ErrAdopt, n.runStart, w.runStart)
	}
	n.Sim.DropAllEvents()

	if err := n.Medium.AdoptFrom(w.Medium); err != nil {
		return fmt.Errorf("%w: %v", ErrAdopt, err)
	}
	for i, st := range n.stations {
		if err := st.adoptFrom(w.stations[i]); err != nil {
			return fmt.Errorf("%w: station %s: %v", ErrAdopt, st.name, err)
		}
	}
	for i, s := range n.streams {
		if err := s.adoptFrom(w.streams[i]); err != nil {
			return fmt.Errorf("%w: stream %s: %v", ErrAdopt, s.Name, err)
		}
	}

	// Engine bookkeeping last: the free pool to the warm size (re-arms
	// above consumed recycled records), then the counters (heapPush
	// maintains the queue high-water mark, so SetCounters must run after
	// every re-arm), the clock, and the RNG cursors.
	n.Sim.SetFreeList(w.Sim.FreeLen())
	seq, fired, cancelled, maxq := w.Sim.SchedCounters()
	n.Sim.SetCounters(seq, fired, cancelled, maxq)
	n.Sim.SetClock(w.Sim.Now())
	if err := n.Sim.AdvanceRNG(w.Sim.StreamCursors()); err != nil {
		return fmt.Errorf("%w: %v", ErrAdopt, err)
	}

	// The proof obligation: the adopted inventory must be byte-identical
	// to the warm twin's. Any copy this file missed — a new engine field,
	// a new layer — surfaces here, before any post-barrier event fires.
	got := n.AppendState(make([]byte, 0, len(want)))
	if string(want) != string(got) {
		return fmt.Errorf("%w at %s", ErrForkDiverged, firstDiffLine(want, got))
	}
	return nil
}

// ForceCompactEvents removes cancelled events from the network's queue
// immediately (see sim.ForceCompact). Warm templates run it once at the
// barrier so every fork adopts an identical, compaction-free heap.
func (n *Network) ForceCompactEvents() { n.Sim.ForceCompact() }

// firstDiffLine locates the first line where two state inventories differ.
func firstDiffLine(want, got []byte) string {
	wl := strings.Split(string(want), "\n")
	gl := strings.Split(string(got), "\n")
	for i := range wl {
		if i >= len(gl) {
			return fmt.Sprintf("line %d: fork state ends %d lines early", i+1, len(wl)-len(gl))
		}
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  warm: %q\n  fork: %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line %d: fork state has %d extra lines, first %q", len(wl)+1, len(gl)-len(wl), gl[len(wl)])
}

// adoptFrom copies one station's mutable state: the fault tally and the MAC
// engine. Fault-injected histories are refused — a restart draws fresh RNG
// streams the fork's build did not create, so the cursors cannot be
// positioned.
func (st *Station) adoptFrom(w *Station) error {
	if st.id != w.id || st.name != w.name {
		return fmt.Errorf("station is %d/%s here vs %d/%s in warm twin", st.id, st.name, w.id, w.name)
	}
	if w.crashes != 0 || w.restarts != 0 {
		return fmt.Errorf("fault-injected station (crashes=%d restarts=%d) cannot fork", w.crashes, w.restarts)
	}
	st.dropped = w.dropped
	// The SPI makes forking uniform: every engine's AdoptFrom asserts the
	// concrete twin type itself and fails closed on a mismatch, so the
	// per-protocol type switch this function used to carry is gone.
	return st.mac.AdoptFrom(w.mac)
}

// adoptFrom copies one stream's mutable state: delivery bookkeeping, the
// measurement window, the generator (CBR only), and the transport sender.
// TCP streams are refused — the TCP agents' retransmission state is not yet
// covered by an adopt hook.
func (s *Stream) adoptFrom(w *Stream) error {
	if s.Name != w.Name || s.Kind != w.Kind || s.Rate != w.Rate || s.id != w.id || s.startAt != w.startAt {
		return fmt.Errorf("stream is %s/%v/%g/#%d here vs %s/%v/%g/#%d in warm twin",
			s.Name, s.Kind, s.Rate, s.id, w.Name, w.Kind, w.Rate, w.id)
	}
	if s.tcpSender != nil || s.tcpRecv != nil || w.tcpSender != nil || w.tcpRecv != nil {
		return fmt.Errorf("tcp streams cannot fork")
	}
	s.offered = w.offered
	s.offers.copyFrom(&w.offers)
	s.delays = append(s.delays[:0], w.delays...)
	if err := s.counter.AdoptFrom(w.counter); err != nil {
		return err
	}
	cg, ok := s.gen.(*traffic.CBR)
	if !ok {
		return fmt.Errorf("generator %T cannot fork", s.gen)
	}
	if err := cg.AdoptFrom(w.gen); err != nil {
		return err
	}
	return s.udpSender.AdoptFrom(w.udpSender)
}
