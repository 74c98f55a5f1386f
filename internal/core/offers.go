package core

import (
	"fmt"
	"sort"
	"strconv"

	"macaw/internal/sim"
)

// offerLog records when each of a stream's packets was offered, until the
// packet is delivered. Stream seqs are dense from 1 (both senders number
// their packets 1, 2, ...), so recent seqs live in a slice indexed by
// seq-base-1, with a consumed sentinel marking delivered ones. When the
// slice fills and its older half is mostly delivered, that half is retired:
// the few packets there still undelivered (lost, or long queued) move to a
// short sorted list, and the window slides down in place. Memory thus tracks
// the undelivered packets, as a map keyed by seq would, without a map's
// per-entry cost, and steady traffic allocates nothing.
type offerLog struct {
	base   uint32     // seqs up to base have left the window
	window []sim.Time // window[i]: offer time of seq base+i+1, or consumed
	old    []offer    // undelivered seqs retired from the window, ascending
}

type offer struct {
	seq uint32
	at  sim.Time
}

// consumed marks a window slot whose packet has been delivered.
const consumed sim.Time = -1

// add records that seq, the next seq of the stream, was offered at t.
func (l *offerLog) add(seq uint32, t sim.Time) {
	if want := l.base + uint32(len(l.window)) + 1; seq != want {
		panic(fmt.Sprintf("core: offered seq %d, want %d", seq, want))
	}
	if n := len(l.window); n == cap(l.window) && n >= 8 {
		l.retire()
	}
	l.window = append(l.window, t)
}

// retire slides the window past its older half when at most a quarter of
// that half is undelivered; otherwise the window is left to grow.
func (l *offerLog) retire() {
	half := len(l.window) / 2
	pending := 0
	for _, at := range l.window[:half] {
		if at != consumed {
			pending++
		}
	}
	if 4*pending > half {
		return
	}
	for i, at := range l.window[:half] {
		if at != consumed {
			l.old = append(l.old, offer{l.base + uint32(i) + 1, at})
		}
	}
	l.window = l.window[:copy(l.window, l.window[half:])]
	l.base += uint32(half)
}

// take returns seq's offer time and forgets it; ok is false when seq was
// never offered or has already been taken.
func (l *offerLog) take(seq uint32) (at sim.Time, ok bool) {
	if seq > l.base {
		i := int(seq - l.base - 1)
		if i >= len(l.window) || l.window[i] == consumed {
			return 0, false
		}
		at = l.window[i]
		l.window[i] = consumed
		return at, true
	}
	j := sort.Search(len(l.old), func(j int) bool { return l.old[j].seq >= seq })
	if j == len(l.old) || l.old[j].seq != seq {
		return 0, false
	}
	at = l.old[j].at
	l.old = append(l.old[:j], l.old[j+1:]...)
	return at, true
}

// copyFrom makes l a copy of w.
func (l *offerLog) copyFrom(w *offerLog) {
	l.base = w.base
	l.window = append(l.window[:0], w.window...)
	l.old = append(l.old[:0], w.old...)
}

// appendState dumps the undelivered offers in seq order.
func (l *offerLog) appendState(b []byte) []byte {
	n := len(l.old)
	for _, at := range l.window {
		if at != consumed {
			n++
		}
	}
	b = strconv.AppendInt(append(b, "offeredAt n="...), int64(n), 10)
	for _, o := range l.old {
		b = appendOffer(b, o.seq, o.at)
	}
	for i, at := range l.window {
		if at != consumed {
			b = appendOffer(b, l.base+uint32(i)+1, at)
		}
	}
	return append(b, '\n')
}

// appendOffer appends " seq@at" with strconv: the offer log is the longest
// line of a stream's capture.
func appendOffer(b []byte, seq uint32, at sim.Time) []byte {
	b = strconv.AppendUint(append(b, ' '), uint64(seq), 10)
	return strconv.AppendInt(append(b, '@'), int64(at), 10)
}
