package phy

import (
	"fmt"
	"math"
	"math/rand"

	"macaw/internal/frame"
	"macaw/internal/geom"
	"macaw/internal/sim"
)

// Handler receives physical-layer indications for one radio. Callbacks are
// always delivered from the simulator event loop, never synchronously from
// inside a Transmit call, so handlers may freely call back into the radio.
//
// The frame passed to RadioReceive and RadioCorrupted is the medium's own
// in-flight copy, shared among all receivers of the transmission: it must not
// be mutated, and it is valid only for the duration of the call. A handler
// that needs the frame afterwards keeps a copy (*f or f.Clone()), never the
// pointer.
type Handler interface {
	// RadioReceive delivers a cleanly received frame, including overheard
	// frames addressed to other stations.
	RadioReceive(f *frame.Frame)
	// RadioCarrier signals transitions of the carrier-sense indication.
	RadioCarrier(busy bool)
}

// CorruptionObserver is an optional extension of Handler: if implemented,
// the radio reports receptions destroyed by collision or noise. Only the
// intended destination is notified.
type CorruptionObserver interface {
	RadioCorrupted(f *frame.Frame)
}

// Counters aggregates medium-level statistics.
type Counters struct {
	// Transmissions counts frames put on the air.
	Transmissions int
	// Delivered counts clean receptions (including overhears).
	Delivered int
	// Corrupted counts receptions destroyed by collision.
	Corrupted int
	// NoiseDropped counts receptions destroyed by the noise model.
	NoiseDropped int
	// Aborted counts receptions abandoned because the receiving radio
	// started transmitting (half-duplex) or was disabled.
	Aborted int
}

type reception struct {
	radio     *Radio
	power     float64
	corrupted bool
	// tx is the owning transmission, excluded when summing interference
	// against this reception.
	tx *transmission
	// pos is the reception's position in radio.recs, kept current so the
	// completion path unlinks it without scanning.
	pos int
}

type transmission struct {
	m     *Medium
	radio *Radio
	// f is the frame on the air, copied in by startTx: the sender may reuse
	// its own frame storage as soon as Transmit returns.
	f   frame.Frame
	end sim.Time
	rx  []*reception
	// idx is the transmission's position in Medium.active, kept current by
	// startTx/endTx so completion does not scan the active list.
	idx int
	// seq is the global start-order stamp. Per-radio audible lists stay
	// sorted by it, which is exactly the active-list (summation) order.
	seq uint64
	// endEv is the scheduled end-of-transmission event, retained so a
	// warm-started fork can re-arm the completion at its exact ordering key.
	endEv sim.Event
	// pending counts the receive and corrupt notifications endTx scheduled
	// that have not fired yet. They point into f, so the record returns to
	// the free list only when the last of them has fired.
	pending int
}

// NoiseSource is a positional energy emitter (e.g. the Figure 11 electronic
// whiteboard modeled as raw interference rather than packet loss).
type NoiseSource struct {
	m     *Medium
	pos   geom.Vec3
	power float64
	on    bool
	// cutoff is the distance beyond which this source's energy is below
	// the medium's negligibility floor (scaled by the source power);
	// +Inf when the medium has no floor.
	cutoff float64
}

// Set switches the source on or off, immediately re-evaluating ongoing
// receptions and carrier indications. Only radios within the source's
// negligibility range are touched: beyond it the source's energy is exactly
// zero, so nothing there can change.
func (n *NoiseSource) Set(on bool) {
	if n.on == on {
		return
	}
	n.on = on
	m := n.m
	if m.useIndex() {
		rs := m.radiosNear(n.pos, n.cutoff)
		for _, q := range rs {
			m.noiseSums[q.idx] = math.NaN()
		}
		for _, q := range rs {
			m.refoldCarrier(q)
		}
		m.recheckReceptionsAt(rs)
		m.updateCarrierFor(rs)
		return
	}
	m.invalidateNoise()
	m.recomputeCarrier()
	m.recheckInterference()
	m.updateCarrierFor(m.radios)
}

// On reports whether the source is radiating.
func (n *NoiseSource) On() bool { return n.on }

// Medium is the shared radio channel.
//
// Interference bookkeeping is designed so that every decision the medium
// takes is bit-identical to recomputing propagation from scratch on each
// query, while doing almost no floating-point math on the hot path:
//
//   - gains caches prop.Gain for every ordered radio pair, so a pair's
//     path loss (a math.Pow chain under the default model) is computed at
//     most once between position changes.
//   - carrier holds, per radio, the carrier-sense energy: the noise-source
//     energy followed by the gain of every active transmission, summed in
//     active-list order. Starting a transmission extends each radio's sum
//     on the right (exactly extending the left-to-right fold); ending one
//     re-folds from the cached gains. Sums are never maintained by blind
//     add/subtract accumulation: floating-point subtraction is not the
//     inverse of addition, and drift accumulated over millions of events
//     could flip marginal capture and carrier decisions, making runs
//     diverge from their seed-defined behaviour.
//
// On top of the caches sits the neighborhood index (see DESIGN.md §10).
// When the propagation model can certify a range (Bounded) and the params
// set a negligibility floor, every gain below the floor is stored as exactly
// zero, so a radio outside another's cutoff radius contributes nothing to
// any sum. Each radio then keeps the idx-sorted set of radios within the
// cutoff (nbr), maintained incrementally through a geom.Grid spatial hash,
// and the seq-sorted list of active transmissions from those radios
// (audible). Every per-event path — startTx, endTx, interference rechecks,
// carrier refolds, carrier notifications — iterates those neighbor sets
// instead of all radios and all transmissions. Because the skipped terms
// are exactly 0.0 and the included terms are summed in the same canonical
// order, the indexed paths are bit-identical to the exhaustive ones; the
// per-event cost merely drops from O(stations) to O(radio neighbors).
type Medium struct {
	s         *sim.Simulator
	prop      Propagation
	params    Params
	threshold float64
	capture   float64
	radios    []*Radio
	active    []*transmission
	sources   []*NoiseSource
	noise     NoiseModel
	rng       *rand.Rand
	counters  Counters

	// gains is the dense pairwise gain cache (NaN = not yet computed),
	// indexed [a.idx][b.idx]. Entries are exactly prop.Gain(a.pos, b.pos)
	// with the negligibility floor applied, so cached and fresh
	// computations are interchangeable.
	gains [][]float64
	// noiseSums caches noiseEnergyAt per radio (NaN = dirty).
	noiseSums []float64
	// carrier is the per-radio carrier-sense energy described above. The
	// entry for a transmitting radio may include its own (clamped, huge)
	// self-gain; it is never read while the radio transmits, and is
	// re-folded when its transmission ends.
	carrier []float64

	// Neighborhood index state. indexed is true when the propagation model
	// certified a cutoff for the params' negligibility floor; exhaustive
	// forces the O(N) iteration paths anyway (validation and benchmark
	// baseline — the results are bit-identical either way).
	indexed    bool
	exhaustive bool
	// floor is the negligibility floor: received power below it is stored
	// as exactly zero. Zero when the index is disabled (no clamping).
	floor float64
	// cutoff is the certified distance beyond which radio-to-radio gain is
	// below floor.
	cutoff float64
	grid   *geom.Grid
	// txSeq stamps transmissions with their start order.
	txSeq uint64
	// oldNbr and unionNbr are scratch buffers for mobility and noise-source
	// events; single is the scratch for one-radio carrier updates.
	oldNbr   []*Radio
	unionNbr []*Radio
	single   [1]*Radio

	// txFree and recFree recycle transmission and reception records, so
	// steady-state traffic allocates neither. A reception is dead once endTx
	// finishes; a transmission once its last notification has fired (see
	// releaseTx). Notifications are scheduled at the current instant, so at
	// every barrier Simulator.Run has fired them all and every record that is
	// not on the air is back on its free list.
	txFree  []*transmission
	recFree []*reception
}

// Closure-free event adapters for Simulator.AtPriorityCall: package-level
// functions whose arguments ride in the pooled event record, so the phy hot
// path schedules completions and notifications without allocating closures.
func endTxCall(a, b any)      { a.(*Medium).endTx(b.(*transmission)) }
func carrierOnCall(a, _ any)  { a.(Handler).RadioCarrier(true) }
func carrierOffCall(a, _ any) { a.(Handler).RadioCarrier(false) }

// receiveCall and corruptedCall hand the handler a pointer into the
// transmission record, then drop the notification's hold on it.
func receiveCall(a, b any) {
	t := b.(*transmission)
	a.(Handler).RadioReceive(&t.f)
	t.m.releaseTx(t)
}

func corruptedCall(a, b any) {
	t := b.(*transmission)
	a.(CorruptionObserver).RadioCorrupted(&t.f)
	t.m.releaseTx(t)
}

// allocTx takes a transmission record off the free list, or makes one.
func (m *Medium) allocTx() *transmission {
	if n := len(m.txFree); n > 0 {
		t := m.txFree[n-1]
		m.txFree[n-1] = nil
		m.txFree = m.txFree[:n-1]
		return t
	}
	return &transmission{m: m}
}

// releaseTx drops one notification's hold on t and frees the record when it
// was the last.
func (m *Medium) releaseTx(t *transmission) {
	t.pending--
	if t.pending == 0 {
		m.freeTx(t)
	}
}

// freeTx returns t to the free list. The frame is zeroed so its Payload stops
// pinning the sender's packet.
func (m *Medium) freeTx(t *transmission) {
	t.f = frame.Frame{}
	m.txFree = append(m.txFree, t)
}

// allocRec takes a reception record off the free list, or makes one.
func (m *Medium) allocRec(q *Radio, power float64) *reception {
	if n := len(m.recFree); n > 0 {
		rec := m.recFree[n-1]
		m.recFree[n-1] = nil
		m.recFree = m.recFree[:n-1]
		rec.radio, rec.power, rec.corrupted = q, power, false
		return rec
	}
	return &reception{radio: q, power: power}
}

// New creates a medium with the given physical parameters and no noise.
func New(s *sim.Simulator, p Params) *Medium {
	m := &Medium{
		s:         s,
		prop:      NewPropagation(p),
		params:    p,
		threshold: p.Threshold(),
		capture:   p.CaptureRatio(),
		noise:     NoNoise{},
		rng:       s.NewRand(),
	}
	m.reindex()
	return m
}

// SetNoise installs the packet-level noise model.
func (m *Medium) SetNoise(n NoiseModel) {
	if n == nil {
		n = NoNoise{}
	}
	m.noise = n
}

// SetPropagation overrides the propagation model (used by tests and by the
// naive boolean-range model). The neighborhood index is rebuilt for the new
// model's range certificate (or dropped if it has none).
func (m *Medium) SetPropagation(p Propagation) {
	m.prop = p
	m.reindex()
	m.invalidateAllGains()
	m.invalidateNoise()
	m.recomputeCarrier()
}

// SetExhaustive forces the medium onto its exhaustive iteration paths:
// every event walks all radios and all active transmissions, as if the
// neighborhood index did not exist. The negligibility floor stays in force,
// so results are bit-identical to the indexed paths — this is the
// validation reference and the benchmark baseline, not a behaviour switch.
func (m *Medium) SetExhaustive(on bool) { m.exhaustive = on }

// IndexEnabled reports whether per-event work is currently bounded by
// neighborhood size (a Bounded propagation model, a positive negligibility
// floor, and no exhaustive override).
func (m *Medium) IndexEnabled() bool { return m.useIndex() }

// AvgNeighbors reports the mean neighbor-set size (the radio itself
// included). Without an index every radio is everyone's neighbor.
func (m *Medium) AvgNeighbors() float64 {
	if len(m.radios) == 0 {
		return 0
	}
	if !m.indexed {
		return float64(len(m.radios))
	}
	sum := 0
	for _, r := range m.radios {
		sum += len(r.nbr)
	}
	return float64(sum) / float64(len(m.radios))
}

// useIndex reports whether event paths should iterate neighbor sets.
func (m *Medium) useIndex() bool { return m.indexed && !m.exhaustive }

// reindex derives the negligibility floor and cutoff radius from the
// current propagation model and rebuilds the spatial grid and all neighbor
// structures. Called from New and SetPropagation.
func (m *Medium) reindex() {
	m.indexed, m.floor, m.cutoff, m.grid = false, 0, 0, nil
	if floor, d, ok := indexCutoff(m.prop, m.params); ok {
		m.indexed, m.floor, m.cutoff = true, floor, d
	}
	if m.indexed {
		m.grid = geom.NewGrid(m.cutoff)
		for _, r := range m.radios {
			m.grid.Insert(int32(r.idx), r.pos)
		}
		for _, r := range m.radios {
			m.rebuildNeighborhood(r)
		}
		for _, r := range m.radios {
			m.rebuildAudible(r)
		}
	} else {
		for _, r := range m.radios {
			r.nbr, r.audible = nil, nil
		}
	}
	for _, ns := range m.sources {
		ns.cutoff = math.Inf(1)
		if m.indexed {
			ns.cutoff = m.sourceCutoff(ns.power)
		}
	}
}

// sourceCutoff bounds the distance at which a source of the given transmit
// power still matters: beyond it, power*gain is under the floor.
func (m *Medium) sourceCutoff(power float64) float64 {
	if power <= 0 {
		return 0
	}
	if b, ok := m.prop.(Bounded); ok {
		if d, ok := b.RangeFor(m.floor / power); ok {
			return d
		}
	}
	return math.Inf(1)
}

// Params returns the medium's physical parameters.
func (m *Medium) Params() Params { return m.params }

// Counters returns a snapshot of the medium statistics.
func (m *Medium) Counters() Counters { return m.counters }

// Attach adds a radio at pos. The handler may be nil initially and installed
// later with SetHandler, but must be set before any frame can be delivered.
func (m *Medium) Attach(id frame.NodeID, pos geom.Vec3, h Handler) *Radio {
	r := &Radio{id: id, pos: pos, m: m, h: h, enabled: true, idx: len(m.radios)}
	m.radios = append(m.radios, r)
	// Extend the gain cache by one dirty column and one dirty row; existing
	// entries stay valid — attaching a radio moves nobody.
	nan := math.NaN()
	for i := range m.gains {
		m.gains[i] = append(m.gains[i], nan)
	}
	row := make([]float64, len(m.radios))
	for i := range row {
		row[i] = nan
	}
	m.gains = append(m.gains, row)
	m.noiseSums = append(m.noiseSums, nan)
	m.carrier = append(m.carrier, 0)
	if m.indexed {
		m.grid.Insert(int32(r.idx), pos)
		m.rebuildNeighborhood(r)
		for _, q := range r.nbr {
			if q != r {
				insertNbrEntry(q, r)
			}
		}
		m.rebuildAudible(r)
	}
	m.refoldCarrier(r)
	return r
}

// AddNoiseSource registers an energy emitter at pos with the given transmit
// power (1.0 = station power). It starts switched off.
func (m *Medium) AddNoiseSource(pos geom.Vec3, power float64) *NoiseSource {
	ns := &NoiseSource{m: m, pos: pos, power: power, cutoff: math.Inf(1)}
	if m.indexed {
		ns.cutoff = m.sourceCutoff(power)
	}
	m.sources = append(m.sources, ns)
	m.invalidateNoise()
	m.recomputeCarrier()
	return ns
}

// Radios returns the attached radios in attach order.
func (m *Medium) Radios() []*Radio { return m.radios }

// invalidateAllGains marks every pairwise gain as not computed.
func (m *Medium) invalidateAllGains() {
	nan := math.NaN()
	for _, row := range m.gains {
		for k := range row {
			row[k] = nan
		}
	}
}

// invalidateRadioGains marks every gain involving r as not computed.
func (m *Medium) invalidateRadioGains(r *Radio) {
	nan := math.NaN()
	row := m.gains[r.idx]
	for k := range row {
		row[k] = nan
	}
	for k := range m.gains {
		m.gains[k][r.idx] = nan
	}
}

// invalidateNoise marks every radio's cached noise-source energy dirty.
func (m *Medium) invalidateNoise() {
	nan := math.NaN()
	for i := range m.noiseSums {
		m.noiseSums[i] = nan
	}
}

// gain returns prop.Gain(a.pos, b.pos) through the cache, with values under
// the negligibility floor stored as exactly zero. Directions are cached
// independently: the default models are symmetric, but a custom Propagation
// need not be.
func (m *Medium) gain(a, b *Radio) float64 {
	g := m.gains[a.idx][b.idx]
	if math.IsNaN(g) {
		g = m.prop.Gain(a.pos, b.pos)
		if m.floor > 0 && g < m.floor {
			g = 0
		}
		m.gains[a.idx][b.idx] = g
	}
	return g
}

// InRange reports whether a transmission from a would be decodable at b in
// the absence of interference — the paper's simple in-range predicate.
func (m *Medium) InRange(a, b *Radio) bool {
	return m.gain(a, b) >= m.threshold
}

// power returns the received power at q for a transmission from r.
func (m *Medium) power(r, q *Radio) float64 { return m.gain(r, q) }

// noiseEnergyAt sums the energy of active noise sources at q, skipping
// contributions under the negligibility floor (they are defined as zero).
func (m *Medium) noiseEnergyAt(q *Radio) float64 {
	v := m.noiseSums[q.idx]
	if math.IsNaN(v) {
		v = 0
		for _, ns := range m.sources {
			if !ns.on {
				continue
			}
			e := ns.power * m.prop.Gain(ns.pos, q.pos)
			if m.floor > 0 && e < m.floor {
				continue
			}
			v += e
		}
		m.noiseSums[q.idx] = v
	}
	return v
}

// interferenceAt sums received power at q from every active transmission
// except exclude, plus noise-source energy. The indexed path folds q's
// audible list — the active transmissions whose sources are q's neighbors,
// in active-list order; the skipped transmissions' gains are exactly zero.
func (m *Medium) interferenceAt(q *Radio, exclude *transmission) float64 {
	sum := m.noiseEnergyAt(q)
	if m.useIndex() {
		for _, t := range q.audible {
			if t == exclude || t.radio == q {
				continue
			}
			sum += m.gain(t.radio, q)
		}
		return sum
	}
	for _, t := range m.active {
		if t == exclude || t.radio == q {
			continue
		}
		sum += m.gain(t.radio, q)
	}
	return sum
}

// recheckInterference re-evaluates the capture condition for every ongoing
// reception — the exhaustive fallback for media without an index.
func (m *Medium) recheckInterference() {
	for _, t := range m.active {
		for _, rec := range t.rx {
			if rec.corrupted {
				continue
			}
			i := m.interferenceAt(rec.radio, t)
			if i > 0 && rec.power < m.capture*i {
				rec.corrupted = true
			}
		}
	}
}

// recheckReceptionsAt re-evaluates the capture condition for receptions in
// flight at the given radios — the only receptions an event local to their
// neighborhoods can affect.
func (m *Medium) recheckReceptionsAt(rs []*Radio) {
	for _, q := range rs {
		for _, rec := range q.recs {
			if rec.corrupted {
				continue
			}
			i := m.interferenceAt(q, rec.tx)
			if i > 0 && rec.power < m.capture*i {
				rec.corrupted = true
			}
		}
	}
}

// refoldCarrier re-folds one radio's carrier-sense energy from the cached
// noise and gain values, in canonical (noise, then active-list) order.
func (m *Medium) refoldCarrier(q *Radio) {
	m.carrier[q.idx] = m.interferenceAt(q, nil)
}

// recomputeCarrier re-folds every radio's carrier-sense energy.
func (m *Medium) recomputeCarrier() {
	for _, q := range m.radios {
		m.refoldCarrier(q)
	}
}

// updateCarrierFor recomputes the carrier indication of the given radios
// (which must be in attach/idx order — same-instant notifications fire in
// that order) and schedules notifications for transitions.
func (m *Medium) updateCarrierFor(rs []*Radio) {
	for _, q := range rs {
		busy := q.enabled && (q.tx != nil || m.carrier[q.idx] >= m.threshold)
		if busy == q.carrierBusy {
			continue
		}
		q.carrierBusy = busy
		if q.h != nil {
			// The transition direction is encoded in the function choice
			// so no closure captures it; the handler snapshot rides in
			// the event record.
			call := carrierOffCall
			if busy {
				call = carrierOnCall
			}
			m.s.AtPriorityCall(m.s.Now(), -1, call, q.h, nil)
		}
	}
}

// attachRec creates a reception of tx at q with the given power and links it
// into both the transmission's receiver list and the radio's reception list.
func (m *Medium) attachRec(tx *transmission, q *Radio, p float64) {
	rec := m.allocRec(q, p)
	rec.tx = tx
	rec.pos = len(q.recs)
	q.recs = append(q.recs, rec)
	tx.rx = append(tx.rx, rec)
}

// unlinkRec removes rec from its radio's reception list.
func (m *Medium) unlinkRec(rec *reception) {
	a := rec.radio.recs
	last := len(a) - 1
	a[rec.pos] = a[last]
	a[rec.pos].pos = rec.pos
	a[last] = nil
	rec.radio.recs = a[:last]
}

// startTx begins radiating a copy of f from r for its airtime and returns the
// airtime.
func (m *Medium) startTx(r *Radio, f *frame.Frame) sim.Duration {
	air := f.Airtime(m.params.BitrateBPS)
	if r.tx != nil {
		panic(fmt.Sprintf("phy: %v transmitting while already transmitting", r.id))
	}
	if !r.enabled {
		// A powered-off station radiates nothing; the caller's own
		// timers will expire as if the frame were lost.
		return air
	}
	// Half-duplex: any reception in progress at r is lost.
	for _, rec := range r.recs {
		if !rec.corrupted {
			rec.corrupted = true
			m.counters.Aborted++
		}
	}
	tx := m.allocTx()
	m.txSeq++
	tx.radio, tx.f, tx.end, tx.idx, tx.seq = r, *f, m.s.Now()+air, len(m.active), m.txSeq
	r.tx = tx
	m.active = append(m.active, tx)
	m.counters.Transmissions++
	if m.indexed {
		// The newest transmission has the highest seq: appending keeps
		// every neighbor's audible list in active-list order.
		for _, q := range r.nbr {
			q.audible = append(q.audible, tx)
		}
	}
	if m.useIndex() {
		// The new transmission extends each neighbor's carrier fold on the
		// right (including r's own entry, which stays unread while r
		// transmits); non-neighbors would extend by exactly zero.
		for _, q := range r.nbr {
			m.carrier[q.idx] += m.gain(r, q)
		}
		for _, q := range r.nbr {
			if q == r || !q.enabled || q.tx != nil {
				continue
			}
			p := m.gain(r, q)
			if p < m.threshold {
				continue
			}
			m.attachRec(tx, q, p)
		}
		// The new transmission changes interference only within r's
		// neighborhood: evaluate the capture condition for receptions
		// there (old and new alike).
		m.recheckReceptionsAt(r.nbr)
		m.updateCarrierFor(r.nbr)
	} else {
		for _, q := range m.radios {
			m.carrier[q.idx] += m.gain(r, q)
		}
		// New receptions at every enabled, non-transmitting radio in range.
		for _, q := range m.radios {
			if q == r || !q.enabled || q.tx != nil {
				continue
			}
			p := m.gain(r, q)
			if p < m.threshold {
				continue
			}
			m.attachRec(tx, q, p)
		}
		// When this is the only transmission on the air and nobody is in
		// range, there are no receptions to re-evaluate and the recheck is
		// skipped outright.
		if len(tx.rx) > 0 || len(m.active) > 1 {
			m.recheckInterference()
		}
		m.updateCarrierFor(m.radios)
	}
	// Priority -2: the end of a transmission (and the deliveries it
	// spawns at priority -1) must precede any same-instant MAC timer, or
	// a station whose contention slot lands exactly at a frame boundary
	// would transmit without having "heard" the frame that just ended.
	tx.endEv = m.s.AtPriorityCall(tx.end, -2, endTxCall, m, tx)
	return air
}

// endTx completes a transmission, delivering clean receptions.
func (m *Medium) endTx(tx *transmission) {
	// Index-based removal: shift the tail down one slot, keeping relative
	// order (and therefore summation order) intact.
	i := tx.idx
	copy(m.active[i:], m.active[i+1:])
	m.active[len(m.active)-1] = nil
	m.active = m.active[:len(m.active)-1]
	for ; i < len(m.active); i++ {
		m.active[i].idx = i
	}
	src := tx.radio
	src.tx = nil
	if m.indexed {
		for _, q := range src.nbr {
			removeAudible(q, tx)
		}
	}
	if m.useIndex() {
		// Only the neighbors' folds contained tx's term; everyone else's
		// carrier is unchanged.
		for _, q := range src.nbr {
			m.refoldCarrier(q)
		}
	} else {
		m.recomputeCarrier()
	}
	for _, rec := range tx.rx {
		switch {
		case rec.corrupted:
			m.counters.Corrupted++
			m.notifyCorrupted(rec.radio, tx)
		case !rec.radio.enabled:
			m.counters.Aborted++
		case m.noise.Corrupts(m.rng, rec.radio, &tx.f):
			m.counters.NoiseDropped++
			m.notifyCorrupted(rec.radio, tx)
		default:
			m.counters.Delivered++
			if rec.radio.h != nil {
				tx.pending++
				m.s.AtPriorityCall(m.s.Now(), -1, receiveCall, rec.radio.h, tx)
			}
		}
	}
	// The scheduled notifications hold the transmission, never the
	// receptions, so the receptions are recycled immediately and the
	// transmission once its notifications have fired.
	for i, rec := range tx.rx {
		m.unlinkRec(rec)
		rec.radio, rec.tx = nil, nil
		tx.rx[i] = nil
		m.recFree = append(m.recFree, rec)
	}
	tx.rx = tx.rx[:0]
	tx.radio = nil
	tx.endEv = sim.Event{}
	if tx.pending == 0 {
		m.freeTx(tx)
	}
	if m.useIndex() {
		m.updateCarrierFor(src.nbr)
	} else {
		m.updateCarrierFor(m.radios)
	}
}

func (m *Medium) notifyCorrupted(q *Radio, tx *transmission) {
	if q.h == nil || tx.f.Dst != q.id {
		return
	}
	if obs, ok := q.h.(CorruptionObserver); ok {
		tx.pending++
		m.s.AtPriorityCall(m.s.Now(), -1, corruptedCall, obs, tx)
	}
}

// rebuildNeighborhood recomputes r.nbr (r itself included) from the grid,
// sorted by radio idx — the canonical attach order every multi-radio
// iteration follows.
func (m *Medium) rebuildNeighborhood(r *Radio) {
	r.nbr = r.nbr[:0]
	m.grid.ForEachWithin(r.pos, m.cutoff, func(id int32) {
		q := m.radios[id]
		if q.pos.Dist(r.pos) <= m.cutoff {
			r.nbr = append(r.nbr, q)
		}
	})
	sortRadiosByIdx(r.nbr)
}

// rebuildAudible recomputes r's audible list from its neighbors' current
// transmissions, in active-list (seq) order.
func (m *Medium) rebuildAudible(r *Radio) {
	r.audible = r.audible[:0]
	for _, q := range r.nbr {
		if q.tx != nil {
			insertAudible(r, q.tx)
		}
	}
}

// radiosNear collects the radios within rad of p into the union scratch,
// idx-sorted. An unbounded radius (no certificate) degenerates to all radios.
func (m *Medium) radiosNear(p geom.Vec3, rad float64) []*Radio {
	m.unionNbr = m.unionNbr[:0]
	if m.grid == nil || math.IsInf(rad, 1) {
		m.unionNbr = append(m.unionNbr, m.radios...)
		return m.unionNbr
	}
	m.grid.ForEachWithin(p, rad, func(id int32) {
		q := m.radios[id]
		if q.pos.Dist(p) <= rad {
			m.unionNbr = append(m.unionNbr, q)
		}
	})
	sortRadiosByIdx(m.unionNbr)
	return m.unionNbr
}

// unionOf merges two idx-sorted radio sets into the union scratch.
func (m *Medium) unionOf(a, b []*Radio) []*Radio {
	m.unionNbr = m.unionNbr[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			m.unionNbr = append(m.unionNbr, a[i])
			i++
			j++
		case a[i].idx < b[j].idx:
			m.unionNbr = append(m.unionNbr, a[i])
			i++
		default:
			m.unionNbr = append(m.unionNbr, b[j])
			j++
		}
	}
	m.unionNbr = append(m.unionNbr, a[i:]...)
	m.unionNbr = append(m.unionNbr, b[j:]...)
	return m.unionNbr
}

// sortRadiosByIdx insertion-sorts a small radio set by idx.
func sortRadiosByIdx(rs []*Radio) {
	for i := 1; i < len(rs); i++ {
		r := rs[i]
		j := i - 1
		for ; j >= 0 && rs[j].idx > r.idx; j-- {
			rs[j+1] = rs[j]
		}
		rs[j+1] = r
	}
}

// insertNbrEntry adds r to q's neighbor set, keeping idx order.
func insertNbrEntry(q, r *Radio) {
	a := append(q.nbr, nil)
	i := len(a) - 2
	for ; i >= 0 && a[i].idx > r.idx; i-- {
		a[i+1] = a[i]
	}
	a[i+1] = r
	q.nbr = a
}

// removeNbrEntry removes r from q's neighbor set, keeping order.
func removeNbrEntry(q, r *Radio) {
	a := q.nbr
	for i, x := range a {
		if x == r {
			copy(a[i:], a[i+1:])
			a[len(a)-1] = nil
			q.nbr = a[:len(a)-1]
			return
		}
	}
	panic("phy: neighbor entry missing")
}

// insertAudible adds tx to q's audible list, keeping seq (active-list)
// order — a transmitter carried into a new neighborhood mid-packet must
// take its original summation position.
func insertAudible(q *Radio, tx *transmission) {
	a := append(q.audible, nil)
	i := len(a) - 2
	for ; i >= 0 && a[i].seq > tx.seq; i-- {
		a[i+1] = a[i]
	}
	a[i+1] = tx
	q.audible = a
}

// removeAudible removes tx from q's audible list, keeping order.
func removeAudible(q *Radio, tx *transmission) {
	a := q.audible
	for i, x := range a {
		if x == tx {
			copy(a[i:], a[i+1:])
			a[len(a)-1] = nil
			q.audible = a[:len(a)-1]
			return
		}
	}
	panic("phy: audible entry missing")
}

// Radio is one station's attachment to the medium.
type Radio struct {
	id          frame.NodeID
	pos         geom.Vec3
	m           *Medium
	h           Handler
	tx          *transmission
	enabled     bool
	carrierBusy bool
	// idx is the radio's position in Medium.radios, the key into the
	// medium's gain and interference caches.
	idx int
	// nbr is the idx-sorted set of radios within the medium's cutoff
	// radius, this radio included; nil when the index is disabled.
	nbr []*Radio
	// audible is the seq-sorted list of active transmissions whose sources
	// are in nbr — exactly the transmissions whose gain here can be
	// nonzero; nil when the index is disabled.
	audible []*transmission
	// recs is the list of receptions in flight at this radio (maintained
	// in both indexed and exhaustive modes).
	recs []*reception
}

// ID returns the radio's station identifier.
func (r *Radio) ID() frame.NodeID { return r.id }

// Pos returns the radio's current position.
func (r *Radio) Pos() geom.Vec3 { return r.pos }

// SetHandler installs the upper-layer handler.
func (r *Radio) SetHandler(h Handler) { r.h = h }

// SetPos moves the radio (mobility). Powers of receptions already in flight
// keep their start-of-packet snapshot; the move affects subsequent
// transmissions and the carrier indication. Only the moved radio's
// neighborhood state is invalidated: gains touching it in its old or new
// neighborhood go dirty, its grid bucket moves, and the neighbor sets of
// radios entering or leaving its cutoff are updated in place. Radios beyond
// both neighborhoods keep gains that are (provably) zero both before and
// after, so nothing of theirs needs touching.
func (r *Radio) SetPos(p geom.Vec3) {
	m := r.m
	if !m.indexed {
		r.pos = p
		m.invalidateRadioGains(r)
		m.noiseSums[r.idx] = math.NaN()
		m.recomputeCarrier()
		m.recheckInterference()
		m.updateCarrierFor(m.radios)
		return
	}
	old := r.pos
	m.oldNbr = append(m.oldNbr[:0], r.nbr...)
	// Detach from the old neighborhood.
	for _, q := range m.oldNbr {
		if q == r {
			continue
		}
		removeNbrEntry(q, r)
		if r.tx != nil {
			removeAudible(q, r.tx)
		}
	}
	r.pos = p
	m.grid.Move(int32(r.idx), old, p)
	m.rebuildNeighborhood(r)
	// Attach to the new neighborhood.
	for _, q := range r.nbr {
		if q == r {
			continue
		}
		insertNbrEntry(q, r)
		if r.tx != nil {
			insertAudible(q, r.tx)
		}
	}
	m.rebuildAudible(r)
	// Gains touching r in either neighborhood are dirty; pairs beyond both
	// cutoffs were stored as exact zeros and remain exact zeros.
	nan := math.NaN()
	for _, q := range m.oldNbr {
		m.gains[r.idx][q.idx] = nan
		m.gains[q.idx][r.idx] = nan
	}
	for _, q := range r.nbr {
		m.gains[r.idx][q.idx] = nan
		m.gains[q.idx][r.idx] = nan
	}
	m.noiseSums[r.idx] = math.NaN()
	if m.useIndex() {
		if r.tx != nil {
			// r is radiating: interference changes across both its old
			// and new neighborhoods.
			union := m.unionOf(m.oldNbr, r.nbr)
			for _, q := range union {
				m.refoldCarrier(q)
			}
			m.recheckReceptionsAt(union)
			m.updateCarrierFor(union)
		} else {
			// A silent radio's move changes only what *it* hears.
			m.single[0] = r
			m.refoldCarrier(r)
			m.recheckReceptionsAt(m.single[:])
			m.updateCarrierFor(m.single[:])
		}
		return
	}
	m.recomputeCarrier()
	m.recheckInterference()
	m.updateCarrierFor(m.radios)
}

// Enabled reports whether the radio is powered.
func (r *Radio) Enabled() bool { return r.enabled }

// SetEnabled powers the radio on or off. Powering off destroys receptions
// in progress at this radio and makes it inaudible and deaf until re-enabled.
func (r *Radio) SetEnabled(on bool) {
	if r.enabled == on {
		return
	}
	r.enabled = on
	if !on {
		for _, rec := range r.recs {
			if !rec.corrupted {
				rec.corrupted = true
				r.m.counters.Aborted++
			}
		}
		r.carrierBusy = false
	}
	// Nobody else's carrier energy or state changed.
	r.m.single[0] = r
	r.m.updateCarrierFor(r.m.single[:])
}

// Transmitting reports whether the radio is currently radiating.
func (r *Radio) Transmitting() bool { return r.tx != nil }

// CarrierBusy reports the current carrier-sense indication.
func (r *Radio) CarrierBusy() bool { return r.carrierBusy }

// Transmit radiates a copy of f and returns its airtime: the medium keeps
// the frame by value, so the caller may reuse f as soon as Transmit returns.
// The caller is responsible for scheduling its own end-of-transmission
// continuation (typically sim.After(airtime, ...)). Transmitting while
// already transmitting panics: it is a MAC-layer bug.
func (r *Radio) Transmit(f *frame.Frame) sim.Duration {
	if f.Src != r.id {
		panic(fmt.Sprintf("phy: frame src %v transmitted by %v", f.Src, r.id))
	}
	return r.m.startTx(r, f)
}
