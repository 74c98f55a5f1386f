// Package macaw implements the MACAW media access protocol of Appendix B:
// the RTS-CTS-DS-DATA-ACK message exchange, the RRTS receiver-initiated
// contention, per-stream queues, and pluggable backoff policies.
//
// Every §3 design increment is a configuration toggle rather than a fork, so
// the paper's ablation tables are reproducible from a single engine:
//
//   - Exchange selects RTS-CTS-DATA, RTS-CTS-DATA-ACK, or the full
//     RTS-CTS-DS-DATA-ACK pattern (§3.3.1, §3.3.2).
//   - RRTS enables receiver-initiated contention (§3.3.3).
//   - PerStream selects one queue per stream instead of a single FIFO
//     (§3.2).
//   - Policy selects the backoff algorithm and sharing scheme (§3.1, §3.4).
//
// Interpretation notes (see DESIGN.md §3): Appendix B's WFCONTEND state is
// merged into QUIET — both mean "defer until a known horizon, then contend" —
// and the RRTS sender waits in WFRTS (the text's "goes to WFDATA" only makes
// sense together with rule 12, which answers the returning RTS from WFRTS).
package macaw

import (
	"fmt"
	"sort"

	"macaw/internal/backoff"
	"macaw/internal/frame"
	"macaw/internal/mac"
	"macaw/internal/sim"
)

// Exchange selects the message exchange pattern.
type Exchange int

// Exchange patterns, in the order the paper develops them.
const (
	// Basic is the original RTS-CTS-DATA exchange.
	Basic Exchange = iota
	// WithACK adds the link-level acknowledgement (§3.3.1).
	WithACK
	// Full adds the DS announcement: RTS-CTS-DS-DATA-ACK (§3.3.2).
	Full
)

// String names the exchange pattern as the paper does.
func (e Exchange) String() string {
	switch e {
	case Basic:
		return "RTS-CTS-DATA"
	case WithACK:
		return "RTS-CTS-DATA-ACK"
	case Full:
		return "RTS-CTS-DS-DATA-ACK"
	}
	return fmt.Sprintf("Exchange(%d)", int(e))
}

// HasACK reports whether the pattern ends with a link-level ACK.
func (e Exchange) HasACK() bool { return e != Basic }

// HasDS reports whether the pattern announces data with a DS packet.
func (e Exchange) HasDS() bool { return e == Full }

// State is a MACAW protocol state (Appendix B lists ten; WFCONTEND is
// merged into QUIET, and SendData covers all local transmissions).
type State int

// MACAW states.
const (
	Idle State = iota
	Contend
	WFCTS
	SendData
	WFACK
	WFDS
	WFData
	WFRTS
	Quiet
)

var stateNames = [...]string{"IDLE", "CONTEND", "WFCTS", "SENDDATA", "WFACK", "WFDS", "WFDATA", "WFRTS", "QUIET"}

// String returns the Appendix B state name.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Options configures a MACAW instance.
type Options struct {
	// Exchange is the message exchange pattern.
	Exchange Exchange
	// RRTS enables the Request-for-Request-to-Send mechanism.
	RRTS bool
	// PerStream gives every destination its own queue and contention
	// timer; false reproduces the single-FIFO design of early §3.
	PerStream bool
	// Policy is the backoff policy; nil selects the full MACAW default,
	// per-destination MILD with copying.
	Policy backoff.Policy
	// NACK enables the §4 alternative in which a receiver that issued a
	// CTS but got no data returns a NACK, prompting an immediate
	// retransmission attempt.
	NACK bool
	// CarrierSense enables §3.3.2's alternative to the DS packet: "A
	// station must defer transmission until one slot time after it
	// detects no carrier (the inclusion of a single slot time of clear
	// air is to ensure that exposed terminals do not clobber the
	// returning ACK). This is essentially the CSMA/CA protocol."
	CarrierSense bool
	// PiggybackACK enables the §4 alternative acking scheme: a sender
	// with more packets queued for the destination clears the DATA
	// frame's ack-request bit and collects the acknowledgement from the
	// receiver's next CTS, which carries "the sequence number of the
	// most recently arrived packet". Only meaningful with an
	// ACK-carrying exchange.
	PiggybackACK bool
}

// DefaultOptions returns the full MACAW protocol as evaluated in §3.5.
func DefaultOptions() Options {
	return Options{Exchange: Full, RRTS: true, PerStream: true}
}

// contender identifies what a station is contending to send.
type contender struct {
	dst  frame.NodeID
	rrts bool
}

// tKind names the continuation the single state timer carries. Timers are
// armed through AtPriorityCall with the package-level timerCall and the kind
// as its argument, so arming one allocates no closure; the kind is the full
// continuation state (with txHead/txWantAck in SendData, where five
// different frames can be on the air), and warm-started forks re-arm the
// pending timer from the copied kind.
type tKind int

const (
	tNone tKind = iota
	tContend
	tCTSTimeout
	tACKTimeout
	tExpect
	tQuietEnd
	tMcastRTSSent
	tMcastDataSent
	tDSSent
	tDataAirDone
	tCtrlSent
)

// MACAW is one station's protocol instance.
type MACAW struct {
	env  *mac.Env
	opt  Options
	pol  backoff.Policy
	lobs mac.LossObserver // optional retry/drop extension of env.Obs

	st         State
	timer      sim.Event
	tk         tKind // continuation of the pending state timer
	deferUntil sim.Time
	// carrierClearAt is the earliest transmission time permitted by the
	// CarrierSense option: one slot after the carrier last went quiet,
	// effectively unbounded while it is busy.
	carrierClearAt sim.Time

	// Queueing: streams when PerStream, fifo otherwise.
	streams *mac.StreamQueues
	fifo    mac.Queue

	attempts map[frame.NodeID]int // RTS attempts for the head packet per destination
	seq      uint32

	cur       contender    // what the contend timer is armed for
	curDst    frame.NodeID // destination of the exchange in flight
	expectSrc frame.NodeID // sender we issued a CTS/RRTS toward

	// txHead/txWantAck complete the SendData timer's continuation: the
	// packet the frame on the air belongs to, and whether the DATA frame
	// requested an ACK.
	txHead    *mac.Packet
	txWantAck bool

	// rrtsFor is the first RTS sender we could not answer while
	// deferring ("it only responds to the first received RTS").
	rrtsFor frame.NodeID
	rrtsLen int
	hasRRTS bool
	// rrtsSeen is when the noted sender last retried; a note whose sender
	// has gone silent past its worst-case retry period is dropped at the
	// next fresh defer window instead of soliciting a dead station.
	rrtsSeen  sim.Time
	lastAcked map[frame.NodeID]uint32 // per-sender last delivered/acked seq
	everAcked map[frame.NodeID]bool
	// seenESN is the highest exchange number observed from each sender; a
	// regression marks a rebooted peer whose dedup state must be dropped.
	seenESN map[frame.NodeID]uint32
	// pending holds, per destination, a data packet transmitted without
	// an ack request, awaiting its piggybacked confirmation (§4).
	pending map[frame.NodeID]*mac.Packet
	// pendingRetries counts consecutive retransmissions of a lost pending
	// packet per destination. The RTS-CTS leg succeeds on every lap of
	// that loop, so the ordinary attempt counter (reset by each tentative
	// completion) never trips; without this bound a link whose data
	// direction is dead retries forever.
	pendingRetries map[frame.NodeID]int

	// halted marks a crashed instance: every entry point is a no-op so a
	// restarted MAC can own the radio without interference (mac.Halter).
	halted bool

	stats mac.Stats
	// out is the outbox every outgoing frame is built in. The radio copies
	// the frame on Transmit, so one buffer serves every send.
	out frame.Frame
}

// New returns a MACAW instance bound to env's radio, installing itself as
// the radio handler.
func New(env *mac.Env, opt Options) *MACAW {
	m := &MACAW{
		env:            env,
		opt:            opt,
		pol:            opt.Policy,
		lobs:           mac.AsLossObserver(env.Obs),
		streams:        mac.NewStreamQueues(),
		attempts:       make(map[frame.NodeID]int),
		lastAcked:      make(map[frame.NodeID]uint32),
		everAcked:      make(map[frame.NodeID]bool),
		seenESN:        make(map[frame.NodeID]uint32),
		pending:        make(map[frame.NodeID]*mac.Packet),
		pendingRetries: make(map[frame.NodeID]int),
	}
	// Each lifetime numbers its packets from a random point (the TCP
	// initial-sequence-number argument): a rebooted station restarting
	// from 1 could collide with the dedup bookkeeping peers kept about its
	// previous life — an RTS whose (seq, ESN) pair happens to equal an
	// already-acknowledged exchange draws a spurious repeated ACK and the
	// new packet is silently lost. The ESN-regression resync in
	// receiveForMe catches most reboots from the headers alone, but an
	// exact collision is indistinguishable there; randomizing the origin
	// makes it vanishingly unlikely.
	m.seq = env.Rand.Uint32() & 0x3fffffff
	if m.pol == nil {
		m.pol = backoff.NewPerDest(backoff.NewMILD())
	}
	env.Radio.SetHandler(m)
	return m
}

// State returns the current protocol state.
func (m *MACAW) State() State { return m.st }

// DeferUntil returns the current defer horizon (introspection for tests and
// traces).
func (m *MACAW) DeferUntil() sim.Time { return m.deferUntil }

// TimerAt returns the firing time of the pending state timer, or -1 when no
// timer is armed (introspection for tests and traces).
func (m *MACAW) TimerAt() sim.Time {
	if m.timer.IsZero() || m.timer.Cancelled() {
		return -1
	}
	return m.timer.When()
}

// FSMState implements mac.Inspector.
func (m *MACAW) FSMState() string { return m.st.String() }

// TimerPending implements mac.Inspector.
func (m *MACAW) TimerPending() bool { return m.TimerAt() >= 0 }

// TimerWhen implements mac.Inspector.
func (m *MACAW) TimerWhen() sim.Time { return m.TimerAt() }

// Halt implements mac.Halter: cancel the state timer, drop all queued and
// tentatively-completed packets (reported with DropDisabled), and turn every
// subsequent entry point into a no-op.
func (m *MACAW) Halt() {
	if m.halted {
		return
	}
	m.halted = true
	m.clearTimer()
	m.st = Idle
	m.hasRRTS = false
	m.deferUntil = 0
	m.txHead, m.txWantAck = nil, false
	drain := func(q *mac.Queue) {
		for p := q.Pop(); p != nil; p = q.Pop() {
			m.stats.Drops++
			m.noteDrop(p.Dst, mac.DropDisabled)
			m.env.Callbacks.NotifyDropped(p, mac.DropDisabled)
		}
	}
	if m.opt.PerStream {
		for _, d := range m.streams.Destinations() {
			drain(m.streams.Queue(d))
		}
	} else {
		drain(&m.fifo)
	}
	// Pending piggyback packets die with the station too; sorted order
	// keeps the callback sequence deterministic.
	dsts := make([]frame.NodeID, 0, len(m.pending))
	for d := range m.pending {
		dsts = append(dsts, d)
	}
	sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
	for _, d := range dsts {
		p := m.pending[d]
		delete(m.pending, d)
		m.stats.Drops++
		m.noteDrop(d, mac.DropDisabled)
		m.env.Callbacks.NotifyDropped(p, mac.DropDisabled)
	}
}

// Halted reports whether Halt has been called.
func (m *MACAW) Halted() bool { return m.halted }

// Protocol implements mac.Engine.
func (m *MACAW) Protocol() string { return "macaw" }

// Options returns the configured options.
func (m *MACAW) Options() Options { return m.opt }

// Policy returns the backoff policy in use.
func (m *MACAW) Policy() backoff.Policy { return m.pol }

// Stats implements mac.MAC.
func (m *MACAW) Stats() mac.Stats { return m.stats }

// QueueLen implements mac.MAC.
func (m *MACAW) QueueLen() int {
	if m.opt.PerStream {
		return m.streams.TotalLen()
	}
	return m.fifo.Len()
}

// queueFor returns the queue holding packets for dst.
func (m *MACAW) queueFor(dst frame.NodeID) *mac.Queue {
	if m.opt.PerStream {
		return m.streams.Queue(dst)
	}
	return &m.fifo
}

// head returns the packet an RTS toward dst would announce.
func (m *MACAW) head(dst frame.NodeID) *mac.Packet {
	q := m.queueFor(dst)
	if q == nil {
		return nil
	}
	p := q.Peek()
	if p == nil || (!m.opt.PerStream && p.Dst != dst) {
		return nil
	}
	return p
}

// Enqueue implements mac.MAC.
func (m *MACAW) Enqueue(p *mac.Packet) {
	if m.halted {
		m.env.Callbacks.NotifyDropped(p, mac.DropDisabled)
		return
	}
	m.seq++
	p.SetSeq(m.seq)
	p.Enqueued = m.env.Sim.Now()
	if m.opt.PerStream {
		m.streams.Push(p)
	} else {
		m.fifo.Push(p)
	}
	m.noteQueue("push", p.Dst)
	switch m.st {
	case Idle:
		m.enterContend()
	case Contend:
		// Let a newly-busy stream join the contention without
		// redrawing the others (a full redraw on every enqueue would
		// systematically postpone transmission — the inspection
		// paradox).
		if q := m.queueFor(p.Dst); q != nil && q.Len() == 1 {
			m.considerContender(contender{dst: p.Dst})
		}
	}
}

// considerContender draws a retry slot for c and re-arms the contention
// timer if c's slot precedes the currently armed one.
func (m *MACAW) considerContender(c contender) {
	base := m.env.Sim.Now()
	if m.deferUntil > base {
		base = m.deferUntil
	}
	k := 1 + m.env.Rand.Intn(m.pol.Backoff(c.dst))
	at := base + sim.Duration(k)*m.env.Cfg.Slot()
	if m.timer.IsZero() || m.timer.Cancelled() || at < m.timer.When() {
		m.cur = c
		m.setTimerAt(at, tContend)
	}
}

func (m *MACAW) setTimer(d sim.Duration, k tKind) {
	m.setTimerAt(m.env.Sim.Now()+d, k)
}

func (m *MACAW) setTimerAt(t sim.Time, k tKind) {
	m.timer.Cancel()
	m.tk = k
	m.timer = m.env.Sim.AtPriorityCall(t, 0, timerCall, m, k)
	if m.env.Obs != nil {
		m.env.Obs.ObserveTimer(t)
	}
}

func (m *MACAW) clearTimer() {
	m.timer.Cancel()
	m.timer = sim.Event{}
	m.tk = tNone
	if m.env.Obs != nil {
		m.env.Obs.ObserveTimer(-1)
	}
}

// timerCall is the state timer's event callback: a package-level function,
// so arming the timer stores (m, kind) in the pooled event record instead of
// allocating a method-value closure.
func timerCall(a, b any) {
	m := a.(*MACAW)
	switch b.(tKind) {
	case tContend:
		m.onContendTimeout()
	case tCTSTimeout:
		m.onCTSTimeout()
	case tACKTimeout:
		m.onACKTimeout()
	case tExpect:
		m.onExpectTimeout()
	case tQuietEnd:
		m.onQuietEnd()
	case tMcastRTSSent:
		m.onMcastRTSSent()
	case tMcastDataSent:
		m.onMcastDataSent()
	case tDSSent:
		m.onDSSent()
	case tDataAirDone:
		m.onDataAirDone()
	case tCtrlSent:
		m.onCtrlSent()
	}
}

// transmit radiates f, notifying the conformance observer first.
func (m *MACAW) transmit(f *frame.Frame) sim.Duration {
	if m.env.Obs != nil {
		m.env.Obs.ObserveTx(f)
	}
	return m.env.Radio.Transmit(f)
}

// setState moves the FSM to s, notifying the conformance observer.
func (m *MACAW) setState(s State) {
	if m.env.Obs != nil && s != m.st {
		m.env.Obs.ObserveState(m.st.String(), s.String())
	}
	m.st = s
}

// deliver hands a received DATA frame's payload to transport.
func (m *MACAW) deliver(f *frame.Frame) {
	m.stats.DataReceived++
	if m.env.Obs != nil {
		m.env.Obs.ObserveDeliver(f)
	}
	m.env.Callbacks.NotifyDeliver(f.Src, f.Payload)
}

// noteQueue reports a queue operation on dst's queue to the observer.
func (m *MACAW) noteQueue(op string, dst frame.NodeID) {
	if m.env.Obs == nil {
		return
	}
	n := 0
	if q := m.queueFor(dst); q != nil {
		n = q.Len()
	}
	m.env.Obs.ObserveQueue(op, dst, n)
}

// noteRetry reports a retried attempt to the loss observer.
func (m *MACAW) noteRetry(dst frame.NodeID) {
	if m.lobs != nil {
		m.lobs.ObserveRetry(dst)
	}
}

// noteDrop reports an abandoned packet to the loss observer.
func (m *MACAW) noteDrop(dst frame.NodeID, reason mac.DropReason) {
	if m.lobs != nil {
		m.lobs.ObserveDrop(dst, reason)
	}
}

// contendTargets lists the destinations with pending work.
func (m *MACAW) contendTargets() []frame.NodeID {
	if m.opt.PerStream {
		return m.streams.NonEmpty()
	}
	if p := m.fifo.Peek(); p != nil {
		return []frame.NodeID{p.Dst}
	}
	return nil
}

// enterContend draws a retry slot for every pending stream (and a pending
// RRTS) and arms the timer for the earliest — §3.2: "a random delay interval
// is chosen for each stream and the stream with the earliest retry slot is
// chosen for transmission".
func (m *MACAW) enterContend() {
	targets := m.contendTargets()
	if len(targets) == 0 && !m.hasRRTS {
		if m.deferring() {
			// Nothing to send, but a defer period is still running:
			// stay QUIET so arriving RTSes are answered with an
			// RRTS later rather than a mid-exchange CTS.
			m.setState(Quiet)
			m.setTimerAt(m.deferUntil, tQuietEnd)
			return
		}
		m.setState(Idle)
		m.clearTimer()
		return
	}
	m.setState(Contend)
	base := m.env.Sim.Now()
	if m.deferUntil > base {
		base = m.deferUntil
	}
	if hold := m.carrierHold(); hold > base && hold != maxTime {
		base = hold
	}
	slot := m.env.Cfg.Slot()
	var best sim.Time = -1
	var pick contender
	ties := 0
	draw := func(c contender) {
		k := 1 + m.env.Rand.Intn(m.pol.Backoff(c.dst))
		at := base + sim.Duration(k)*slot
		switch {
		case best < 0 || at < best:
			best = at
			pick = c
			ties = 1
		case at == best:
			// Reservoir-sample among equal draws so stream order
			// confers no systematic service advantage.
			ties++
			if m.env.Rand.Intn(ties) == 0 {
				pick = c
			}
		}
	}
	if m.hasRRTS {
		draw(contender{dst: m.rrtsFor, rrts: true})
	}
	for _, d := range targets {
		draw(contender{dst: d})
	}
	m.cur = pick
	m.setTimerAt(best, tContend)
}

// onContendTimeout transmits the RTS (or RRTS) the station contended for
// (Appendix B timeout rule 2).
func (m *MACAW) onContendTimeout() {
	if m.st != Contend {
		return
	}
	m.timer = sim.Event{}
	if m.deferUntil+m.env.Cfg.Slot() > m.env.Sim.Now() {
		// §3.2: a transmission must begin an integer number of slot
		// times — at least one — after the end of the last defer
		// period. Contention draws always satisfy this (every draw is
		// base + k·slot with k ≥ 1 and base ≥ deferUntil), so this
		// redraw is a hardening backstop: if the horizon ever moved
		// under an armed timer, firing within a slot of it would break
		// the slotted collision-avoidance grid.
		m.enterContend()
		return
	}
	if hold := m.carrierHold(); hold > m.env.Sim.Now() {
		if hold == maxTime {
			// The carrier is busy: wait for it to clear, then
			// redraw from the cleared instant.
			m.setState(Quiet)
			m.setTimer(m.env.Cfg.Slot(), tQuietEnd)
			return
		}
		m.enterContend()
		return
	}
	if m.cur.rrts {
		m.sendRRTS()
		return
	}
	head := m.head(m.cur.dst)
	if head == nil {
		m.enterContend()
		return
	}
	if head.Dst == frame.Broadcast {
		m.sendMulticast(head)
		return
	}
	if m.attempts[head.Dst] == 0 {
		m.pol.StartExchange(head.Dst)
	}
	f := &m.out
	*f = frame.Frame{Type: frame.RTS, Src: m.env.ID(), Dst: head.Dst, DataBytes: uint16(head.Size), Seq: head.Seq()}
	m.pol.StampSend(f)
	air := m.transmit(f)
	m.stats.RTSSent++
	m.curDst = head.Dst
	m.setState(WFCTS)
	m.setTimer(air+m.env.Cfg.CTSWait(), tCTSTimeout)
}

// sendRRTS contends on behalf of a blocked sender (§3.3.3).
func (m *MACAW) sendRRTS() {
	dst, n := m.rrtsFor, m.rrtsLen
	m.hasRRTS = false
	f := &m.out
	*f = frame.Frame{Type: frame.RRTS, Src: m.env.ID(), Dst: dst, DataBytes: uint16(n)}
	m.pol.StampSend(f)
	air := m.transmit(f)
	m.stats.RRTSSent++
	m.expectSrc = dst
	m.setState(WFRTS)
	// Long enough for the answering RTS to arrive.
	m.setTimer(air+m.env.Cfg.Turnaround+m.env.Cfg.CtrlTime()+m.env.Cfg.Margin, tExpect)
}

// sendMulticast performs the §3.3.4 multicast exchange: an RTS immediately
// followed by the DATA packet, with no CTS.
func (m *MACAW) sendMulticast(head *mac.Packet) {
	rts := &m.out
	*rts = frame.Frame{Type: frame.RTS, Src: m.env.ID(), Dst: frame.Broadcast, DataBytes: uint16(head.Size), Seq: head.Seq(), Multicast: true}
	m.pol.StampSend(rts)
	air := m.transmit(rts)
	m.stats.RTSSent++
	m.setState(SendData)
	m.txHead = head
	m.setTimer(air, tMcastRTSSent)
}

// onMcastRTSSent follows the multicast RTS with the DATA packet itself.
func (m *MACAW) onMcastRTSSent() {
	m.timer = sim.Event{}
	head := m.txHead
	data := &m.out
	*data = frame.Frame{Type: frame.DATA, Src: m.env.ID(), Dst: frame.Broadcast, DataBytes: uint16(head.Size), Seq: head.Seq(), Multicast: true, Payload: head.Payload}
	m.pol.StampSend(data)
	dair := m.transmit(data)
	m.setTimer(dair, tMcastDataSent)
}

// onMcastDataSent completes the multicast exchange.
func (m *MACAW) onMcastDataSent() {
	m.timer = sim.Event{}
	head := m.txHead
	m.txHead = nil
	m.queueFor(frame.Broadcast).Pop()
	m.noteQueue("pop", frame.Broadcast)
	m.stats.DataSent++
	m.env.Callbacks.NotifySent(head)
	m.next()
}

// onCTSTimeout handles an RTS that evoked no CTS (or ACK): the failure is
// charged to the destination's backoff and the packet retried or dropped.
func (m *MACAW) onCTSTimeout() {
	if m.st != WFCTS {
		return
	}
	m.timer = sim.Event{}
	m.pol.OnFailure(m.curDst)
	m.stats.Retries++
	m.noteRetry(m.curDst)
	m.bumpAttempts(m.curDst)
	m.next()
}

// bumpAttempts increments the per-destination attempt counter, dropping the
// head packet once the retry limit is exceeded.
func (m *MACAW) bumpAttempts(dst frame.NodeID) {
	m.attempts[dst]++
	if m.attempts[dst] <= m.env.Cfg.MaxRetries {
		return
	}
	if q := m.queueFor(dst); q != nil {
		if p := q.Peek(); p != nil && p.Dst == dst {
			q.Pop()
			m.noteQueue("drop", dst)
			m.stats.Drops++
			m.noteDrop(dst, mac.DropRetries)
			m.pol.OnGiveUp(dst)
			m.env.Callbacks.NotifyDropped(p, mac.DropRetries)
		}
		if p := m.pending[dst]; p != nil {
			// An unconfirmed piggyback packet cannot stay in limbo
			// once its successor is gone; retransmit it normally.
			delete(m.pending, dst)
			q.PushFront(p)
			m.noteQueue("push", dst)
		}
	}
	m.attempts[dst] = 0
}

// next resumes contention for remaining work or returns to IDLE.
func (m *MACAW) next() { m.enterContend() }

// rrtsStale bounds how long a noted-but-unserved RTS stays eligible for an
// RRTS. A live blocked sender retries within its CTS timeout plus its
// contention draw — at most the doubled per-destination window of 2·BOmax
// slots (§3.4) — so doubling that span keeps a sender whose retries are
// merely slow while letting the invitation for a crashed or departed one die
// at the next fresh defer window.
func (m *MACAW) rrtsStale() sim.Duration {
	return 2 * (m.env.Cfg.CTSWait() + sim.Duration(2*backoff.DefaultMax)*m.env.Cfg.Slot())
}

// enterQuiet extends the defer horizon and (when not mid-exchange) moves to
// QUIET. QUIET absorbs Appendix B's WFCONTEND: when the horizon passes the
// station contends for pending work.
func (m *MACAW) enterQuiet(d sim.Duration) {
	if m.hasRRTS && !m.deferring() && m.env.Sim.Now()-m.rrtsSeen > m.rrtsStale() {
		// A fresh defer window is opening and the noted sender has been
		// silent for longer than its worst-case retry period: it either
		// crashed or went away, so an RRTS would solicit a station with
		// nothing pending. Drop the invitation; a live sender's next RTS
		// re-arms it (§3.3.3).
		m.hasRRTS = false
	}
	until := m.env.Sim.Now() + d
	if until > m.deferUntil {
		m.deferUntil = until
	}
	switch m.st {
	case Idle, Contend, Quiet:
		m.setState(Quiet)
		m.setTimerAt(m.deferUntil, tQuietEnd)
	default:
		// Mid-exchange states keep their timers; the advanced horizon
		// constrains the next contention.
	}
}

func (m *MACAW) onQuietEnd() {
	if m.st != Quiet {
		return
	}
	m.timer = sim.Event{}
	if m.deferUntil > m.env.Sim.Now() {
		m.setTimerAt(m.deferUntil, tQuietEnd)
		return
	}
	if hold := m.carrierHold(); hold == maxTime {
		// Still carrier-busy: poll again a slot later (the carrier
		// callback cannot restart a cancelled timer for us).
		m.setTimer(m.env.Cfg.Slot(), tQuietEnd)
		return
	}
	m.next()
}

// onExpectTimeout covers WFRTS/WFDS/WFData expiries: Appendix B timeout
// rule 3 — "From any other state, when a timer expires, a station goes to
// the IDLE state."
func (m *MACAW) onExpectTimeout() {
	m.timer = sim.Event{}
	if m.opt.NACK && m.st == WFData {
		// §4: tell the sender its data never arrived.
		nack := &m.out
		*nack = frame.Frame{Type: frame.NACK, Src: m.env.ID(), Dst: m.expectSrc}
		m.pol.StampSend(nack)
		air := m.transmit(nack)
		m.expectSrc = 0
		m.setState(SendData)
		m.setTimer(air, tCtrlSent)
		return
	}
	// The expected peer never followed through; forget it so no later
	// path can mistake a stale expectation for a live exchange.
	m.expectSrc = 0
	m.next()
}

// RadioCarrier implements phy.Handler. The default MACAW avoids carrier
// sense, using the DS packet instead (§3.3.2); with the CarrierSense option
// the station holds its transmissions until one slot after the carrier
// clears.
func (m *MACAW) RadioCarrier(busy bool) {
	if m.halted || !m.opt.CarrierSense {
		return
	}
	if busy {
		m.carrierClearAt = maxTime
		return
	}
	m.carrierClearAt = m.env.Sim.Now() + m.env.Cfg.Slot()
}

// maxTime is far beyond any simulated horizon.
const maxTime = sim.Time(1) << 62

// carrierHold returns the earliest time the CarrierSense option allows a
// transmission, or 0 when the option is off or the air is clear. A stale
// busy indication (the clear transition was never delivered) is
// resynchronized against the radio's live carrier state so a lost callback
// cannot park the station forever.
func (m *MACAW) carrierHold() sim.Time {
	if !m.opt.CarrierSense {
		return 0
	}
	if m.carrierClearAt == maxTime && !m.env.Radio.CarrierBusy() {
		m.carrierClearAt = m.env.Sim.Now() + m.env.Cfg.Slot()
	}
	return m.carrierClearAt
}

// dataPlusAck is the defer span covering a data packet of the given size
// plus the returning ACK when the exchange uses one. Defer spans carry no
// scheduling margin: every station's contention grid must stay anchored to
// the exact frame boundaries or the slotted retransmission discipline
// ("an integer number of slot times after the end of the last defer
// period") loses its collision-avoidance property.
func (m *MACAW) dataPlusAck(dataBytes int) sim.Duration {
	d := m.env.Cfg.Turnaround + m.env.Cfg.DataTime(dataBytes)
	if m.opt.Exchange.HasACK() {
		d += m.env.Cfg.Turnaround + m.env.Cfg.CtrlTime()
	}
	return d
}

// RadioReceive implements phy.Handler.
func (m *MACAW) RadioReceive(f *frame.Frame) {
	if m.halted {
		return
	}
	if m.env.Obs != nil {
		m.env.Obs.ObserveRx(f)
	}
	if f.Dst == m.env.ID() {
		m.receiveForMe(f)
		return
	}
	if f.Dst == frame.Broadcast {
		m.receiveMulticast(f)
		return
	}
	m.pol.OnOverhear(f)
	switch f.Type {
	case frame.RTS:
		// Defer rule: long enough for the sender to hear the CTS.
		m.enterQuiet(m.env.Cfg.Turnaround + m.env.Cfg.CtrlTime())
	case frame.CTS:
		// Defer rule 3: long enough for the receiver to hear the data
		// (plus DS and ACK as configured).
		d := m.dataPlusAck(int(f.DataBytes))
		if m.opt.Exchange.HasDS() {
			d += m.env.Cfg.Turnaround + m.env.Cfg.CtrlTime()
		}
		m.enterQuiet(d)
	case frame.DS:
		// Defer rule 2: through the data packet and its ACK.
		m.enterQuiet(m.dataPlusAck(int(f.DataBytes)))
	case frame.RRTS:
		// Defer rule 4: "sufficient for an RTS-CTS exchange".
		m.enterQuiet(2 * (m.env.Cfg.Turnaround + m.env.Cfg.CtrlTime()))
	}
}

// receiveMulticast handles frames addressed to the broadcast group.
func (m *MACAW) receiveMulticast(f *frame.Frame) {
	m.pol.OnOverhear(f)
	switch f.Type {
	case frame.RTS:
		// "All stations defer for the length of the following DATA
		// transmission" (§3.3.4).
		m.enterQuiet(m.env.Cfg.Turnaround + m.env.Cfg.DataTime(int(f.DataBytes)))
	case frame.DATA:
		m.deliver(f)
	}
}

func (m *MACAW) receiveForMe(f *frame.Frame) {
	if last, ok := m.seenESN[f.Src]; ok && f.ESN < last {
		// Exchange numbers only grow within one lifetime of the peer and
		// per-sender delivery is ordered, so a smaller number means the
		// peer rebooted and is numbering from scratch. The dedup state the
		// dead instance earned is then poison: a new packet that happens
		// to reuse an acknowledged sequence number would be answered with
		// a spurious repeated ACK (control rule 7) and silently lost.
		// Resynchronize before acting on the frame.
		delete(m.everAcked, f.Src)
		delete(m.lastAcked, f.Src)
	}
	m.seenESN[f.Src] = f.ESN
	m.pol.OnReceive(f)
	switch f.Type {
	case frame.RTS:
		m.onRTS(f)
	case frame.CTS:
		m.onCTS(f)
	case frame.DS:
		m.onDS(f)
	case frame.DATA:
		m.onData(f)
	case frame.ACK:
		m.onACK(f)
	case frame.RRTS:
		m.onRRTS(f)
	case frame.NACK:
		m.onNACK(f)
	}
}

// deferring reports whether the station's defer horizon is still ahead —
// MACA/MACAW receivers reply to an RTS only "if [they are] not currently
// deferring", regardless of which state the FSM happens to occupy.
func (m *MACAW) deferring() bool { return m.deferUntil > m.env.Sim.Now() }

// onRTS answers an RTS addressed to this station.
func (m *MACAW) onRTS(f *frame.Frame) {
	switch m.st {
	case WFRTS:
		// Control rule 12: the solicited reply to our RRTS is part of
		// an exchange the RRTS already reserved slots for (overhearers
		// deferred two slots), so it is granted even if our own defer
		// horizon is still technically running.
		if f.Src == m.expectSrc {
			break
		}
		if m.deferring() {
			m.noteRRTS(f)
			return
		}
	case Idle, Contend:
		// Control rules 2 and 8 — unless a defer period is still
		// running (e.g. the station timed out of a broken exchange
		// while a neighbour's data transmission it must respect is
		// still in the air).
		if m.deferring() {
			m.noteRRTS(f)
			return
		}
	case Quiet:
		m.noteRRTS(f)
		return
	default:
		return
	}
	m.grantRTS(f)
}

// noteRRTS remembers the first RTS received while deferring so the station
// can contend with an RRTS on the sender's behalf (§3.3.3: "it only
// responds to the first received RTS").
func (m *MACAW) noteRRTS(f *frame.Frame) {
	if !m.opt.RRTS {
		return
	}
	if !m.hasRRTS {
		m.hasRRTS = true
		m.rrtsFor = f.Src
	}
	if f.Src == m.rrtsFor {
		// Each retry from the noted sender proves it is still alive and
		// still blocked; refresh the note's liveness stamp.
		m.rrtsSeen = m.env.Sim.Now()
		m.rrtsLen = int(f.DataBytes)
	}
}

// grantRTS answers an RTS with a CTS (or a repeated ACK).
func (m *MACAW) grantRTS(f *frame.Frame) {
	if m.hasRRTS && m.rrtsFor == f.Src {
		// The sender we noted for an RRTS retried on its own and is
		// being answered right now: the invitation is satisfied. Left
		// armed, it would fire after this exchange completes and solicit
		// a transmission the sender no longer has pending (§3.3.3 pairs
		// each RRTS with one unanswered RTS).
		m.hasRRTS = false
	}
	// Control rule 7: an RTS for the packet acknowledged last time gets
	// the ACK again instead of a CTS.
	if m.opt.Exchange.HasACK() && m.everAcked[f.Src] && m.lastAcked[f.Src] == f.Seq {
		m.clearTimer()
		m.sendAck(f.Src, f.Seq)
		return
	}
	m.clearTimer()
	cts := &m.out
	*cts = frame.Frame{Type: frame.CTS, Src: m.env.ID(), Dst: f.Src, DataBytes: f.DataBytes, Seq: f.Seq}
	if m.opt.PiggybackACK && m.everAcked[f.Src] {
		cts.HasAck = true
		cts.Ack = m.lastAcked[f.Src]
	}
	m.pol.StampSend(cts)
	air := m.transmit(cts)
	m.stats.CTSSent++
	m.expectSrc = f.Src
	if m.opt.Exchange.HasDS() {
		m.setState(WFDS)
		m.setTimer(air+m.env.Cfg.Turnaround+m.env.Cfg.CtrlTime()+m.env.Cfg.Margin, tExpect)
	} else {
		m.setState(WFData)
		m.setTimer(air+m.env.Cfg.Turnaround+m.env.Cfg.DataTime(int(f.DataBytes))+m.env.Cfg.Margin, tExpect)
	}
}

// onCTS starts the data phase (control rule 3).
func (m *MACAW) onCTS(f *frame.Frame) {
	if m.st != WFCTS || f.Src != m.curDst {
		return
	}
	m.clearTimer()
	if p := m.pending[f.Src]; p != nil {
		if f.HasAck && f.Ack >= p.Seq() {
			// Piggybacked confirmation of the previous packet.
			delete(m.pending, f.Src)
			delete(m.pendingRetries, f.Src)
			m.pol.OnSuccess(f.Src)
			m.env.Callbacks.NotifySent(p)
		} else {
			// The previous packet never arrived: abandon this
			// exchange (the receiver's WFDS will time out) and
			// retransmit the lost packet first. The retransmission
			// must count against its own retry budget: the RTS-CTS
			// leg succeeds on every lap of this loop, so the
			// ordinary attempt counter (reset by each tentative
			// completion) can never bound it, and a link whose data
			// direction is dead would otherwise retry forever.
			delete(m.pending, f.Src)
			m.stats.Retries++
			m.noteRetry(f.Src)
			m.pendingRetries[f.Src]++
			if m.pendingRetries[f.Src] > m.env.Cfg.MaxRetries {
				delete(m.pendingRetries, f.Src)
				m.stats.Drops++
				m.noteDrop(f.Src, mac.DropRetries)
				m.pol.OnGiveUp(f.Src)
				m.env.Callbacks.NotifyDropped(p, mac.DropRetries)
			} else if q := m.queueFor(f.Src); q != nil {
				q.PushFront(p)
				m.noteQueue("push", f.Src)
			}
			m.next()
			return
		}
	}
	head := m.head(m.curDst)
	if head == nil {
		m.next()
		return
	}
	if !m.opt.Exchange.HasACK() {
		// Without a link-level ACK the successful RTS-CTS exchange is
		// the success signal (MACA semantics).
		m.pol.OnSuccess(m.curDst)
	}
	if m.opt.Exchange.HasDS() {
		ds := &m.out
		*ds = frame.Frame{Type: frame.DS, Src: m.env.ID(), Dst: m.curDst, DataBytes: uint16(head.Size), Seq: head.Seq()}
		m.pol.StampSend(ds)
		air := m.transmit(ds)
		m.stats.DSSent++
		m.setState(SendData)
		m.txHead = head
		m.setTimer(air, tDSSent)
	} else {
		m.setState(SendData)
		m.sendData(head)
	}
}

// sendData transmits the head packet's DATA frame back-to-back after the
// CTS (or DS) and arms the ACK timer when the exchange uses one. In
// piggyback mode a sender with more packets queued clears the ack-request
// bit and defers confirmation to the destination's next CTS (§4).
func (m *MACAW) sendData(head *mac.Packet) {
	wantAck := m.opt.Exchange.HasACK()
	if wantAck && m.opt.PiggybackACK && m.pending[head.Dst] == nil {
		if q := m.queueFor(head.Dst); q != nil && q.Len() > 1 {
			wantAck = false
		}
	}
	data := &m.out
	*data = frame.Frame{Type: frame.DATA, Src: m.env.ID(), Dst: head.Dst, DataBytes: uint16(head.Size), Seq: head.Seq(), Payload: head.Payload, AckRequested: wantAck}
	m.pol.StampSend(data)
	air := m.transmit(data)
	m.txHead, m.txWantAck = head, wantAck
	m.setTimer(air, tDataAirDone)
}

// onDSSent transmits the announced data once the DS frame leaves the air.
func (m *MACAW) onDSSent() {
	m.timer = sim.Event{}
	head := m.txHead
	m.txHead = nil
	m.sendData(head)
}

// onDataAirDone fires when the DATA frame leaves the air: wait for the ACK,
// tentatively complete a piggybacked packet, or finish a basic exchange.
func (m *MACAW) onDataAirDone() {
	m.timer = sim.Event{}
	head, wantAck := m.txHead, m.txWantAck
	m.txHead, m.txWantAck = nil, false
	if wantAck {
		m.setState(WFACK)
		m.setTimer(m.env.Cfg.CTSWait(), tACKTimeout)
		return
	}
	if m.opt.Exchange.HasACK() {
		// Piggyback mode: tentatively complete; the packet is held
		// aside until the next CTS confirms it.
		q := m.queueFor(head.Dst)
		if q != nil && q.Peek() == head {
			q.Pop()
			m.noteQueue("pop", head.Dst)
		}
		m.pending[head.Dst] = head
		m.attempts[head.Dst] = 0
		m.stats.DataSent++
		m.next()
		return
	}
	// Basic exchange: the transmission is complete.
	m.completeSend(head.Dst)
}

// onCtrlSent resumes after a standalone control frame (ACK or NACK) leaves
// the air.
func (m *MACAW) onCtrlSent() {
	m.timer = sim.Event{}
	m.next()
}

// completeSend finishes the head packet toward dst.
func (m *MACAW) completeSend(dst frame.NodeID) {
	q := m.queueFor(dst)
	var p *mac.Packet
	if q != nil {
		p = q.Pop()
		m.noteQueue("pop", dst)
	}
	m.attempts[dst] = 0
	m.stats.DataSent++
	if p != nil {
		m.env.Callbacks.NotifySent(p)
	}
	m.next()
}

// onACKTimeout retries the packet. Appendix B's timeout rule penalizes the
// destination's backoff on every per-packet timeout ("When a Pad P times
// out on a packet to Q: Q's backoff += retry_count * ALPHA"), WFACK
// included; without the penalty, a sender whose data keeps colliding at the
// receiver (an intruding exposed terminal) retries at full aggression
// forever and two cells can lock into mutual destruction. §3.3.1's earlier
// "backoff not changed" rule predates the Appendix B revision.
func (m *MACAW) onACKTimeout() {
	if m.st != WFACK {
		return
	}
	m.timer = sim.Event{}
	m.pol.OnFailure(m.curDst)
	m.stats.Retries++
	m.noteRetry(m.curDst)
	m.bumpAttempts(m.curDst)
	m.next()
}

// onACK completes the exchange (control rule 6): the backoff decreases only
// now, when the ACK arrives (§3.3.1).
func (m *MACAW) onACK(f *frame.Frame) {
	if p := m.pending[f.Src]; p != nil && p.Seq() == f.Seq {
		delete(m.pending, f.Src)
		delete(m.pendingRetries, f.Src)
		m.pol.OnSuccess(f.Src)
		m.env.Callbacks.NotifySent(p)
		return
	}
	head := m.head(f.Src)
	if head == nil || head.Seq() != f.Seq {
		return
	}
	switch m.st {
	case WFACK:
		if f.Src != m.curDst {
			return
		}
	case WFCTS:
		// Control rule 7's counterpart: the receiver answered our
		// retransmitted RTS with the ACK for data it already has.
		if f.Src != m.curDst {
			return
		}
	default:
		return
	}
	m.clearTimer()
	m.pol.OnSuccess(f.Src)
	m.completeSend(f.Src)
}

// onDS moves the receiver from WFDS to WFData (control rule 4).
func (m *MACAW) onDS(f *frame.Frame) {
	if m.st != WFDS || f.Src != m.expectSrc {
		return
	}
	m.clearTimer()
	m.setState(WFData)
	m.setTimer(m.env.Cfg.Turnaround+m.env.Cfg.DataTime(int(f.DataBytes))+m.env.Cfg.Margin, tExpect)
}

// onData delivers the payload and returns the ACK (control rule 5). A
// retransmission of the most recently delivered packet (its ACK was lost,
// or our WFData timed out while its bits were still in the air) is
// re-acknowledged but not delivered again.
func (m *MACAW) onData(f *frame.Frame) {
	if m.opt.Exchange.HasACK() && m.everAcked[f.Src] && m.lastAcked[f.Src] == f.Seq {
		if m.st == WFData && f.Src == m.expectSrc {
			m.clearTimer()
			m.sendAck(f.Src, f.Seq)
		}
		return
	}
	if m.st == WFData && f.Src == m.expectSrc {
		m.clearTimer()
		m.deliver(f)
		if m.opt.Exchange.HasACK() {
			m.lastAcked[f.Src] = f.Seq
			m.everAcked[f.Src] = true
			if !f.AckRequested && m.opt.PiggybackACK {
				// §4: the sender will collect the ack from our
				// next CTS.
				m.next()
				return
			}
			m.sendAck(f.Src, f.Seq)
			return
		}
		m.next()
		return
	}
	// Data outside the expected window is still data; record it so a
	// retransmitted copy is not delivered twice.
	if m.opt.Exchange.HasACK() {
		m.lastAcked[f.Src] = f.Seq
		m.everAcked[f.Src] = true
	}
	m.deliver(f)
}

// sendAck transmits a link-level ACK and resumes.
func (m *MACAW) sendAck(dst frame.NodeID, seq uint32) {
	ack := &m.out
	*ack = frame.Frame{Type: frame.ACK, Src: m.env.ID(), Dst: dst, Seq: seq}
	m.pol.StampSend(ack)
	air := m.transmit(ack)
	m.stats.ACKSent++
	m.setState(SendData)
	m.setTimer(air, tCtrlSent)
}

// onRRTS answers a Request-for-RTS (control rule 13): transmit the RTS
// immediately if data for the requester is queued.
func (m *MACAW) onRRTS(f *frame.Frame) {
	if (m.st != Idle && m.st != Contend) || m.deferring() {
		return
	}
	head := m.head(f.Src)
	if head == nil {
		return
	}
	m.clearTimer()
	if m.attempts[head.Dst] == 0 {
		m.pol.StartExchange(head.Dst)
	}
	rts := &m.out
	*rts = frame.Frame{Type: frame.RTS, Src: m.env.ID(), Dst: head.Dst, DataBytes: uint16(head.Size), Seq: head.Seq()}
	m.pol.StampSend(rts)
	air := m.transmit(rts)
	m.stats.RTSSent++
	m.curDst = head.Dst
	m.setState(WFCTS)
	m.setTimer(air+m.env.Cfg.CTSWait(), tCTSTimeout)
}

// onNACK (§4 alternative): the receiver's CTS went unanswered by data; the
// sender retries immediately at the next contention without a backoff
// penalty.
func (m *MACAW) onNACK(f *frame.Frame) {
	if !m.opt.NACK || m.st != WFACK || f.Src != m.curDst {
		return
	}
	m.clearTimer()
	m.stats.Retries++
	m.noteRetry(m.curDst)
	m.bumpAttempts(m.curDst)
	m.next()
}
