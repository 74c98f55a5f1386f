// Package maca implements the original MACA media access protocol exactly
// as specified in Appendix A of the paper: an RTS-CTS-DATA exchange driven
// by a five-state machine (IDLE, CONTEND, WFCTS, WFData, QUIET), a single
// FIFO queue, a single backoff counter, and binary exponential backoff.
package maca

import (
	"fmt"

	"macaw/internal/backoff"
	"macaw/internal/frame"
	"macaw/internal/mac"
	"macaw/internal/sim"
)

// State is a MACA protocol state (Appendix A: "A pad running MACA can be in
// one of five states").
type State int

// The five MACA states plus the transient data-transmission phase.
const (
	Idle State = iota
	Contend
	WFCTS
	WFData
	Quiet
	// SendData covers the interval during which the station radiates its
	// DATA packet; Appendix A folds this into the IDLE transition, but a
	// distinct state keeps the engine from contending mid-transmission.
	SendData
)

var stateNames = [...]string{"IDLE", "CONTEND", "WFCTS", "WFDATA", "QUIET", "SENDDATA"}

// String returns the Appendix A state name.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Option configures a MACA instance.
type Option func(*MACA)

// WithPolicy overrides the backoff policy (default: single-counter BEB
// without copying, the paper's original MACA).
func WithPolicy(p backoff.Policy) Option { return func(m *MACA) { m.pol = p } }

// MACA is one station's protocol instance.
type MACA struct {
	env  *mac.Env
	pol  backoff.Policy
	lobs mac.LossObserver // optional retry/drop extension of env.Obs

	st         State
	q          mac.Queue
	retries    int
	timer      sim.Event
	tk         tKind // continuation of the pending state timer
	deferUntil sim.Time
	curDst     frame.NodeID // destination of the exchange in flight
	expectFrom frame.NodeID // sender we issued a CTS to (WFData)
	// sending is the packet on the air during SendData; it is popped off
	// the queue when the DATA frame starts and completed by onDataSent.
	sending *mac.Packet
	seq     uint32
	halted  bool // crashed instance: every entry point is a no-op
	stats   mac.Stats
	// out is the outbox every outgoing frame is built in. The radio copies
	// the frame on Transmit, so one buffer serves every send.
	out frame.Frame
}

// New returns a MACA instance bound to env's radio. It installs itself as
// the radio's handler.
func New(env *mac.Env, opts ...Option) *MACA {
	m := &MACA{env: env, pol: backoff.NewSingle(backoff.NewBEB(), false), lobs: mac.AsLossObserver(env.Obs)}
	for _, o := range opts {
		o(m)
	}
	env.Radio.SetHandler(m)
	return m
}

// State returns the current protocol state, for tests and traces.
func (m *MACA) State() State { return m.st }

// TimerAt returns the firing time of the pending state timer, or -1 when no
// timer is armed (introspection for tests and the liveness watchdog).
func (m *MACA) TimerAt() sim.Time {
	if m.timer.IsZero() || m.timer.Cancelled() {
		return -1
	}
	return m.timer.When()
}

// FSMState implements mac.Inspector.
func (m *MACA) FSMState() string { return m.st.String() }

// TimerPending implements mac.Inspector.
func (m *MACA) TimerPending() bool { return m.TimerAt() >= 0 }

// TimerWhen implements mac.Inspector.
func (m *MACA) TimerWhen() sim.Time { return m.TimerAt() }

// Halt implements mac.Halter: cancel the state timer, drop the queue
// (reported with DropDisabled), and turn every subsequent entry point into a
// no-op so a restarted MAC can own the radio without interference.
func (m *MACA) Halt() {
	if m.halted {
		return
	}
	m.halted = true
	m.clearTimer()
	m.st = Idle
	m.deferUntil = 0
	m.sending = nil
	for p := m.q.Pop(); p != nil; p = m.q.Pop() {
		m.stats.Drops++
		m.noteDrop(p.Dst, mac.DropDisabled)
		m.env.Callbacks.NotifyDropped(p, mac.DropDisabled)
	}
}

// Halted reports whether Halt has been called.
func (m *MACA) Halted() bool { return m.halted }

// Protocol implements mac.Engine.
func (m *MACA) Protocol() string { return "maca" }

// Stats implements mac.MAC.
func (m *MACA) Stats() mac.Stats { return m.stats }

// QueueLen implements mac.MAC.
func (m *MACA) QueueLen() int { return m.q.Len() }

// Enqueue implements mac.MAC: Control rule 1 — "When A is in IDLE state and
// wants to transmit a data packet to B, it sets a random timer and goes to
// the CONTEND state."
func (m *MACA) Enqueue(p *mac.Packet) {
	if m.halted {
		m.env.Callbacks.NotifyDropped(p, mac.DropDisabled)
		return
	}
	m.seq++
	p.SetSeq(m.seq)
	p.Enqueued = m.env.Sim.Now()
	m.q.Push(p)
	m.noteQueue("push", p.Dst)
	if m.st == Idle {
		m.enterContend()
	}
}

// tKind names the continuation the single state timer carries. Timers are
// armed through AtPriorityCall with the package-level timerCall and the kind
// as its argument, so arming one allocates no closure, and warm-started forks
// re-arm the pending timer from the copied kind.
type tKind int

const (
	tNone tKind = iota
	tContend
	tCTSTimeout
	tTimeoutToIdle
	tQuietEnd
	tDataSent
)

func (m *MACA) setTimer(d sim.Duration, k tKind) {
	m.setTimerAt(m.env.Sim.Now()+d, k)
}

func (m *MACA) setTimerAt(t sim.Time, k tKind) {
	m.timer.Cancel()
	m.tk = k
	m.timer = m.env.Sim.AtPriorityCall(t, 0, timerCall, m, k)
	if m.env.Obs != nil {
		m.env.Obs.ObserveTimer(t)
	}
}

func (m *MACA) clearTimer() {
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
	m := a.(*MACA)
	switch b.(tKind) {
	case tContend:
		m.onContendTimeout()
	case tCTSTimeout:
		m.onCTSTimeout()
	case tTimeoutToIdle:
		m.onTimeoutToIdle()
	case tQuietEnd:
		m.onQuietEnd()
	case tDataSent:
		m.onDataSent()
	}
}

// transmit radiates f, notifying the conformance observer first.
func (m *MACA) transmit(f *frame.Frame) sim.Duration {
	if m.env.Obs != nil {
		m.env.Obs.ObserveTx(f)
	}
	return m.env.Radio.Transmit(f)
}

// setState moves the FSM to s, notifying the conformance observer.
func (m *MACA) setState(s State) {
	if m.env.Obs != nil && s != m.st {
		m.env.Obs.ObserveState(m.st.String(), s.String())
	}
	m.st = s
}

// deliver hands a received DATA frame's payload to transport.
func (m *MACA) deliver(f *frame.Frame) {
	m.stats.DataReceived++
	if m.env.Obs != nil {
		m.env.Obs.ObserveDeliver(f)
	}
	m.env.Callbacks.NotifyDeliver(f.Src, f.Payload)
}

// noteQueue reports a queue operation to the observer.
func (m *MACA) noteQueue(op string, dst frame.NodeID) {
	if m.env.Obs != nil {
		m.env.Obs.ObserveQueue(op, dst, m.q.Len())
	}
}

// noteRetry reports a retried attempt to the loss observer.
func (m *MACA) noteRetry(dst frame.NodeID) {
	if m.lobs != nil {
		m.lobs.ObserveRetry(dst)
	}
}

// noteDrop reports an abandoned packet to the loss observer.
func (m *MACA) noteDrop(dst frame.NodeID, reason mac.DropReason) {
	if m.lobs != nil {
		m.lobs.ObserveDrop(dst, reason)
	}
}

// enterContend schedules the next RTS attempt "an integer number of slot
// times after the end of the last defer period", the integer drawn uniformly
// from 1..BO.
func (m *MACA) enterContend() {
	head := m.q.Peek()
	if head == nil {
		m.setState(Idle)
		return
	}
	m.setState(Contend)
	base := m.env.Sim.Now()
	if m.deferUntil > base {
		base = m.deferUntil
	}
	bo := m.pol.Backoff(head.Dst)
	k := 1 + m.env.Rand.Intn(bo)
	m.setTimerAt(base+sim.Duration(k)*m.env.Cfg.Slot(), tContend)
}

// onContendTimeout is Timeout rule 1: transmit the RTS and wait for the CTS.
func (m *MACA) onContendTimeout() {
	head := m.q.Peek()
	if m.st != Contend || head == nil {
		return
	}
	if m.deferUntil+m.env.Cfg.Slot() > m.env.Sim.Now() {
		// §3.2 / Appendix A: transmission begins an integer number of
		// slot times — at least one — after the end of the last defer
		// period. Contention draws already guarantee this (base + k·slot
		// with k ≥ 1 and base ≥ deferUntil); the redraw is a hardening
		// backstop for a horizon that moved under an armed timer.
		m.enterContend()
		return
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

// onCTSTimeout handles a lost RTS-CTS exchange: back off and retry, or give
// up past the retry limit.
func (m *MACA) onCTSTimeout() {
	if m.st != WFCTS {
		return
	}
	m.timer = sim.Event{}
	m.failAttempt()
}

func (m *MACA) failAttempt() {
	head := m.q.Peek()
	m.pol.OnFailure(m.curDst)
	m.retries++
	m.stats.Retries++
	m.noteRetry(m.curDst)
	if head != nil && m.retries > m.env.Cfg.MaxRetries {
		m.q.Pop()
		m.noteQueue("drop", head.Dst)
		m.retries = 0
		m.stats.Drops++
		m.noteDrop(head.Dst, mac.DropRetries)
		m.pol.OnGiveUp(head.Dst)
		m.env.Callbacks.NotifyDropped(head, mac.DropRetries)
	}
	m.next()
}

// next returns to IDLE or starts contending for the next queued packet.
func (m *MACA) next() {
	if m.q.Len() > 0 {
		m.enterContend()
	} else {
		m.setState(Idle)
	}
}

// enterQuiet is the Defer rules' QUIET transition. From WFCTS and WFData the
// pending exchange keeps its timer (the defer horizon still advances), since
// abandoning a half-completed exchange would deadlock both parties; Appendix
// A's precedence note is interpreted as applying to contention states.
func (m *MACA) enterQuiet(d sim.Duration) {
	until := m.env.Sim.Now() + d
	if until > m.deferUntil {
		m.deferUntil = until
	}
	switch m.st {
	case Idle, Contend:
		m.setState(Quiet)
		m.setTimer(m.deferUntil-m.env.Sim.Now(), tQuietEnd)
	case Quiet:
		m.setTimer(m.deferUntil-m.env.Sim.Now(), tQuietEnd)
	case WFCTS, WFData, SendData:
		// Keep the exchange; deferUntil constrains future contention.
	}
}

func (m *MACA) onQuietEnd() {
	if m.st != Quiet {
		return
	}
	m.timer = sim.Event{}
	if m.deferUntil > m.env.Sim.Now() {
		m.setTimer(m.deferUntil-m.env.Sim.Now(), tQuietEnd)
		return
	}
	m.next()
}

// RadioCarrier implements phy.Handler; MACA does not sense carrier.
func (m *MACA) RadioCarrier(bool) {}

// RadioReceive implements phy.Handler.
func (m *MACA) RadioReceive(f *frame.Frame) {
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
	m.pol.OnOverhear(f)
	switch f.Type {
	case frame.RTS:
		// Defer rule 1: long enough for the sender to hear the CTS.
		// Defer spans carry no margin so that all stations' contention
		// grids stay anchored to the exact frame boundaries.
		m.enterQuiet(m.env.Cfg.Turnaround + m.env.Cfg.CtrlTime())
	case frame.CTS:
		// Defer rule 2: long enough for the data transmission.
		m.enterQuiet(m.env.Cfg.Turnaround + m.env.Cfg.DataTime(int(f.DataBytes)))
	}
}

func (m *MACA) receiveForMe(f *frame.Frame) {
	m.pol.OnReceive(f)
	switch f.Type {
	case frame.RTS:
		// Control rules 2 and 5: reply with a CTS from IDLE or
		// CONTEND — but only "if it is not currently deferring",
		// whatever state the FSM occupies.
		if (m.st != Idle && m.st != Contend) || m.deferUntil > m.env.Sim.Now() {
			return
		}
		m.clearTimer()
		cts := &m.out
		*cts = frame.Frame{Type: frame.CTS, Src: m.env.ID(), Dst: f.Src, DataBytes: f.DataBytes, Seq: f.Seq}
		m.pol.StampSend(cts)
		air := m.transmit(cts)
		m.stats.CTSSent++
		m.expectFrom = f.Src
		m.setState(WFData)
		m.setTimer(air+m.env.Cfg.Turnaround+m.env.Cfg.DataTime(int(f.DataBytes))+m.env.Cfg.Margin, tTimeoutToIdle)
	case frame.CTS:
		// Control rule 3: send the data.
		if m.st != WFCTS || f.Src != m.curDst {
			return
		}
		m.clearTimer()
		m.pol.OnSuccess(m.curDst)
		m.retries = 0
		head := m.q.Pop()
		m.noteQueue("pop", head.Dst)
		data := &m.out
		*data = frame.Frame{Type: frame.DATA, Src: m.env.ID(), Dst: head.Dst, DataBytes: uint16(head.Size), Seq: head.Seq(), Payload: head.Payload}
		m.pol.StampSend(data)
		air := m.transmit(data)
		m.setState(SendData)
		m.sending = head
		m.setTimer(air, tDataSent)
	case frame.DATA:
		// Control rule 4.
		if m.st == WFData && f.Src == m.expectFrom {
			m.clearTimer()
			m.deliver(f)
			m.next()
			return
		}
		// A data packet that arrives outside WFData is still data.
		m.deliver(f)
	}
}

// onDataSent completes the DATA transmission started by the CTS: the packet
// held in sending is reported sent and the station moves on. A named method
// (rather than a closure over the popped head) keeps the pending-timer
// callback symbol stable, which warm-started forks rely on.
func (m *MACA) onDataSent() {
	m.timer = sim.Event{}
	head := m.sending
	m.sending = nil
	m.stats.DataSent++
	m.env.Callbacks.NotifySent(head)
	m.next()
}

// onTimeoutToIdle is Timeout rule 2: "From any other state, when a timer
// expires, a station goes to the IDLE state."
func (m *MACA) onTimeoutToIdle() {
	m.timer = sim.Event{}
	m.next()
}
