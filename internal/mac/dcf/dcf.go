// Package dcf implements the IEEE 802.11 Distributed Coordination Function —
// the protocol that historically displaced MACAW. It is CSMA/CA with the
// pieces MACAW lacks or does differently:
//
//   - NAV virtual carrier sense: every overheard RTS/CTS/DATA frame reserves
//     the medium for the remainder of its exchange, so stations defer on
//     decoded headers, not only on raw carrier.
//   - SIFS/DIFS interframe spacing: responses (CTS, DATA after CTS, ACK)
//     follow after a short interframe space; fresh contention waits a DIFS
//     plus the backoff countdown.
//   - CWmin/CWmax binary exponential backoff: the contention window starts
//     at CWmin, doubles (cw' = 2·cw+1) on every failed attempt up to CWmax,
//     and resets to CWmin on success — per station, with no MILD decay and
//     no backoff copying.
//   - Short/long retry limits: RTS failures count against the short limit,
//     data (post-CTS) failures against the long limit; either limit
//     exhausting drops the head packet and resets the window.
//
// The engine keeps the repository's one-state-timer discipline: every
// non-idle state has exactly one pending timer, discriminated for forking by
// a timer kind rather than by state alone. Backoff freezing is conservative:
// when the attempt timer finds the medium busy (carrier or NAV), the drawn
// countdown is kept and re-waited in full after the medium clears, which
// over-defers slightly but never under-defers.
package dcf

import (
	"fmt"

	"macaw/internal/frame"
	"macaw/internal/mac"
	"macaw/internal/sim"
)

// State is a DCF FSM state.
type State int

// DCF states.
const (
	// Idle: nothing queued, nothing owed.
	Idle State = iota
	// Backoff: DIFS + backoff countdown pending toward the next attempt.
	Backoff
	// WFCTS: RTS radiated, awaiting the CTS.
	WFCTS
	// SendData: CTS in hand, SIFS gap before the DATA frame.
	SendData
	// WFACK: DATA radiated (unicast, or on the air for broadcast),
	// awaiting the ACK.
	WFACK
	// SendCTS: RTS received, SIFS gap before the CTS reply.
	SendCTS
	// WFData: CTS radiated, awaiting the announced DATA frame.
	WFData
	// SendACK: DATA delivered, SIFS gap before (then airtime of) the ACK.
	SendACK
)

var stateNames = [...]string{"IDLE", "BACKOFF", "WFCTS", "SENDDATA", "WFACK", "SENDCTS", "WFDATA", "SENDACK"}

// String names the state.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// tKind discriminates which continuation the single state timer carries; the
// fork path re-arms by kind (several states chain two timers).
type tKind int

const (
	tNone tKind = iota
	tAttempt
	tCTSTimeout
	tSendData
	tACKTimeout
	tSendCTS
	tDataTimeout
	tSendACK
	tAckAir
	tBcastAir
)

// Options configures a DCF instance.
type Options struct {
	// CWMin and CWMax bound the contention window (defaults 15 and 1023,
	// the 802.11 DSSS values). The backoff is drawn uniformly from
	// [0, cw]; cw doubles as 2·cw+1 on failure and resets to CWMin on
	// success.
	CWMin, CWMax int
	// ShortRetry is dot11ShortRetryLimit: RTS attempts per packet before
	// the packet is dropped (default 7).
	ShortRetry int
	// LongRetry is dot11LongRetryLimit: post-CTS data attempts per packet
	// before the packet is dropped (default 4).
	LongRetry int
	// SIFS is the short interframe space separating the frames of one
	// exchange (default 100µs — the paper's radio has a null turnaround,
	// so the SIFS models only the processing gap).
	SIFS sim.Duration
}

func (o Options) withDefaults() Options {
	if o.CWMin <= 0 {
		o.CWMin = 15
	}
	if o.CWMax <= 0 {
		o.CWMax = 1023
	}
	if o.ShortRetry <= 0 {
		o.ShortRetry = 7
	}
	if o.LongRetry <= 0 {
		o.LongRetry = 4
	}
	if o.SIFS <= 0 {
		o.SIFS = 100 * sim.Microsecond
	}
	return o
}

// DCF is one station's protocol instance.
type DCF struct {
	env  *mac.Env
	opt  Options
	lobs mac.LossObserver // optional retry/drop extension of env.Obs

	st State
	q  mac.Queue
	// cw is the live contention window; the countdown is drawn from [0, cw].
	cw int
	// bo is the drawn countdown in slots, kept across busy deferrals.
	bo int
	// src and lrc are the short (RTS) and long (data) retry counters for
	// the head packet.
	src, lrc int
	// nav is the virtual-carrier reservation: the medium is considered
	// busy until this time regardless of physical carrier.
	nav   sim.Time
	timer sim.Event
	tk    tKind
	// sending references the head packet from CTS receipt until its
	// exchange completes (still queued; success or drop pops it).
	sending *mac.Packet
	// peer/peerBytes/peerSeq track the responder side: the RTS sender owed
	// a CTS, the data size its RTS announced, and the exchange's sequence
	// number.
	peer      frame.NodeID
	peerBytes uint16
	peerSeq   uint32
	// lastSeq records the last delivered sequence number per source so a
	// retransmission after a lost ACK is re-acknowledged, not re-delivered.
	lastSeq map[frame.NodeID]uint32
	seq     uint32
	halted  bool // crashed instance: every entry point is a no-op
	stats   mac.Stats
	// out is the outbox every outgoing frame is built in. The radio copies
	// the frame on Transmit, so one buffer serves every send.
	out frame.Frame
}

// New returns a DCF instance bound to env's radio. The link-layer sequence
// origin is drawn randomly per lifetime, so a rebooted station cannot collide
// with its pre-crash numbering (the same defense macaw uses).
func New(env *mac.Env, opt Options) *DCF {
	opt = opt.withDefaults()
	d := &DCF{
		env: env, opt: opt, lobs: mac.AsLossObserver(env.Obs),
		cw:      opt.CWMin,
		lastSeq: make(map[frame.NodeID]uint32),
		seq:     env.Rand.Uint32() & 0x3fffffff,
	}
	env.Radio.SetHandler(d)
	return d
}

// State returns the current FSM state.
func (d *DCF) State() State { return d.st }

// CW returns the live contention window (tests and the sweep oracle).
func (d *DCF) CW() int { return d.cw }

// Options returns the configured options (post-default).
func (d *DCF) Options() Options { return d.opt }

// TimerAt returns the firing time of the pending state timer, or -1 when no
// timer is armed.
func (d *DCF) TimerAt() sim.Time {
	if d.timer.IsZero() || d.timer.Cancelled() {
		return -1
	}
	return d.timer.When()
}

// FSMState implements mac.Inspector.
func (d *DCF) FSMState() string { return d.st.String() }

// TimerPending implements mac.Inspector.
func (d *DCF) TimerPending() bool { return d.TimerAt() >= 0 }

// TimerWhen implements mac.Inspector.
func (d *DCF) TimerWhen() sim.Time { return d.TimerAt() }

// Halt implements mac.Halter: cancel the state timer, drop the queue
// (reported with DropDisabled), and turn every subsequent entry point into a
// no-op so a restarted MAC can own the radio without interference.
func (d *DCF) Halt() {
	if d.halted {
		return
	}
	d.halted = true
	d.clearTimer()
	d.st = Idle
	d.sending = nil
	for p := d.q.Pop(); p != nil; p = d.q.Pop() {
		d.stats.Drops++
		d.noteDrop(p.Dst, mac.DropDisabled)
		d.env.Callbacks.NotifyDropped(p, mac.DropDisabled)
	}
}

// Halted reports whether Halt has been called.
func (d *DCF) Halted() bool { return d.halted }

// Protocol implements mac.Engine.
func (d *DCF) Protocol() string { return "dcf" }

// Stats implements mac.MAC.
func (d *DCF) Stats() mac.Stats { return d.stats }

// QueueLen implements mac.MAC.
func (d *DCF) QueueLen() int { return d.q.Len() }

// Enqueue implements mac.MAC.
func (d *DCF) Enqueue(p *mac.Packet) {
	if d.halted {
		d.env.Callbacks.NotifyDropped(p, mac.DropDisabled)
		return
	}
	d.seq++
	p.SetSeq(d.seq)
	p.Enqueued = d.env.Sim.Now()
	d.q.Push(p)
	d.noteQueue("push", p.Dst)
	if d.st == Idle {
		d.startContention()
	}
}

// timerCall is the state timer's event callback: a package-level function,
// so arming the timer stores (d, kind) in the pooled event record instead of
// allocating a method-value closure.
func timerCall(a, b any) {
	d := a.(*DCF)
	switch b.(tKind) {
	case tAttempt:
		d.attempt()
	case tCTSTimeout:
		d.onCTSTimeout()
	case tSendData:
		d.sendData()
	case tACKTimeout:
		d.onACKTimeout()
	case tSendCTS:
		d.sendCTS()
	case tDataTimeout:
		d.onDataTimeout()
	case tSendACK:
		d.sendACK()
	case tAckAir:
		d.onAckAirDone()
	case tBcastAir:
		d.onBcastAirDone()
	}
}

func (d *DCF) setTimer(dur sim.Duration, k tKind) {
	d.timer.Cancel()
	d.tk = k
	d.timer = d.env.Sim.AtPriorityCall(d.env.Sim.Now()+dur, 0, timerCall, d, k)
	if d.env.Obs != nil {
		d.env.Obs.ObserveTimer(d.timer.When())
	}
}

func (d *DCF) clearTimer() {
	d.timer.Cancel()
	d.timer = sim.Event{}
	d.tk = tNone
	if d.env.Obs != nil {
		d.env.Obs.ObserveTimer(-1)
	}
}

// fired marks the state timer consumed at the top of every timer callback.
func (d *DCF) fired() {
	d.timer = sim.Event{}
	d.tk = tNone
}

// transmit radiates f, notifying the conformance observer first.
func (d *DCF) transmit(f *frame.Frame) sim.Duration {
	if d.env.Obs != nil {
		d.env.Obs.ObserveTx(f)
	}
	return d.env.Radio.Transmit(f)
}

// setState moves the FSM to s, notifying the conformance observer.
func (d *DCF) setState(s State) {
	if d.env.Obs != nil && s != d.st {
		d.env.Obs.ObserveState(d.st.String(), s.String())
	}
	d.st = s
}

// noteQueue reports a queue operation to the observer.
func (d *DCF) noteQueue(op string, dst frame.NodeID) {
	if d.env.Obs != nil {
		d.env.Obs.ObserveQueue(op, dst, d.q.Len())
	}
}

// noteRetry reports a retried attempt to the loss observer.
func (d *DCF) noteRetry(dst frame.NodeID) {
	if d.lobs != nil {
		d.lobs.ObserveRetry(dst)
	}
}

// noteDrop reports an abandoned packet to the loss observer.
func (d *DCF) noteDrop(dst frame.NodeID, reason mac.DropReason) {
	if d.lobs != nil {
		d.lobs.ObserveDrop(dst, reason)
	}
}

// slot returns the contention slot time.
func (d *DCF) slot() sim.Duration { return d.env.Cfg.Slot() }

// difs is the distributed interframe space: SIFS plus two slots.
func (d *DCF) difs() sim.Duration { return d.opt.SIFS + 2*d.slot() }

// growCW doubles the contention window: cw' = min(2·cw+1, CWMax).
func (d *DCF) growCW() {
	d.cw = 2*d.cw + 1
	if d.cw > d.opt.CWMax {
		d.cw = d.opt.CWMax
	}
}

// resetCW returns the window to CWMin and zeroes both retry counters.
func (d *DCF) resetCW() {
	d.cw = d.opt.CWMin
	d.src, d.lrc = 0, 0
}

// startContention draws a fresh backoff countdown from the live window and
// arms the attempt.
func (d *DCF) startContention() {
	if d.q.Peek() == nil {
		d.setState(Idle)
		return
	}
	d.bo = d.env.Rand.Intn(d.cw + 1)
	d.armAttempt()
}

// armAttempt schedules the attempt a DIFS plus the (kept) countdown past the
// later of now and the NAV reservation.
func (d *DCF) armAttempt() {
	d.setState(Backoff)
	now := d.env.Sim.Now()
	base := now
	if d.nav > base {
		base = d.nav
	}
	d.setTimer(base-now+d.difs()+sim.Duration(d.bo)*d.slot(), tAttempt)
}

// attempt fires at the end of the countdown: if the medium is busy the
// countdown is kept and re-armed (conservative freeze), otherwise the RTS —
// or a broadcast DATA frame, which 802.11 sends without RTS or ACK — goes on
// the air.
func (d *DCF) attempt() {
	d.fired()
	head := d.q.Peek()
	if head == nil {
		d.setState(Idle)
		return
	}
	if d.env.Radio.CarrierBusy() || d.nav > d.env.Sim.Now() {
		d.armAttempt()
		return
	}
	if head.Dst == frame.Broadcast {
		data := &d.out
		*data = frame.Frame{Type: frame.DATA, Src: d.env.ID(), Dst: head.Dst, DataBytes: uint16(head.Size), Seq: head.Seq(), Payload: head.Payload}
		air := d.transmit(data)
		d.sending = head
		d.setState(WFACK)
		d.setTimer(air, tBcastAir)
		return
	}
	rts := &d.out
	*rts = frame.Frame{Type: frame.RTS, Src: d.env.ID(), Dst: head.Dst, DataBytes: uint16(head.Size), Seq: head.Seq()}
	air := d.transmit(rts)
	d.stats.RTSSent++
	d.setState(WFCTS)
	d.setTimer(air+d.opt.SIFS+d.env.Cfg.CtrlTime()+d.env.Cfg.Margin, tCTSTimeout)
}

// onBcastAirDone completes a broadcast DATA frame (no ACK in 802.11).
func (d *DCF) onBcastAirDone() {
	d.fired()
	head := d.sending
	d.sending = nil
	d.q.Pop()
	d.noteQueue("pop", head.Dst)
	d.resetCW()
	d.stats.DataSent++
	d.env.Callbacks.NotifySent(head)
	d.startContention()
}

// onCTSTimeout charges a failed RTS against the short retry limit and doubles
// the window.
func (d *DCF) onCTSTimeout() {
	d.fired()
	d.src++
	d.stats.Retries++
	d.growCW()
	if head := d.q.Peek(); head != nil {
		d.noteRetry(head.Dst)
		if d.src > d.opt.ShortRetry {
			d.dropHead(head)
		}
	}
	d.startContention()
}

// onACKTimeout charges a failed data transmission against the long retry
// limit and doubles the window; the retry restarts from the RTS.
func (d *DCF) onACKTimeout() {
	d.fired()
	d.sending = nil
	d.lrc++
	d.stats.Retries++
	d.growCW()
	if head := d.q.Peek(); head != nil {
		d.noteRetry(head.Dst)
		if d.lrc > d.opt.LongRetry {
			d.dropHead(head)
		}
	}
	d.startContention()
}

// dropHead abandons the head packet at a retry limit and resets the window
// (802.11 resets CW after a drop exactly as after a success).
func (d *DCF) dropHead(head *mac.Packet) {
	d.q.Pop()
	d.noteQueue("drop", head.Dst)
	d.resetCW()
	d.stats.Drops++
	d.noteDrop(head.Dst, mac.DropRetries)
	d.env.Callbacks.NotifyDropped(head, mac.DropRetries)
}

// sendData radiates the head DATA frame a SIFS after the CTS arrived.
func (d *DCF) sendData() {
	d.fired()
	head := d.sending
	data := &d.out
	*data = frame.Frame{Type: frame.DATA, Src: d.env.ID(), Dst: head.Dst, DataBytes: uint16(head.Size), Seq: head.Seq(), Payload: head.Payload}
	air := d.transmit(data)
	d.setState(WFACK)
	d.setTimer(air+d.opt.SIFS+d.env.Cfg.CtrlTime()+d.env.Cfg.Margin, tACKTimeout)
}

// sendCTS radiates the CTS a SIFS after the granted RTS.
func (d *DCF) sendCTS() {
	d.fired()
	cts := &d.out
	*cts = frame.Frame{Type: frame.CTS, Src: d.env.ID(), Dst: d.peer, DataBytes: d.peerBytes, Seq: d.peerSeq}
	air := d.transmit(cts)
	d.stats.CTSSent++
	d.setState(WFData)
	d.setTimer(air+d.opt.SIFS+d.env.Cfg.DataTime(int(d.peerBytes))+d.env.Cfg.Margin, tDataTimeout)
}

// onDataTimeout gives up on a granted exchange whose DATA never arrived.
func (d *DCF) onDataTimeout() {
	d.fired()
	d.resume()
}

// sendACK radiates the ACK a SIFS after the DATA frame.
func (d *DCF) sendACK() {
	d.fired()
	ack := &d.out
	*ack = frame.Frame{Type: frame.ACK, Src: d.env.ID(), Dst: d.peer, Seq: d.peerSeq}
	air := d.transmit(ack)
	d.stats.ACKSent++
	d.setTimer(air, tAckAir)
}

// onAckAirDone completes the responder side of an exchange.
func (d *DCF) onAckAirDone() {
	d.fired()
	d.resume()
}

// resume returns to contention (fresh draw) or idle after responder duty or
// an abandoned grant.
func (d *DCF) resume() {
	d.startContention()
}

// deliver hands a DATA payload up unless it is a retransmission of the last
// delivered frame from that source (the ACK was lost, not the data).
func (d *DCF) deliver(f *frame.Frame) {
	if last, ok := d.lastSeq[f.Src]; ok && last == f.Seq {
		return
	}
	d.lastSeq[f.Src] = f.Seq
	d.stats.DataReceived++
	if d.env.Obs != nil {
		d.env.Obs.ObserveDeliver(f)
	}
	d.env.Callbacks.NotifyDeliver(f.Src, f.Payload)
}

// updateNAV extends the virtual-carrier reservation from an overheard frame:
// the remainder of the exchange the frame announces, measured from its end
// (receptions complete at frame end, so now is the frame boundary).
func (d *DCF) updateNAV(f *frame.Frame) {
	sifs, ctrl := d.opt.SIFS, d.env.Cfg.CtrlTime()
	var resv sim.Duration
	switch f.Type {
	case frame.RTS:
		resv = 3*sifs + ctrl + d.env.Cfg.DataTime(int(f.DataBytes)) + ctrl
	case frame.CTS:
		resv = 2*sifs + d.env.Cfg.DataTime(int(f.DataBytes)) + ctrl
	case frame.DATA:
		resv = sifs + ctrl
	default:
		return
	}
	if until := d.env.Sim.Now() + resv; until > d.nav {
		d.nav = until
	}
}

// RadioCarrier implements phy.Handler; physical carrier is polled at attempt
// time (the NAV covers decodable traffic).
func (d *DCF) RadioCarrier(bool) {}

// RadioReceive implements phy.Handler.
func (d *DCF) RadioReceive(f *frame.Frame) {
	if d.halted {
		return
	}
	if d.env.Obs != nil {
		d.env.Obs.ObserveRx(f)
	}
	if f.Dst != d.env.ID() {
		if f.Dst == frame.Broadcast && f.Type == frame.DATA {
			d.deliver(f)
			return
		}
		d.updateNAV(f)
		return
	}
	switch f.Type {
	case frame.RTS:
		d.onRTS(f)
	case frame.CTS:
		d.onCTS(f)
	case frame.DATA:
		d.onData(f)
	case frame.ACK:
		d.onACK(f)
	}
}

// onRTS grants the exchange when the station is available (idle or counting
// down, no NAV reservation, not transmitting); a repeated RTS from the peer
// currently being waited on re-grants immediately.
func (d *DCF) onRTS(f *frame.Frame) {
	avail := d.st == Idle || d.st == Backoff || (d.st == WFData && f.Src == d.peer)
	if !avail || d.env.Radio.Transmitting() {
		return
	}
	if d.st != WFData && d.nav > d.env.Sim.Now() {
		return
	}
	d.peer, d.peerBytes, d.peerSeq = f.Src, f.DataBytes, f.Seq
	d.setState(SendCTS)
	d.setTimer(d.opt.SIFS, tSendCTS)
}

// onCTS advances the sender a SIFS toward the DATA frame.
func (d *DCF) onCTS(f *frame.Frame) {
	if d.st != WFCTS {
		return
	}
	head := d.q.Peek()
	if head == nil || f.Src != head.Dst || f.Seq != head.Seq() {
		return
	}
	d.clearTimer()
	d.sending = head
	d.setState(SendData)
	d.setTimer(d.opt.SIFS, tSendData)
}

// onData delivers and schedules the ACK when the DATA answers this station's
// grant; out-of-exchange unicast data is delivered without an ACK (the sender
// retries through a proper exchange and the duplicate is suppressed).
func (d *DCF) onData(f *frame.Frame) {
	if d.st == WFData && f.Src == d.peer {
		d.clearTimer()
		d.peerSeq = f.Seq
		d.deliver(f)
		d.setState(SendACK)
		d.setTimer(d.opt.SIFS, tSendACK)
		return
	}
	d.deliver(f)
}

// onACK completes the head packet's exchange.
func (d *DCF) onACK(f *frame.Frame) {
	if d.st != WFACK {
		return
	}
	head := d.q.Peek()
	if head == nil || f.Src != head.Dst || f.Seq != head.Seq() {
		return
	}
	d.clearTimer()
	d.sending = nil
	d.q.Pop()
	d.noteQueue("pop", head.Dst)
	d.resetCW()
	d.stats.DataSent++
	d.env.Callbacks.NotifySent(head)
	d.startContention()
}
