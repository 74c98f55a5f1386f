// Package tournament implements a constant-window tournament MAC in the
// spirit of Galtier's selective-signaling schemes: instead of spreading
// retransmissions over an ever-growing backoff window, contenders resolve
// each contention in a fixed number of elimination rounds on a global slot
// grid.
//
// Every contender draws one value from a constant window [0, W) and plays
// K = ceil(log2 W) rounds, presenting the draw's bits most-significant
// first. A contender whose current bit is 1 radiates a one-slot SIG burst
// and survives the round unconditionally; a contender whose bit is 0 stays
// silent and survives only if the slot stays silent too. After K rounds the
// survivors — exactly the stations holding the maximum draw — transmit
// their data; distinct draws yield a single winner, equal maximal draws
// collide and retry. The window never adapts: fairness comes from fresh
// uniform draws each contention, and the access delay is bounded by K slots
// regardless of load — the trade the paper's §5 backoff discussion circles
// around (stability versus bounded access time).
//
// The slot grid is global (slot = one control packet's airtime, and a SIG
// is a control packet, so a signaling burst fills its round exactly).
// Stations join a contention only after observing the medium idle for a
// full slot, which keeps concurrent tournaments aligned in the common case;
// misaligned joins resolve as ordinary collisions through the ACK retry
// path. Losses during the elimination rounds cost no retry budget — only a
// transmitted-but-unacknowledged data frame counts against MaxRetries.
package tournament

import (
	"fmt"

	"macaw/internal/frame"
	"macaw/internal/mac"
	"macaw/internal/sim"
)

// State is a tournament FSM state.
type State int

// Tournament states.
const (
	// Idle: nothing queued.
	Idle State = iota
	// WaitIdle: queued data pending, polling grid boundaries for a
	// slot-long idle period to start a tournament.
	WaitIdle
	// Tourn: playing elimination rounds.
	Tourn
	// SendData: broadcast data on the air (no ACK follows).
	SendData
	// WFACK: unicast data radiated, awaiting the ACK.
	WFACK
)

var stateNames = [...]string{"IDLE", "WAITIDLE", "TOURN", "SENDDATA", "WFACK"}

// String names the state.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// tKind discriminates the single state timer's continuation for forking.
type tKind int

const (
	tNone tKind = iota
	tBoundary
	tRound
	tDataAir
	tACKTimeout
)

// Options configures a tournament instance.
type Options struct {
	// Window is the constant contention window W: draws are uniform over
	// [0, W) and a tournament runs ceil(log2 W) rounds (default 32, five
	// rounds). Must be at least 2.
	Window int
}

func (o Options) withDefaults() Options {
	if o.Window <= 0 {
		o.Window = 32
	}
	return o
}

// Tournament is one station's protocol instance.
type Tournament struct {
	env  *mac.Env
	opt  Options
	lobs mac.LossObserver // optional retry/drop extension of env.Obs

	st State
	q  mac.Queue
	// draw is the value drawn for the live tournament; round counts the
	// rounds still to play (K down to 0, bit round-1 presented next).
	draw, round int
	// roundStart is when the current round's slot began; sentSig records
	// whether this station radiated in it (transmitters cannot lose).
	roundStart sim.Time
	sentSig    bool
	// lastBusy is the time of the last carrier edge (rise or fall); the
	// medium has been idle a full slot iff it is at least a slot old and
	// the carrier is down now.
	lastBusy sim.Time
	retries  int
	timer    sim.Event
	tk       tKind
	// sending references the head packet from data transmission until its
	// exchange completes (still queued; success or drop pops it).
	sending *mac.Packet
	// lastSeq records the last delivered sequence number per source so a
	// retransmission after a lost ACK is re-acknowledged, not re-delivered.
	lastSeq map[frame.NodeID]uint32
	seq     uint32
	sigs    int  // SIG bursts radiated (engine-local; mac.Stats has no slot for them)
	halted  bool // crashed instance: every entry point is a no-op
	stats   mac.Stats
	// out is the outbox every outgoing frame is built in. The radio copies
	// the frame on Transmit, so one buffer serves every send.
	out frame.Frame
}

// New returns a tournament instance bound to env's radio. The link-layer
// sequence origin is drawn randomly per lifetime, so a rebooted station
// cannot collide with its pre-crash numbering.
func New(env *mac.Env, opt Options) *Tournament {
	opt = opt.withDefaults()
	t := &Tournament{
		env: env, opt: opt, lobs: mac.AsLossObserver(env.Obs),
		lastBusy: -1,
		lastSeq:  make(map[frame.NodeID]uint32),
		seq:      env.Rand.Uint32() & 0x3fffffff,
	}
	env.Radio.SetHandler(t)
	return t
}

// State returns the current FSM state.
func (t *Tournament) State() State { return t.st }

// Options returns the configured options (post-default).
func (t *Tournament) Options() Options { return t.opt }

// Sigs returns the number of SIG bursts radiated (tests and benchmarks).
func (t *Tournament) Sigs() int { return t.sigs }

// rounds returns K = ceil(log2 Window).
func (t *Tournament) rounds() int {
	k := 0
	for 1<<k < t.opt.Window {
		k++
	}
	return k
}

// TimerAt returns the firing time of the pending state timer, or -1 when no
// timer is armed.
func (t *Tournament) TimerAt() sim.Time {
	if t.timer.IsZero() || t.timer.Cancelled() {
		return -1
	}
	return t.timer.When()
}

// FSMState implements mac.Inspector.
func (t *Tournament) FSMState() string { return t.st.String() }

// TimerPending implements mac.Inspector.
func (t *Tournament) TimerPending() bool { return t.TimerAt() >= 0 }

// TimerWhen implements mac.Inspector.
func (t *Tournament) TimerWhen() sim.Time { return t.TimerAt() }

// Halt implements mac.Halter: cancel the state timer, drop the queue
// (reported with DropDisabled), and turn every subsequent entry point into a
// no-op so a restarted MAC can own the radio without interference.
func (t *Tournament) Halt() {
	if t.halted {
		return
	}
	t.halted = true
	t.clearTimer()
	t.st = Idle
	t.sending = nil
	for p := t.q.Pop(); p != nil; p = t.q.Pop() {
		t.stats.Drops++
		t.noteDrop(p.Dst, mac.DropDisabled)
		t.env.Callbacks.NotifyDropped(p, mac.DropDisabled)
	}
}

// Halted reports whether Halt has been called.
func (t *Tournament) Halted() bool { return t.halted }

// Protocol implements mac.Engine.
func (t *Tournament) Protocol() string { return "tournament" }

// Stats implements mac.MAC.
func (t *Tournament) Stats() mac.Stats { return t.stats }

// QueueLen implements mac.MAC.
func (t *Tournament) QueueLen() int { return t.q.Len() }

// Enqueue implements mac.MAC.
func (t *Tournament) Enqueue(p *mac.Packet) {
	if t.halted {
		t.env.Callbacks.NotifyDropped(p, mac.DropDisabled)
		return
	}
	t.seq++
	p.SetSeq(t.seq)
	p.Enqueued = t.env.Sim.Now()
	t.q.Push(p)
	t.noteQueue("push", p.Dst)
	if t.st == Idle {
		t.startWait()
	}
}

// timerCall is the state timer's event callback: a package-level function,
// so arming the timer stores (t, kind) in the pooled event record instead of
// allocating a method-value closure.
func timerCall(a, b any) {
	t := a.(*Tournament)
	switch b.(tKind) {
	case tBoundary:
		t.onBoundary()
	case tRound:
		t.onRoundEnd()
	case tDataAir:
		t.onDataAirDone()
	case tACKTimeout:
		t.onACKTimeout()
	}
}

func (t *Tournament) setTimer(dur sim.Duration, k tKind) {
	t.timer.Cancel()
	t.tk = k
	t.timer = t.env.Sim.AtPriorityCall(t.env.Sim.Now()+dur, 0, timerCall, t, k)
	if t.env.Obs != nil {
		t.env.Obs.ObserveTimer(t.timer.When())
	}
}

func (t *Tournament) clearTimer() {
	t.timer.Cancel()
	t.timer = sim.Event{}
	t.tk = tNone
	if t.env.Obs != nil {
		t.env.Obs.ObserveTimer(-1)
	}
}

// fired marks the state timer consumed at the top of every timer callback.
func (t *Tournament) fired() {
	t.timer = sim.Event{}
	t.tk = tNone
}

// transmit radiates f, notifying the conformance observer first.
func (t *Tournament) transmit(f *frame.Frame) sim.Duration {
	if t.env.Obs != nil {
		t.env.Obs.ObserveTx(f)
	}
	return t.env.Radio.Transmit(f)
}

// setState moves the FSM to s, notifying the conformance observer.
func (t *Tournament) setState(s State) {
	if t.env.Obs != nil && s != t.st {
		t.env.Obs.ObserveState(t.st.String(), s.String())
	}
	t.st = s
}

// noteQueue reports a queue operation to the observer.
func (t *Tournament) noteQueue(op string, dst frame.NodeID) {
	if t.env.Obs != nil {
		t.env.Obs.ObserveQueue(op, dst, t.q.Len())
	}
}

// noteRetry reports a retried attempt to the loss observer.
func (t *Tournament) noteRetry(dst frame.NodeID) {
	if t.lobs != nil {
		t.lobs.ObserveRetry(dst)
	}
}

// noteDrop reports an abandoned packet to the loss observer.
func (t *Tournament) noteDrop(dst frame.NodeID, reason mac.DropReason) {
	if t.lobs != nil {
		t.lobs.ObserveDrop(dst, reason)
	}
}

// slot returns the global grid pitch (one control packet's airtime).
func (t *Tournament) slot() sim.Duration { return t.env.Cfg.Slot() }

// startWait enters WaitIdle toward the next grid boundary, or Idle when the
// queue is empty.
func (t *Tournament) startWait() {
	if t.q.Peek() == nil {
		t.setState(Idle)
		return
	}
	t.setState(WaitIdle)
	t.armBoundary()
}

// armBoundary schedules the next grid-boundary check.
func (t *Tournament) armBoundary() {
	now := t.env.Sim.Now()
	slot := t.slot()
	next := (now/slot + 1) * slot
	t.setTimer(next-now, tBoundary)
}

// onBoundary fires at a grid boundary in WaitIdle: a tournament starts only
// if the medium has been idle for a full slot; otherwise the station keeps
// polling boundaries.
func (t *Tournament) onBoundary() {
	t.fired()
	if t.q.Peek() == nil {
		t.setState(Idle)
		return
	}
	now := t.env.Sim.Now()
	if t.env.Radio.Transmitting() || t.env.Radio.CarrierBusy() || t.lastBusy+t.slot() > now {
		t.armBoundary()
		return
	}
	t.draw = t.env.Rand.Intn(t.opt.Window)
	t.round = t.rounds()
	t.setState(Tourn)
	t.stepRound()
}

// stepRound plays the next elimination round, or transmits the data frame
// when every round has been survived.
func (t *Tournament) stepRound() {
	if t.round == 0 {
		t.sendHead()
		return
	}
	t.round--
	t.roundStart = t.env.Sim.Now()
	if (t.draw>>t.round)&1 == 1 {
		sig := &t.out
		*sig = frame.Frame{Type: frame.SIG, Src: t.env.ID(), Dst: frame.Broadcast}
		t.transmit(sig)
		t.sigs++
		t.sentSig = true
	} else {
		t.sentSig = false
	}
	t.setTimer(t.slot(), tRound)
}

// onRoundEnd closes a round: silent contenders that heard traffic lose and
// return to WaitIdle; everyone else proceeds.
func (t *Tournament) onRoundEnd() {
	t.fired()
	if !t.sentSig && (t.lastBusy >= t.roundStart || t.env.Radio.CarrierBusy()) {
		t.startWait()
		return
	}
	t.stepRound()
}

// sendHead transmits the head packet as the tournament's survivor.
func (t *Tournament) sendHead() {
	head := t.q.Peek()
	if head == nil {
		t.setState(Idle)
		return
	}
	data := &t.out
	*data = frame.Frame{Type: frame.DATA, Src: t.env.ID(), Dst: head.Dst, DataBytes: uint16(head.Size), Seq: head.Seq(), Payload: head.Payload}
	air := t.transmit(data)
	t.sending = head
	if head.Dst == frame.Broadcast {
		t.setState(SendData)
		t.setTimer(air, tDataAir)
		return
	}
	t.setState(WFACK)
	t.setTimer(air+t.env.Cfg.CtrlTime()+t.env.Cfg.Margin, tACKTimeout)
}

// onDataAirDone completes a broadcast data frame (no ACK).
func (t *Tournament) onDataAirDone() {
	t.fired()
	head := t.sending
	t.sending = nil
	t.q.Pop()
	t.noteQueue("pop", head.Dst)
	t.retries = 0
	t.stats.DataSent++
	t.env.Callbacks.NotifySent(head)
	t.startWait()
}

// onACKTimeout charges an unacknowledged data frame against MaxRetries —
// the only path that consumes retry budget (elimination losses are free).
func (t *Tournament) onACKTimeout() {
	t.fired()
	t.sending = nil
	t.retries++
	t.stats.Retries++
	if head := t.q.Peek(); head != nil {
		t.noteRetry(head.Dst)
		if t.retries > t.env.Cfg.MaxRetries {
			t.q.Pop()
			t.noteQueue("drop", head.Dst)
			t.retries = 0
			t.stats.Drops++
			t.noteDrop(head.Dst, mac.DropRetries)
			t.env.Callbacks.NotifyDropped(head, mac.DropRetries)
		}
	}
	t.startWait()
}

// deliver hands a DATA payload up unless it is a retransmission of the last
// delivered frame from that source.
func (t *Tournament) deliver(f *frame.Frame) {
	if last, ok := t.lastSeq[f.Src]; ok && last == f.Seq {
		return
	}
	t.lastSeq[f.Src] = f.Seq
	t.stats.DataReceived++
	if t.env.Obs != nil {
		t.env.Obs.ObserveDeliver(f)
	}
	t.env.Callbacks.NotifyDeliver(f.Src, f.Payload)
}

// RadioCarrier implements phy.Handler: both edges timestamp lastBusy, so
// "idle for a full slot" is lastBusy at least a slot old with the carrier
// down.
func (t *Tournament) RadioCarrier(bool) {
	if t.halted {
		return
	}
	t.lastBusy = t.env.Sim.Now()
}

// RadioReceive implements phy.Handler.
func (t *Tournament) RadioReceive(f *frame.Frame) {
	if t.halted {
		return
	}
	if t.env.Obs != nil {
		t.env.Obs.ObserveRx(f)
	}
	if f.Dst == frame.Broadcast && f.Type == frame.DATA {
		t.deliver(f)
		return
	}
	if f.Dst != t.env.ID() {
		return
	}
	switch f.Type {
	case frame.DATA:
		t.deliver(f)
		// The ACK follows immediately (the receiver is in WaitIdle or
		// Idle by the data frame's end: contenders lost their round when
		// the data's carrier rose). No state change: an armed boundary
		// timer simply finds the medium busy and re-polls.
		if !t.env.Radio.Transmitting() {
			ack := &t.out
			*ack = frame.Frame{Type: frame.ACK, Src: t.env.ID(), Dst: f.Src, Seq: f.Seq}
			t.transmit(ack)
			t.stats.ACKSent++
		}
	case frame.ACK:
		if t.st != WFACK {
			return
		}
		head := t.q.Peek()
		if head == nil || f.Src != head.Dst || f.Seq != head.Seq() {
			return
		}
		t.clearTimer()
		t.sending = nil
		t.q.Pop()
		t.noteQueue("pop", head.Dst)
		t.retries = 0
		t.stats.DataSent++
		t.env.Callbacks.NotifySent(head)
		t.startWait()
	}
}
