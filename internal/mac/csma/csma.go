// Package csma implements the carrier-sense baseline that §2.2 of the paper
// argues against: stations sense the channel at the transmitter and send
// data directly, with no RTS-CTS exchange. It exists to demonstrate the
// hidden- and exposed-terminal pathologies that motivate MACA/MACAW.
//
// The variant implemented is non-persistent CSMA with an optional link-level
// ACK (without an ACK the sender has no way to observe hidden-terminal
// collisions at all). Binary exponential backoff spaces retransmissions.
package csma

import (
	"fmt"

	"macaw/internal/backoff"
	"macaw/internal/frame"
	"macaw/internal/mac"
	"macaw/internal/sim"
)

// State is a CSMA sender state.
type State int

// CSMA states.
const (
	Idle State = iota
	Backoff
	Sending
	WFACK
)

var stateNames = [...]string{"IDLE", "BACKOFF", "SENDING", "WFACK"}

// String names the state.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Options configures a CSMA instance.
type Options struct {
	// ACK enables the link-level acknowledgement; without it the sender
	// fires and forgets.
	ACK bool
	// Policy is the backoff policy (default single-counter BEB).
	Policy backoff.Policy
}

// CSMA is one station's protocol instance.
type CSMA struct {
	env  *mac.Env
	opt  Options
	pol  backoff.Policy
	lobs mac.LossObserver // optional retry/drop extension of env.Obs

	st      State
	q       mac.Queue
	retries int
	timer   sim.Event
	tk      tKind // continuation of the pending state timer
	// sending references the head packet while its DATA frame is on the
	// air (still queued; finish pops it). It stays nil while an ACK is on
	// the air, which is how the two Sending-state timers are told apart.
	sending *mac.Packet
	seq     uint32
	halted  bool // crashed instance: every entry point is a no-op
	stats   mac.Stats
	// out is the outbox every outgoing frame is built in. The radio copies
	// the frame on Transmit, so one buffer serves every send.
	out frame.Frame
}

// New returns a CSMA instance bound to env's radio.
func New(env *mac.Env, opt Options) *CSMA {
	c := &CSMA{env: env, opt: opt, pol: opt.Policy, lobs: mac.AsLossObserver(env.Obs)}
	if c.pol == nil {
		c.pol = backoff.NewSingle(backoff.NewBEB(), false)
	}
	env.Radio.SetHandler(c)
	return c
}

// State returns the current sender state.
func (c *CSMA) State() State { return c.st }

// TimerAt returns the firing time of the pending state timer, or -1 when no
// timer is armed (introspection for tests and the liveness watchdog).
func (c *CSMA) TimerAt() sim.Time {
	if c.timer.IsZero() || c.timer.Cancelled() {
		return -1
	}
	return c.timer.When()
}

// FSMState implements mac.Inspector.
func (c *CSMA) FSMState() string { return c.st.String() }

// TimerPending implements mac.Inspector.
func (c *CSMA) TimerPending() bool { return c.TimerAt() >= 0 }

// TimerWhen implements mac.Inspector.
func (c *CSMA) TimerWhen() sim.Time { return c.TimerAt() }

// Halt implements mac.Halter: cancel the state timer, drop the queue
// (reported with DropDisabled), and turn every subsequent entry point into a
// no-op so a restarted MAC can own the radio without interference.
func (c *CSMA) Halt() {
	if c.halted {
		return
	}
	c.halted = true
	c.clearTimer()
	c.st = Idle
	c.sending = nil
	for p := c.q.Pop(); p != nil; p = c.q.Pop() {
		c.stats.Drops++
		c.noteDrop(p.Dst, mac.DropDisabled)
		c.env.Callbacks.NotifyDropped(p, mac.DropDisabled)
	}
}

// Halted reports whether Halt has been called.
func (c *CSMA) Halted() bool { return c.halted }

// Protocol implements mac.Engine.
func (c *CSMA) Protocol() string { return "csma" }

// Stats implements mac.MAC.
func (c *CSMA) Stats() mac.Stats { return c.stats }

// QueueLen implements mac.MAC.
func (c *CSMA) QueueLen() int { return c.q.Len() }

// Enqueue implements mac.MAC.
func (c *CSMA) Enqueue(p *mac.Packet) {
	if c.halted {
		c.env.Callbacks.NotifyDropped(p, mac.DropDisabled)
		return
	}
	c.seq++
	p.SetSeq(c.seq)
	p.Enqueued = c.env.Sim.Now()
	c.q.Push(p)
	c.noteQueue("push", p.Dst)
	if c.st == Idle {
		c.schedule()
	}
}

// tKind names the continuation the single state timer carries. Timers are
// armed through AtPriorityCall with the package-level timerCall and the kind
// as its argument, so arming one allocates no closure, and warm-started forks
// re-arm the pending timer from the copied kind.
type tKind int

const (
	tNone tKind = iota
	tAttempt
	tDataAirDone
	tACKTimeout
	tAckAirDone
)

func (c *CSMA) setTimer(d sim.Duration, k tKind) {
	c.timer.Cancel()
	c.tk = k
	c.timer = c.env.Sim.AtPriorityCall(c.env.Sim.Now()+d, 0, timerCall, c, k)
	if c.env.Obs != nil {
		c.env.Obs.ObserveTimer(c.timer.When())
	}
}

func (c *CSMA) clearTimer() {
	c.timer.Cancel()
	c.timer = sim.Event{}
	c.tk = tNone
	if c.env.Obs != nil {
		c.env.Obs.ObserveTimer(-1)
	}
}

// timerCall is the state timer's event callback: a package-level function,
// so arming the timer stores (c, kind) in the pooled event record instead of
// allocating a method-value closure.
func timerCall(a, b any) {
	c := a.(*CSMA)
	switch b.(tKind) {
	case tAttempt:
		c.attempt()
	case tDataAirDone:
		c.onDataAirDone()
	case tACKTimeout:
		c.onACKTimeout()
	case tAckAirDone:
		c.onAckAirDone()
	}
}

// transmit radiates f, notifying the conformance observer first.
func (c *CSMA) transmit(f *frame.Frame) sim.Duration {
	if c.env.Obs != nil {
		c.env.Obs.ObserveTx(f)
	}
	return c.env.Radio.Transmit(f)
}

// setState moves the FSM to s, notifying the conformance observer.
func (c *CSMA) setState(s State) {
	if c.env.Obs != nil && s != c.st {
		c.env.Obs.ObserveState(c.st.String(), s.String())
	}
	c.st = s
}

// noteQueue reports a queue operation to the observer.
func (c *CSMA) noteQueue(op string, dst frame.NodeID) {
	if c.env.Obs != nil {
		c.env.Obs.ObserveQueue(op, dst, c.q.Len())
	}
}

// noteRetry reports a retried attempt to the loss observer.
func (c *CSMA) noteRetry(dst frame.NodeID) {
	if c.lobs != nil {
		c.lobs.ObserveRetry(dst)
	}
}

// noteDrop reports an abandoned packet to the loss observer.
func (c *CSMA) noteDrop(dst frame.NodeID, reason mac.DropReason) {
	if c.lobs != nil {
		c.lobs.ObserveDrop(dst, reason)
	}
}

// schedule arms the next sense attempt 1..BO slots from now (non-persistent
// CSMA defers a random interval rather than waiting for the carrier edge).
func (c *CSMA) schedule() {
	head := c.q.Peek()
	if head == nil {
		c.setState(Idle)
		return
	}
	c.setState(Backoff)
	k := 1 + c.env.Rand.Intn(c.pol.Backoff(head.Dst))
	c.setTimer(sim.Duration(k)*c.env.Cfg.Slot(), tAttempt)
}

// attempt senses the carrier and transmits if the channel appears clear —
// the transmitter-side test whose inadequacy §2.2 demonstrates.
func (c *CSMA) attempt() {
	c.timer = sim.Event{}
	head := c.q.Peek()
	if head == nil {
		c.setState(Idle)
		return
	}
	if c.env.Radio.CarrierBusy() {
		c.schedule()
		return
	}
	data := &c.out
	*data = frame.Frame{Type: frame.DATA, Src: c.env.ID(), Dst: head.Dst, DataBytes: uint16(head.Size), Seq: head.Seq(), Payload: head.Payload}
	c.pol.StampSend(data)
	air := c.transmit(data)
	c.setState(Sending)
	c.sending = head
	c.setTimer(air, tDataAirDone)
}

// onDataAirDone fires when the DATA frame leaves the air: fire-and-forget
// completes immediately, an ACK-bearing exchange moves to WFACK.
func (c *CSMA) onDataAirDone() {
	c.timer = sim.Event{}
	head := c.sending
	c.sending = nil
	if !c.opt.ACK {
		c.finish(head)
		return
	}
	c.setState(WFACK)
	c.setTimer(c.env.Cfg.Turnaround+c.env.Cfg.CtrlTime()+c.env.Cfg.Margin, tACKTimeout)
}

// onAckAirDone fires when a returned ACK leaves the air.
func (c *CSMA) onAckAirDone() {
	c.timer = sim.Event{}
	c.schedule()
}

func (c *CSMA) finish(head *mac.Packet) {
	c.q.Pop()
	c.noteQueue("pop", head.Dst)
	c.retries = 0
	c.stats.DataSent++
	c.env.Callbacks.NotifySent(head)
	c.schedule()
}

func (c *CSMA) onACKTimeout() {
	if c.st != WFACK {
		return
	}
	c.timer = sim.Event{}
	c.pol.OnFailure(0)
	c.retries++
	c.stats.Retries++
	if head := c.q.Peek(); head != nil {
		c.noteRetry(head.Dst)
		if c.retries > c.env.Cfg.MaxRetries {
			c.q.Pop()
			c.noteQueue("drop", head.Dst)
			c.retries = 0
			c.stats.Drops++
			c.noteDrop(head.Dst, mac.DropRetries)
			c.pol.OnGiveUp(head.Dst)
			c.env.Callbacks.NotifyDropped(head, mac.DropRetries)
		}
	}
	c.schedule()
}

// RadioCarrier implements phy.Handler; the non-persistent variant polls the
// carrier at attempt time instead of reacting to edges.
func (c *CSMA) RadioCarrier(bool) {}

// RadioReceive implements phy.Handler.
func (c *CSMA) RadioReceive(f *frame.Frame) {
	if c.halted {
		return
	}
	if c.env.Obs != nil {
		c.env.Obs.ObserveRx(f)
	}
	if f.Dst != c.env.ID() {
		return
	}
	switch f.Type {
	case frame.DATA:
		c.stats.DataReceived++
		if c.env.Obs != nil {
			c.env.Obs.ObserveDeliver(f)
		}
		c.env.Callbacks.NotifyDeliver(f.Src, f.Payload)
		if c.opt.ACK && !c.env.Radio.Transmitting() {
			ack := &c.out
			*ack = frame.Frame{Type: frame.ACK, Src: c.env.ID(), Dst: f.Src, Seq: f.Seq}
			c.pol.StampSend(ack)
			// The ACK may itself collide; CSMA has no protection.
			air := c.transmit(ack)
			c.stats.ACKSent++
			c.setState(Sending)
			c.setTimer(air, tAckAirDone)
		}
	case frame.ACK:
		if c.st != WFACK {
			return
		}
		head := c.q.Peek()
		if head == nil || head.Seq() != f.Seq {
			return
		}
		c.clearTimer()
		c.pol.OnSuccess(f.Src)
		c.finish(head)
	}
}
