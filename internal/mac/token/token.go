// Package token implements the token-based single-cell access scheme the
// paper defers to future work ("Various token-based schemes, or those
// involving polling or reservations, are possibilities we hope to explore").
//
// A static ring of stations circulates a TOKEN control packet; the holder
// transmits up to MaxPerToken queued data packets, then passes the token to
// its successor. The scheme needs no RTS/CTS — token possession is the
// collision-avoidance — but it pays exactly the costs §2.1 predicts for a
// mobile environment: hand-off overhead on every rotation, and recovery
// timeouts whenever a station holding (or about to receive) the token
// disappears. Stations skip dead successors after a watch timeout, and the
// lowest-numbered live station regenerates a token lost to silence.
//
// The implementation is deliberately single-cell (every ring member must
// hear every other); the paper's other reason for rejecting tokens —
// hand-off across cells — is out of scope.
package token

import (
	"fmt"

	"macaw/internal/frame"
	"macaw/internal/mac"
	"macaw/internal/sim"
)

// State is a token MAC state.
type State int

// Token states.
const (
	// NoToken: listening; the token is elsewhere.
	NoToken State = iota
	// Holding: this station owns the channel.
	Holding
	// Passing: token transmitted, watching for the successor to use it.
	Passing
)

var stateNames = [...]string{"NOTOKEN", "HOLDING", "PASSING"}

// String names the state.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Options configures a token MAC instance.
type Options struct {
	// Ring lists every station of the cell in token order; it must be
	// identical at every member. The first listed station generates the
	// initial token.
	Ring []frame.NodeID
	// MaxPerToken bounds the data packets sent per token possession
	// (default 1, round-robin fairness).
	MaxPerToken int
	// WatchSlots is how many slot times a passer waits to hear its
	// successor use the token before skipping it. Receptions complete at
	// frame end, so the window must cover the successor's largest first
	// transmission — a full data frame (~17.1 slots for 512 bytes) plus
	// slack (default 24).
	WatchSlots int
	// RecoverySlots is how many slots of total silence any station
	// tolerates before the lowest live member regenerates the token
	// (default 64).
	RecoverySlots int
}

func (o Options) withDefaults() Options {
	if o.MaxPerToken <= 0 {
		o.MaxPerToken = 1
	}
	if o.WatchSlots <= 0 {
		o.WatchSlots = 24
	}
	if o.RecoverySlots <= 0 {
		o.RecoverySlots = 64
	}
	return o
}

// Token is one station's protocol instance.
type Token struct {
	env  *mac.Env
	opt  Options
	lobs mac.LossObserver // optional retry/drop extension of env.Obs

	st       State
	q        mac.Queue
	ringPos  int // own index in the ring
	passTo   int // ring index the token was passed to (Passing state)
	sentThis int // packets sent during the current possession
	// sending is the packet on the air during a possession (already popped
	// off the queue), completed by onDataSent.
	sending *mac.Packet
	// skipNext is the skip distance the Passing watch timer will retry
	// with when the successor never shows life.
	skipNext int
	timer    sim.Event
	tk       tKind // continuation of the pending state timer
	watchdog sim.Event
	seq      uint32
	halted   bool // crashed instance: every entry point is a no-op
	stats    mac.Stats
	// out is the outbox every outgoing frame is built in. The radio copies
	// the frame on Transmit, so one buffer serves every send.
	out frame.Frame
	// Regenerations counts token-recovery events at this station.
	Regenerations int
	// Skips counts successors skipped after a watch timeout.
	Skips int
}

// New returns a token MAC bound to env's radio. The env's station must be
// listed in opt.Ring.
func New(env *mac.Env, opt Options) *Token {
	opt = opt.withDefaults()
	t := &Token{env: env, opt: opt, lobs: mac.AsLossObserver(env.Obs), ringPos: -1}
	for i, id := range opt.Ring {
		if id == env.ID() {
			t.ringPos = i
			break
		}
	}
	if t.ringPos < 0 {
		panic(fmt.Sprintf("token: station %v not in ring %v", env.ID(), opt.Ring))
	}
	env.Radio.SetHandler(t)
	t.armWatchdog()
	if t.ringPos == 0 {
		// The first member bootstraps the token once the ring settles.
		t.after(t.env.Cfg.Slot(), tAcquire)
	}
	return t
}

// State returns the current protocol state.
func (t *Token) State() State { return t.st }

// timerAt returns when e fires, or -1 for an unarmed or cancelled event.
func timerAt(e sim.Event) sim.Time {
	if e.IsZero() || e.Cancelled() {
		return -1
	}
	return e.When()
}

// FSMState implements mac.Inspector.
func (t *Token) FSMState() string { return t.st.String() }

// TimerPending implements mac.Inspector. The silence watchdog counts: it is
// the event that guarantees liveness in NOTOKEN (the token is elsewhere and
// only recovery or a reception can change that), so the scheme's pending
// continuation is whichever of the state timer and the watchdog fires first.
func (t *Token) TimerPending() bool { return t.TimerWhen() >= 0 }

// TimerWhen implements mac.Inspector: the earlier of the state timer and the
// silence watchdog, or -1 when neither is armed.
func (t *Token) TimerWhen() sim.Time {
	a, b := timerAt(t.timer), timerAt(t.watchdog)
	if a < 0 {
		return b
	}
	if b < 0 || a < b {
		return a
	}
	return b
}

// Halt implements mac.Halter: cancel both pending events, drop the queue
// (reported with DropDisabled), and turn every subsequent entry point into a
// no-op so a restarted MAC can own the radio without interference. Before the
// MAC SPI extraction the token engine had no Halt at all, so a crashed
// station's instance kept driving the shared radio after a restart bound a
// fresh one — see TestHaltSilencesZombieInstance.
func (t *Token) Halt() {
	if t.halted {
		return
	}
	t.halted = true
	t.clearTimer()
	t.watchdog.Cancel()
	t.watchdog = sim.Event{}
	t.st = NoToken
	t.sending = nil
	for p := t.q.Pop(); p != nil; p = t.q.Pop() {
		t.stats.Drops++
		t.noteDrop(p.Dst, mac.DropDisabled)
		t.env.Callbacks.NotifyDropped(p, mac.DropDisabled)
	}
}

// Halted reports whether Halt has been called.
func (t *Token) Halted() bool { return t.halted }

// Protocol implements mac.Engine.
func (t *Token) Protocol() string { return "token" }

// Stats implements mac.MAC.
func (t *Token) Stats() mac.Stats { return t.stats }

// QueueLen implements mac.MAC.
func (t *Token) QueueLen() int { return t.q.Len() }

// Enqueue implements mac.MAC.
func (t *Token) Enqueue(p *mac.Packet) {
	if t.halted {
		t.env.Callbacks.NotifyDropped(p, mac.DropDisabled)
		return
	}
	t.seq++
	p.SetSeq(t.seq)
	p.Enqueued = t.env.Sim.Now()
	t.q.Push(p)
	t.noteQueue("push", p.Dst)
}

// tKind names an event continuation. The state timer's kind is kept in tk;
// tSilence is the watchdog's and tAcquire the ring bootstrap's. Every event
// is armed through AtPriorityCall with the package-level timerCall and the
// kind as its argument, so arming one allocates no closure, and warm-started
// forks re-arm the pending events from the copied kind.
type tKind int

const (
	tNone tKind = iota
	tDataSent
	tHoldPause
	tWatchTimeout
	tSilence
	tAcquire
)

func (t *Token) setTimer(d sim.Duration, k tKind) {
	t.timer.Cancel()
	t.tk = k
	t.timer = t.after(d, k)
	if t.env.Obs != nil {
		t.env.Obs.ObserveTimer(t.timer.When())
	}
}

// after schedules continuation k d from now.
func (t *Token) after(d sim.Duration, k tKind) sim.Event {
	return t.env.Sim.AtPriorityCall(t.env.Sim.Now()+d, 0, timerCall, t, k)
}

// clearTimer cancels the state timer, reporting the cancellation. The silence
// watchdog is deliberately not reported through ObserveTimer — the observer
// contract traces the state timer; the watchdog is visible via TimerWhen.
func (t *Token) clearTimer() {
	t.timer.Cancel()
	t.timer = sim.Event{}
	t.tk = tNone
	if t.env.Obs != nil {
		t.env.Obs.ObserveTimer(-1)
	}
}

// timerCall is the event callback of every token timer: a package-level
// function, so arming a timer stores (t, kind) in the pooled event record
// instead of allocating a method-value closure.
func timerCall(a, b any) {
	t := a.(*Token)
	switch b.(tKind) {
	case tDataSent:
		t.onDataSent()
	case tHoldPause:
		t.onHoldPause()
	case tWatchTimeout:
		t.onWatchTimeout()
	case tSilence:
		t.onSilence()
	case tAcquire:
		t.acquire()
	}
}

// transmit radiates f, notifying the conformance observer first.
func (t *Token) transmit(f *frame.Frame) sim.Duration {
	if t.env.Obs != nil {
		t.env.Obs.ObserveTx(f)
	}
	return t.env.Radio.Transmit(f)
}

// setState moves the FSM to s, notifying the conformance observer.
func (t *Token) setState(s State) {
	if t.env.Obs != nil && s != t.st {
		t.env.Obs.ObserveState(t.st.String(), s.String())
	}
	t.st = s
}

// noteQueue reports a queue operation to the observer.
func (t *Token) noteQueue(op string, dst frame.NodeID) {
	if t.env.Obs != nil {
		t.env.Obs.ObserveQueue(op, dst, t.q.Len())
	}
}

// noteDrop reports an abandoned packet to the loss observer.
func (t *Token) noteDrop(dst frame.NodeID, reason mac.DropReason) {
	if t.lobs != nil {
		t.lobs.ObserveDrop(dst, reason)
	}
}

// armWatchdog (re)starts the silence watchdog that triggers token recovery.
func (t *Token) armWatchdog() {
	t.watchdog.Cancel()
	t.watchdog = t.after(sim.Duration(t.opt.RecoverySlots+t.ringPos)*t.env.Cfg.Slot(), tSilence)
}

// onSilence fires when nothing has been heard for the recovery window. The
// per-station ringPos stagger makes the lowest live member win the
// regeneration race.
func (t *Token) onSilence() {
	t.watchdog = sim.Event{}
	if t.st != NoToken {
		t.armWatchdog()
		return
	}
	t.Regenerations++
	t.acquire()
}

// acquire takes possession of the token.
func (t *Token) acquire() {
	if t.halted || t.env.Radio.Transmitting() {
		return
	}
	t.setState(Holding)
	t.sentThis = 0
	t.serve()
}

// serve transmits queued data while the possession budget lasts, then
// passes the token on.
func (t *Token) serve() {
	t.armWatchdog()
	head := t.q.Peek()
	if head == nil || t.sentThis >= t.opt.MaxPerToken {
		t.pass(1)
		return
	}
	t.q.Pop()
	t.noteQueue("pop", head.Dst)
	t.sentThis++
	data := &t.out
	*data = frame.Frame{Type: frame.DATA, Src: t.env.ID(), Dst: head.Dst, DataBytes: uint16(head.Size), Seq: head.Seq(), Payload: head.Payload}
	air := t.transmit(data)
	t.sending = head
	t.setTimer(air, tDataSent)
}

// onDataSent completes the data frame on the air and keeps serving.
func (t *Token) onDataSent() {
	t.timer = sim.Event{}
	head := t.sending
	t.sending = nil
	t.stats.DataSent++
	t.env.Callbacks.NotifySent(head)
	t.serve()
}

// onHoldPause resumes serving after a held-token pause: either the recovery
// pause taken when every successor looked dead, or the one-slot self-pass of
// a ring of one. Both reopen the possession budget.
func (t *Token) onHoldPause() {
	t.timer = sim.Event{}
	t.sentThis = 0
	t.serve()
}

// onWatchTimeout fires when the successor the token was passed to never
// showed life: skip it and pass further around the ring.
func (t *Token) onWatchTimeout() {
	t.timer = sim.Event{}
	t.Skips++
	t.pass(t.skipNext)
}

// pass hands the token to the skip-th successor and watches for it to show
// life.
func (t *Token) pass(skip int) {
	if skip >= len(t.opt.Ring) {
		// Everyone else looks dead; keep the token and try again after
		// a recovery pause.
		t.setState(Holding)
		t.setTimer(sim.Duration(t.opt.RecoverySlots)*t.env.Cfg.Slot(), tHoldPause)
		return
	}
	t.passTo = (t.ringPos + skip) % len(t.opt.Ring)
	succ := t.opt.Ring[t.passTo]
	if succ == t.env.ID() {
		// Ring of one: keep serving after a slot's pause.
		t.sentThis = 0
		t.setTimer(t.env.Cfg.Slot(), tHoldPause)
		return
	}
	tok := &t.out
	*tok = frame.Frame{Type: frame.TOKEN, Src: t.env.ID(), Dst: succ}
	air := t.transmit(tok)
	t.setState(Passing)
	t.skipNext = skip + 1
	t.setTimer(air+sim.Duration(t.opt.WatchSlots)*t.env.Cfg.Slot(), tWatchTimeout)
}

// RadioCarrier implements phy.Handler; token access needs no carrier sense.
func (t *Token) RadioCarrier(bool) {}

// RadioReceive implements phy.Handler.
func (t *Token) RadioReceive(f *frame.Frame) {
	if t.halted {
		return
	}
	if t.env.Obs != nil {
		t.env.Obs.ObserveRx(f)
	}
	t.armWatchdog()
	if t.st == Passing {
		// Any transmission from the successor proves the hand-off.
		if f.Src == t.opt.Ring[t.passTo] {
			t.clearTimer()
			t.setState(NoToken)
		}
	}
	switch f.Type {
	case frame.TOKEN:
		if f.Dst == t.env.ID() {
			t.clearTimer()
			t.acquire()
		}
	case frame.DATA:
		if f.Dst == t.env.ID() || f.Dst == frame.Broadcast {
			t.stats.DataReceived++
			if t.env.Obs != nil {
				t.env.Obs.ObserveDeliver(f)
			}
			t.env.Callbacks.NotifyDeliver(f.Src, f.Payload)
		}
	}
}
