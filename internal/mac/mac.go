// Package mac defines the interfaces shared by the media access protocol
// implementations (CSMA, MACA, MACAW): the transport-facing packet type,
// the host callbacks, per-stream queueing, and the common timing
// configuration (slot time, control packet time, timeouts).
package mac

import (
	"math/rand"

	"macaw/internal/frame"
	"macaw/internal/phy"
	"macaw/internal/sim"
)

// Packet is one transport-layer packet handed to a MAC for transmission.
type Packet struct {
	// Dst is the destination station (frame.Broadcast for multicast).
	Dst frame.NodeID
	// Size is the on-air size in bytes (the paper's data packets are 512
	// bytes regardless of payload).
	Size int
	// Payload is the transport payload carried to the receiver.
	Payload []byte
	// Enqueued is when the packet entered the MAC queue.
	Enqueued sim.Time

	seq uint32 // link-layer sequence number, assigned by the MAC
}

// Seq returns the link-layer sequence number the MAC assigned.
func (p *Packet) Seq() uint32 { return p.seq }

// SetSeq is used by MAC implementations to assign the sequence number.
func (p *Packet) SetSeq(s uint32) { p.seq = s }

// DropReason explains why a packet was abandoned.
type DropReason string

// Drop reasons.
const (
	DropRetries  DropReason = "retry limit exceeded"
	DropDisabled DropReason = "station disabled"
)

// Callbacks are the MAC-to-host upcalls. Any of them may be nil.
type Callbacks struct {
	// Deliver hands a received data packet to the host.
	Deliver func(src frame.NodeID, payload []byte)
	// Sent reports that a local packet completed (for MACA: data
	// transmitted; for MACAW: link-level ACK received).
	Sent func(p *Packet)
	// Dropped reports that a local packet was abandoned.
	Dropped func(p *Packet, reason DropReason)
}

// NotifyDeliver invokes Deliver if set.
func (c Callbacks) NotifyDeliver(src frame.NodeID, payload []byte) {
	if c.Deliver != nil {
		c.Deliver(src, payload)
	}
}

// NotifySent invokes Sent if set.
func (c Callbacks) NotifySent(p *Packet) {
	if c.Sent != nil {
		c.Sent(p)
	}
}

// NotifyDropped invokes Dropped if set.
func (c Callbacks) NotifyDropped(p *Packet, r DropReason) {
	if c.Dropped != nil {
		c.Dropped(p, r)
	}
}

// MAC is a media access protocol instance bound to one radio. It consumes
// physical-layer indications (phy.Handler) and transmits queued packets.
type MAC interface {
	phy.Handler
	// Enqueue submits a packet for transmission.
	Enqueue(p *Packet)
	// QueueLen reports the number of packets waiting (all streams).
	QueueLen() int
	// Stats returns MAC-level counters.
	Stats() Stats
}

// Halter is an optional MAC capability used by fault injection: Halt
// silences the instance permanently — the state timer is cancelled, queued
// packets are dropped (reported via the Dropped callback with DropDisabled),
// and every subsequent enqueue, radio indication, or stray timer becomes a
// no-op. A crashed station halts its MAC so a later restart can bind a
// fresh instance to the same radio without the two fighting over it.
type Halter interface {
	Halt()
}

// Inspector is an optional MAC capability exposing the FSM introspection a
// liveness watchdog needs: the current state's name, and whether a state
// timer (or scheduled continuation) is pending. All protocol engines in
// this repository implement it.
type Inspector interface {
	// FSMState names the current protocol state ("IDLE", "WFCTS", ...).
	FSMState() string
	// TimerPending reports whether a state timer is armed.
	TimerPending() bool
	// TimerWhen reports when the pending timer fires, or -1 when none is
	// armed.
	TimerWhen() sim.Time
}

// Observer receives MAC-internal events for passive protocol auditing (the
// conformance oracle). Implementations must be strictly passive: they may
// not transmit, enqueue packets, schedule simulator events, or consume
// randomness — attaching an observer must leave every simulation result
// bit-identical. Every protocol engine (csma, maca, macaw, token, dcf,
// tournament) invokes the hooks when Env.Obs is non-nil.
type Observer interface {
	// ObserveTx is invoked immediately before the MAC radiates f.
	ObserveTx(f *frame.Frame)
	// ObserveRx is invoked for every clean reception the MAC processes,
	// including overheard frames and broadcasts.
	ObserveRx(f *frame.Frame)
	// ObserveState reports an FSM transition (Appendix A/B state names).
	ObserveState(from, to string)
	// ObserveTimer reports the state timer being armed to fire at 'at';
	// a negative value reports cancellation.
	ObserveTimer(at sim.Time)
	// ObserveQueue reports a queue operation ("push", "pop", "drop") on
	// the queue toward dst, with the queue length after the operation.
	ObserveQueue(op string, dst frame.NodeID, n int)
	// ObserveDeliver reports a DATA frame whose payload was handed to
	// transport.
	ObserveDeliver(f *frame.Frame)
}

// Stats counts MAC-level events.
type Stats struct {
	// DataSent counts completed local data transmissions.
	DataSent int
	// DataReceived counts data packets delivered up the stack.
	DataReceived int
	// RTSSent counts RTS transmissions (including retries).
	RTSSent int
	// Retries counts RTS attempts beyond the first per packet.
	Retries int
	// Drops counts packets abandoned at the retry limit.
	Drops int
	// CTSSent, DSSent, ACKSent, RRTSSent count control transmissions.
	CTSSent, DSSent, ACKSent, RRTSSent int
}

// Config carries the timing constants shared by all protocols. The zero
// value is not useful; start from DefaultConfig.
type Config struct {
	// BitrateBPS is the channel rate (256 kbps in the paper).
	BitrateBPS int
	// CtrlBytes is the control packet size (30 bytes in the paper); its
	// airtime defines the contention slot.
	CtrlBytes int
	// Turnaround is the receive-to-transmit switch time ("the
	// simulations use a null turnaround").
	Turnaround sim.Duration
	// Margin is the scheduling epsilon added to timeouts so that events
	// arriving exactly on time beat the timer.
	Margin sim.Duration
	// MaxRetries bounds RTS attempts per packet before the packet is
	// discarded ("we allow a certain number of retries on each packet
	// before discarding the packet").
	MaxRetries int
	// CTSTimeoutSlots is how many slot times a sender waits for the CTS
	// (or ACK) beyond the control packet's own airtime before declaring
	// the attempt failed. The paper leaves the value unspecified; a
	// conservative multi-slot timeout reproduces the collision costs its
	// tables imply (see EXPERIMENTS.md).
	CTSTimeoutSlots int
}

// CTSWait returns the post-transmission wait for an answering control
// packet.
func (c Config) CTSWait() sim.Duration {
	n := c.CTSTimeoutSlots
	if n <= 0 {
		n = 1
	}
	return c.Turnaround + sim.Duration(n)*c.Slot() + c.Margin
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{
		BitrateBPS:      256000,
		CtrlBytes:       frame.ControlBytes,
		Turnaround:      0,
		Margin:          100 * sim.Microsecond,
		MaxRetries:      8,
		CTSTimeoutSlots: 1,
	}
}

// Slot returns the contention slot: the transmission time of a control
// packet.
func (c Config) Slot() sim.Duration { return frame.Airtime(c.CtrlBytes, c.BitrateBPS) }

// CtrlTime returns the airtime of a control packet.
func (c Config) CtrlTime() sim.Duration { return c.Slot() }

// DataTime returns the airtime of an n-byte data packet.
func (c Config) DataTime(n int) sim.Duration { return frame.Airtime(n, c.BitrateBPS) }

// Radio is the physical-layer surface a MAC implementation drives.
// *phy.Radio implements it inside the simulator; internal/netem provides a
// socket-backed implementation for live emulation.
type Radio interface {
	// ID returns the station identifier.
	ID() frame.NodeID
	// Transmit radiates f and returns its airtime; the MAC schedules its
	// own end-of-transmission continuation. The radio copies f before it
	// returns and never keeps the pointer, so the MAC may rebuild its next
	// frame in the same storage at once. Frames the radio's handler
	// receives are, in turn, valid only for the duration of the callback
	// (see phy.Handler).
	Transmit(f *frame.Frame) sim.Duration
	// Transmitting reports whether a transmission is in flight.
	Transmitting() bool
	// CarrierBusy reports the carrier-sense indication.
	CarrierBusy() bool
	// Enabled reports whether the radio is powered.
	Enabled() bool
	// SetHandler installs the upper-layer indication handler.
	SetHandler(h phy.Handler)
}

// Env bundles what a MAC implementation needs from its host.
type Env struct {
	Sim   *sim.Simulator
	Radio Radio
	Rand  *rand.Rand
	Cfg   Config
	// Obs, when non-nil, receives MAC-internal events for passive
	// protocol auditing (see Observer).
	Obs Observer
	Callbacks
}

// ID returns the station identifier of the bound radio.
func (e *Env) ID() frame.NodeID { return e.Radio.ID() }
