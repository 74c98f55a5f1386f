package csma

import (
	"fmt"

	"macaw/internal/mac"
)

// AppendState appends the engine's full FSM state for the snapshot
// inventory (DESIGN.md §14).
func (c *CSMA) AppendState(b []byte) []byte {
	b = fmt.Appendf(b, "csma st=%s retries=%d timer=%d timerCancelled=%t tk=%d seq=%d halted=%t",
		c.st, c.retries, c.timer.When(), c.timer.Cancelled(), c.tk, c.seq, c.halted)
	b = mac.AppendPacketRef(b, "sending", c.sending)
	b = append(b, '\n')
	b = c.q.AppendState(b)
	if a, ok := c.pol.(interface{ AppendState([]byte) []byte }); ok {
		b = a.AppendState(b)
	}
	b = c.stats.AppendState(b)
	return b
}
