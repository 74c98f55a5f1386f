package maca

import (
	"fmt"

	"macaw/internal/mac"
)

// AppendState appends the engine's full FSM state for the snapshot
// inventory (DESIGN.md §14).
func (m *MACA) AppendState(b []byte) []byte {
	b = fmt.Appendf(b, "maca st=%s retries=%d timer=%d timerCancelled=%t tk=%d defer=%d curDst=%d expectFrom=%d seq=%d halted=%t",
		m.st, m.retries, m.timer.When(), m.timer.Cancelled(), m.tk, m.deferUntil, m.curDst, m.expectFrom, m.seq, m.halted)
	b = mac.AppendPacketRef(b, "sending", m.sending)
	b = append(b, '\n')
	b = m.q.AppendState(b)
	if a, ok := m.pol.(interface{ AppendState([]byte) []byte }); ok {
		b = a.AppendState(b)
	}
	b = m.stats.AppendState(b)
	return b
}
