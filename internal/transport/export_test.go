package transport

import "repro/internal/types"

// QueueDepth returns how many messages sit in t's send queue for peer to.
// Tests use it to wait until the writer goroutine has taken what was
// queued.
func QueueDepth(t *TCP, to types.ProcID) int {
	t.mu.Lock()
	p := t.peers[to]
	t.mu.Unlock()
	if p == nil {
		return 0
	}
	return p.q.depth()
}
