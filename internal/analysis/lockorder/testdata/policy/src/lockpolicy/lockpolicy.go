// Package lockpolicy is walked under a policy whose Blocking list names
// (*journal.WAL).Checkpoint: a listed method called under a mutex is a
// finding, directly or through a same-package callee, and one called after
// the unlock is not. It is the shape of a merge or a retirement writing its
// checkpoint under the node mutex.
package lockpolicy

import (
	"sync"

	"journal"
)

type node struct {
	mu  sync.Mutex
	wal *journal.WAL
}

func (n *node) checkpointUnderLock() {
	n.mu.Lock()
	token := n.wal.Rotate()
	_ = n.wal.Checkpoint(token) // want `call to \(\*journal\.WAL\)\.Checkpoint while holding node\.mu`
	n.mu.Unlock()
}

// checkpoint blocks through the listed call.
func (n *node) checkpoint(token int) { _ = n.wal.Checkpoint(token) }

func (n *node) callerOfCheckpoint() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.checkpoint(n.wal.Rotate()) // want `call to checkpoint may block while holding node\.mu`
}

// checkpointAfterUnlock rotates under the mutex and checkpoints off it:
// clean.
func (n *node) checkpointAfterUnlock() {
	n.mu.Lock()
	token := n.wal.Rotate()
	n.mu.Unlock()
	_ = n.wal.Checkpoint(token)
}
