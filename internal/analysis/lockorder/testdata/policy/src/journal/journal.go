// Package journal stands in for the WAL: nothing in Checkpoint's body
// blocks, and it lives in another package than its callers, so only the
// policy's Blocking list can make a call to it blocking.
package journal

type WAL struct{ token int }

func (w *WAL) Checkpoint(token int) error {
	w.token = token
	return nil
}

// Rotate is not on the list: calling it under a mutex is clean.
func (w *WAL) Rotate() int { return w.token + 1 }
