package main

import (
	"context"
	"runtime"
	"testing"
	"time"

	"plsh"
)

// blockedInAwait waits until n callers are blocked in m.awaitMirrored.
func blockedInAwait(t *testing.T, m *mirror, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
		m.mu.Lock()
		w := m.waiting
		m.mu.Unlock()
		if w == n {
			return
		}
	}
	t.Fatalf("no sample waits for the inserts in flight")
}

// TestUnknownMatchWaitsForInsertsInFlight drives the race between the
// inserter and a sampled search by hand, one step at a time: a search
// whose answer holds a document the members applied while its insert was
// still in flight is no violation once the inserter mirrors that insert;
// a match still unknown after every insert in flight is mirrored is one;
// and with no insert in flight an unknown match is one at once.
func TestUnknownMatchWaitsForInsertsInFlight(t *testing.T) {
	s := &soak{cfg: config{Radius: 0.9}, mirror: newMirror()}
	q := plsh.Vector{Idx: []uint32{1, 2}, Val: []float32{0.6, 0.8}}
	s.mirror.add(1, q)
	// verify checks an answer to q holding q itself and match, in a
	// goroutine, against the fence taken now.
	verify := func(match uint64) <-chan struct{} {
		fence := s.mirror.fence()
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.verifySample(context.Background(), 1, q, []plsh.Match{{ID: 1}, {ID: match}}, nil, fence)
		}()
		return done
	}

	// Document 2's insert is in flight and applied: the search finds it
	// before the inserter has mirrored it.
	s.mirror.beginInsert()
	done := verify(2)
	blockedInAwait(t, s.mirror, 1)
	if got := s.violations.Load(); got != 0 {
		t.Fatalf("%d violations while the insert is in flight", got)
	}
	s.mirror.add(2, q)
	s.mirror.endInsert()
	<-done
	if got := s.violations.Load(); got != 0 {
		t.Fatalf("a match from an insert in flight while the search ran: %d violations, want 0", got)
	}

	// An insert in flight that does not hold document 3 ends: 3 is still
	// unknown, a violation.
	s.mirror.beginInsert()
	done = verify(3)
	blockedInAwait(t, s.mirror, 1)
	s.mirror.endInsert()
	<-done
	if got := s.violations.Load(); got != 1 {
		t.Fatalf("a match no insert in flight explains: %d violations, want 1", got)
	}

	// Nothing in flight: document 4 is a violation without waiting.
	<-verify(4)
	if got := s.violations.Load(); got != 2 {
		t.Fatalf("an unknown match with no insert in flight: %d violations, want 2", got)
	}
}
