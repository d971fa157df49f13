package node

import (
	"context"
	"errors"
	"maps"
	"slices"
	"testing"
	"time"
)

// The node's lock discipline, pinned by holding its slow phases open. The
// paper buffers queries behind a merge (§6.2–§6.3); this node does not, so
// no merge or checkpoint may run with n.mu held, and no wait for one may
// hold it. Each test here catches one of DESIGN's audit rows (l1–l3): the
// one-line bug parks an operation behind the held phase, and the test
// fails after holdTimeout instead of hanging the package.

// holdTimeout bounds every wait on an operation that must not block behind
// a held merge or checkpoint.
const holdTimeout = 5 * time.Second

// allComplete runs ops concurrently and fails t for each that errs, or is
// still running after holdTimeout behind what. The ops must not touch t: a
// stuck one is abandoned and may finish after the test has returned.
func allComplete(t *testing.T, what string, ops map[string]func() error) {
	t.Helper()
	type result struct {
		name string
		err  error
	}
	done := make(chan result, len(ops))
	for name, op := range ops {
		go func() { done <- result{name, op()} }()
	}
	pending := maps.Clone(ops)
	timeout := time.After(holdTimeout)
	for range ops {
		select {
		case r := <-done:
			delete(pending, r.name)
			if r.err != nil {
				t.Errorf("%s during %s: %v", r.name, what, r.err)
			}
		case <-timeout:
			t.Fatalf("%v still blocked after %v behind %s", slices.Sorted(maps.Keys(pending)), holdTimeout, what)
		}
	}
}

// awaitEntered waits for a held phase to be reached.
func awaitEntered(t *testing.T, entered <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-entered:
	case <-time.After(holdTimeout):
		t.Fatalf("%s never reached its hold", what)
	}
}

// Audit rows l1 and l2: a checkpoint — a merge's, Retire's or Save's —
// writes its snapshot with no node lock held, so while one is held open
// Insert, Delete, SearchAppend and Stats all complete. The insert
// acknowledged meanwhile is journaled in the segment the checkpoint's
// rotation opened, which that checkpoint must not truncate: the insert and
// its tombstone survive Close → Open.
func TestOpsCompleteDuringHeldCheckpoint(t *testing.T) {
	for _, tc := range []struct {
		name    string
		trigger func(*Node) error
		merged  bool // merge every row before the hold, so the trigger merges nothing
		kept    int  // rows from before the hold that a reopen finds
	}{
		{"merge", func(n *Node) error { return n.MergeNow(bg) }, false, 200},
		{"retire", func(n *Node) error { return n.Retire(bg) }, false, 0},
		{"save", func(n *Node) error { return n.Save(bg) }, true, 200},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := durableConfig(t.TempDir(), 1000)
			cfg.AutoMerge = false
			n, err := Open(bg, cfg)
			if err != nil {
				t.Fatal(err)
			}
			docs := testDocs(220, 37)
			if _, err := n.Insert(bg, docs[:200]); err != nil {
				t.Fatal(err)
			}
			if tc.merged {
				mustMerge(t, n)
			}

			entered, release := holdMerge(t, n, &testHookCheckpoint)
			triggered := make(chan error, 1)
			go func() { triggered <- tc.trigger(n) }()
			awaitEntered(t, entered, tc.name+"'s checkpoint")
			var ids []uint32
			allComplete(t, tc.name+"'s held checkpoint", map[string]func() error{
				"Insert+Delete": func() error {
					var err error
					if ids, err = n.Insert(bg, docs[200:]); err != nil {
						return err
					}
					return n.Delete(ids[0])
				},
				"SearchAppend": func() error {
					_, err := n.SearchAppend(bg, nil, docs[3], SearchParams{})
					return err
				},
				"Stats": func() error { n.Stats(); return nil },
			})
			release()
			if err := <-triggered; err != nil {
				t.Fatal(err)
			}
			if st := n.Stats(); st.PersistErr != "" {
				t.Fatalf("persist error: %s", st.PersistErr)
			}

			if err := n.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := Open(bg, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if re.Len() != tc.kept+20 {
				t.Fatalf("reopened with %d rows, want %d", re.Len(), tc.kept+20)
			}
			if got := neighborIDs(mustQuery(t, re, docs[201])); !got[ids[1]] {
				t.Fatalf("doc %d, acknowledged during the held checkpoint, lost across Close → Open", ids[1])
			}
			if got := neighborIDs(mustQuery(t, re, docs[200])); got[ids[0]] {
				t.Fatalf("doc %d, deleted during the held checkpoint, resurrected by Close → Open", ids[0])
			}
		})
	}
}

// Audit row l3: Flush waits for a merge with n.mu released and honors its
// deadline, so behind a held merge a deadline-bound Flush returns
// DeadlineExceeded, and returns the mutex with it. One that waited holding
// the mutex would never return: the merge needs the mutex to publish.
func TestFlushHonorsDeadlineDuringHeldMerge(t *testing.T) {
	cfg := testConfig(1000)
	cfg.AutoMerge = false
	n, err := Open(bg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Insert(bg, testDocs(200, 39)); err != nil {
		t.Fatal(err)
	}
	entered, release := holdMerge(t, n, &testHookMergeStart)
	merged := make(chan error, 1)
	go func() { merged <- n.MergeNow(bg) }()
	awaitEntered(t, entered, "the merge")

	flushed := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(bg, 30*time.Millisecond)
		defer cancel()
		flushed <- n.Flush(ctx)
	}()
	select {
	case err := <-flushed:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Flush behind a held merge returned %v, want DeadlineExceeded", err)
		}
	case <-time.After(holdTimeout):
		t.Fatalf("Flush ignored its deadline behind a held merge for %v", holdTimeout)
	}
	release()
	allComplete(t, "a Flush that gave up", map[string]func() error{
		"MergeNow": func() error { return <-merged },
		"Stats":    func() error { n.Stats(); return nil },
	})
}
