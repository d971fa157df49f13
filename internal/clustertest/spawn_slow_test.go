//go:build slow

package clustertest

import (
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestSpawnReportsANodeThatExits: a node that refuses its flags exits at
// once, and Spawn returns then — not after waitReady's 15 s of refused
// dials — with the process's exit status and its own error.
func TestSpawnReportsANodeThatExits(t *testing.T) {
	nodeBinary(t) // build outside the timed call
	start := time.Now()
	f, err := Spawn(1, t.TempDir(), "-eta", "1.5")
	took := time.Since(start)
	if err == nil {
		f.KillAll()
		t.Fatal("a node at -eta 1.5 started")
	}
	t.Logf("Spawn failed after %v: %v", took, err)
	for _, want := range []string{"exit status 1", "DeltaFraction = 1.5 outside [0, 1]"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Spawn's error %q does not say %q", err, want)
		}
	}
	if took > 2*time.Second {
		t.Errorf("Spawn took %v to report a node that exited at once", took)
	}
}

// TestStopReportsANodeThatDiedFirst: a node killed behind the harness's back
// is reaped by its waiter; Signal on it is still a no-op, and Stop returns
// its exit status rather than an error about the SIGTERM it could not send.
func TestStopReportsANodeThatDiedFirst(t *testing.T) {
	f := Start(t, 1, "-dim", "64", "-k", "4", "-m", "4")
	nd := f.Nodes[0]
	if err := syscall.Kill(nd.proc.cmd.Process.Pid, syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	<-nd.proc.done
	if err := nd.Signal(syscall.SIGCONT); err != nil {
		t.Errorf("Signal on an exited node: %v", err)
	}
	err := nd.Stop(time.Second)
	if err == nil || !strings.Contains(err.Error(), "exited uncleanly") || !strings.Contains(err.Error(), "signal: killed") {
		t.Errorf("Stop on a killed node returned %v, want its exit status", err)
	}
	if nd.Running() {
		t.Error("a stopped node still reads as running")
	}
}
